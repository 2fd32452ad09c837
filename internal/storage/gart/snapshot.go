package gart

import (
	"repro/internal/graph"
	"repro/internal/grin"
)

// Snapshot is a consistent read-only view of a Store at one committed
// version. Topology, label, external-ID and vertex-scan methods read the
// published vertex table lock-free; property reads, edge labels and
// external-ID lookups take the store's read lock.
//
// It does not serve LabelAdjacency: a vertex's adjacency is an append-only
// chain in commit order, one chain for every edge label, so there is no label
// boundary to jump to: engines expand it whole and filter by GatherEdgeLabels.
// The gap is declared, with this reason, in internal/core's declaredGaps.
type Snapshot struct {
	s   *Store
	ver uint64
}

var (
	_ grin.Graph          = (*Snapshot)(nil)
	_ grin.PropertyReader = (*Snapshot)(nil)
	_ grin.WeightReader   = (*Snapshot)(nil)
	_ grin.Index          = (*Snapshot)(nil)
	_ grin.PredicatePush  = (*Snapshot)(nil)
	_ grin.Named          = (*Snapshot)(nil)
)

// Version returns the snapshot's version.
func (sn *Snapshot) Version() uint64 { return sn.ver }

// BackendName implements grin.Named.
func (sn *Snapshot) BackendName() string { return "gart" }

// visible reports whether an entry exists at this snapshot's version.
func (sn *Snapshot) visible(create uint64, deleted uint64) bool {
	return create <= sn.ver && sn.ver < deleted
}

// NumVertices implements grin.Graph. The published vertex count is monotone,
// so it bounds the scan; per-vertex visibility is checked by createVer.
func (sn *Snapshot) NumVertices() int {
	t := sn.s.table()
	n := t.n
	for n > 0 && t.slot(n-1).meta.createVer > sn.ver {
		n--
	}
	return int(n)
}

// NumEdges implements grin.Graph by counting visible out-entries.
func (sn *Snapshot) NumEdges() int {
	total := 0
	n := sn.NumVertices()
	for v := 0; v < n; v++ {
		total += sn.Degree(graph.VID(v), graph.Out)
	}
	return total
}

// Degree implements grin.Graph (O(d): visibility must be checked per entry).
func (sn *Snapshot) Degree(v graph.VID, dir graph.Direction) int {
	d := 0
	sn.Neighbors(v, dir, func(graph.VID, graph.EID) bool { d++; return true })
	return d
}

// Neighbors implements grin.Graph with a lock-free segment-chain walk.
func (sn *Snapshot) Neighbors(v graph.VID, dir graph.Direction, yield func(graph.VID, graph.EID) bool) {
	slot := sn.s.table().slot(v)
	if slot == nil {
		return
	}
	if dir != graph.In && !sn.iterate(&slot.out, yield) {
		return
	}
	if dir != graph.Out {
		sn.iterate(&slot.in, yield)
	}
}

// iterate walks the chain; returns false if the yield stopped early.
func (sn *Snapshot) iterate(a *adjacency, yield func(graph.VID, graph.EID) bool) bool {
	for seg := a.head.Load(); seg != nil; seg = seg.next.Load() {
		n := int(seg.count.Load())
		for i := 0; i < n; i++ {
			e := &seg.entries[i]
			if !sn.visible(e.createVer, e.deleteVer.Load()) {
				continue
			}
			if !yield(e.nbr, e.eid) {
				return false
			}
		}
	}
	return true
}

// Schema implements grin.PropertyReader.
func (sn *Snapshot) Schema() *graph.Schema { return sn.s.schema }

// VertexLabel implements grin.PropertyReader.
func (sn *Snapshot) VertexLabel(v graph.VID) graph.LabelID {
	slot := sn.s.table().slot(v)
	if slot == nil {
		return graph.AnyLabel
	}
	return slot.meta.label
}

// VertexProp implements grin.PropertyReader with MVCC cell resolution.
func (sn *Snapshot) VertexProp(v graph.VID, p graph.PropID) (graph.Value, bool) {
	slot := sn.s.table().slot(v)
	if slot == nil || slot.meta.createVer > sn.ver {
		return graph.NullValue, false
	}
	meta := &slot.meta
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	cols := sn.s.vcols[meta.label]
	if int(p) < 0 || int(p) >= len(cols) {
		return graph.NullValue, false
	}
	cell := propCell{v: v, p: p}
	curVer, updated := sn.s.vcurVer[cell]
	if !updated || curVer <= sn.ver {
		return cols[p].Get(int(meta.row))
	}
	// The current value is too new: read the newest historical value with
	// version <= snapshot version.
	hist := sn.s.vhist[cell]
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i].ver <= sn.ver {
			if hist[i].val.IsNull() {
				return graph.NullValue, false
			}
			return hist[i].val, true
		}
	}
	return graph.NullValue, false
}

// EdgeLabel implements grin.PropertyReader.
func (sn *Snapshot) EdgeLabel(e graph.EID) graph.LabelID {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	if int(e) >= len(sn.s.eLabel) {
		return graph.AnyLabel
	}
	return sn.s.eLabel[e]
}

// EdgeProp implements grin.PropertyReader. Edge properties are immutable
// once written, so no version chain is needed.
func (sn *Snapshot) EdgeProp(e graph.EID, p graph.PropID) (graph.Value, bool) {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	if int(e) >= len(sn.s.eLabel) {
		return graph.NullValue, false
	}
	l := sn.s.eLabel[e]
	cols := sn.s.ecols[l]
	if int(p) < 0 || int(p) >= len(cols) {
		return graph.NullValue, false
	}
	return cols[p].Get(int(sn.s.eRow[e]))
}

// EdgeWeight implements grin.WeightReader via the "weight" float property.
func (sn *Snapshot) EdgeWeight(e graph.EID) float64 {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	if int(e) >= len(sn.s.eLabel) {
		return 1.0
	}
	l := sn.s.eLabel[e]
	p := sn.s.schema.EdgePropID(l, "weight")
	if p == graph.NoProp {
		return 1.0
	}
	v, ok := sn.s.ecols[l][p].Get(int(sn.s.eRow[e]))
	if !ok {
		return 1.0
	}
	return v.Float()
}

// LookupVertex implements grin.Index.
func (sn *Snapshot) LookupVertex(label graph.LabelID, ext int64) (graph.VID, bool) {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	v, ok := sn.s.lookupLocked(label, ext)
	if !ok || sn.s.table().slot(v).meta.createVer > sn.ver {
		return graph.NilVID, false
	}
	return v, true
}

// ExternalID implements grin.Index.
func (sn *Snapshot) ExternalID(v graph.VID) int64 {
	slot := sn.s.table().slot(v)
	if slot == nil {
		return -1
	}
	return slot.meta.extID
}

// LabelRange implements grin.Index. GART assigns IDs in arrival order, so
// per-label ranges are not contiguous; only AnyLabel resolves.
func (sn *Snapshot) LabelRange(label graph.LabelID) (graph.VID, graph.VID, bool) {
	if label == graph.AnyLabel {
		return 0, graph.VID(sn.NumVertices()), true
	}
	return 0, 0, false
}

// ScanVertices implements grin.PredicatePush with per-vertex label checks.
func (sn *Snapshot) ScanVertices(label graph.LabelID, pred func(graph.VID) bool, yield func(graph.VID) bool) {
	t := sn.s.table()
	for v := graph.VID(0); v < t.n; v++ {
		meta := &t.slot(v).meta
		if meta.createVer > sn.ver {
			continue
		}
		if label != graph.AnyLabel && meta.label != label {
			continue
		}
		if pred != nil && !pred(v) {
			continue
		}
		if !yield(v) {
			return
		}
	}
}
