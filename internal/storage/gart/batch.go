package gart

import (
	"repro/internal/graph"
	"repro/internal/grin"
)

var (
	_ grin.BatchAdjacency = (*Snapshot)(nil)
	_ grin.BatchProps     = (*Snapshot)(nil)
	_ grin.BatchScan      = (*Snapshot)(nil)
)

// ExpandBatch implements grin.BatchAdjacency with one lock-free segment-chain
// walk per frontier vertex, appending visible entries straight into the
// arrays — no per-edge callback dispatch.
func (sn *Snapshot) ExpandBatch(frontier []graph.VID, dir graph.Direction, out *grin.AdjBatch) {
	out.Begin(len(frontier))
	t := sn.s.table()
	walk := func(a *adjacency) {
		for seg := a.head.Load(); seg != nil; seg = seg.next.Load() {
			n := int(seg.count.Load())
			for i := 0; i < n; i++ {
				e := &seg.entries[i]
				if !sn.visible(e.createVer, e.deleteVer.Load()) {
					continue
				}
				out.Nbrs = append(out.Nbrs, e.nbr)
				out.Edges = append(out.Edges, e.eid)
			}
		}
	}
	for _, v := range frontier {
		if slot := t.slot(v); slot != nil {
			if dir != graph.In {
				walk(&slot.out)
			}
			if dir != graph.Out {
				walk(&slot.in)
			}
		}
		out.EndVertex()
	}
}

// ScanBatch implements grin.BatchScan over one lock-free load of the
// published vertex table. Visibility and label filtering match ScanVertices.
func (sn *Snapshot) ScanBatch(label graph.LabelID, start graph.VID, buf []graph.VID) (int, graph.VID) {
	t := sn.s.table()
	end := t.n
	n := 0
	v := start
	for ; v < end && n < len(buf); v++ {
		meta := &t.slot(v).meta
		if meta.createVer > sn.ver {
			continue
		}
		if label != graph.AnyLabel && meta.label != label {
			continue
		}
		buf[n] = v
		n++
	}
	if v >= end {
		return n, graph.NilVID
	}
	return n, v
}

// GatherVertexProp implements grin.BatchProps under a single read lock,
// resolving the MVCC cell version per element exactly as VertexProp does.
func (sn *Snapshot) GatherVertexProp(vs []graph.VID, prop string, out []graph.Value) {
	t := sn.s.table()
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	lastLabel, pid := graph.AnyLabel, graph.NoProp
	for i, v := range vs {
		out[i] = graph.NullValue
		slot := t.slot(v)
		if slot == nil || slot.meta.createVer > sn.ver {
			continue
		}
		meta := &slot.meta
		if meta.label != lastLabel {
			lastLabel, pid = meta.label, sn.s.schema.VertexPropID(meta.label, prop)
		}
		if pid == graph.NoProp {
			continue
		}
		cell := propCell{v: v, p: pid}
		curVer, updated := sn.s.vcurVer[cell]
		if !updated || curVer <= sn.ver {
			out[i], _ = sn.s.vcols[meta.label][pid].Get(int(meta.row))
			continue
		}
		hist := sn.s.vhist[cell]
		for h := len(hist) - 1; h >= 0; h-- {
			if hist[h].ver <= sn.ver {
				if !hist[h].val.IsNull() {
					out[i] = hist[h].val
				}
				break
			}
		}
	}
}

// GatherEdgeProp implements grin.BatchProps under a single read lock (edge
// properties are immutable once written; no version chains).
func (sn *Snapshot) GatherEdgeProp(es []graph.EID, prop string, out []graph.Value) {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	lastLabel, pid := graph.AnyLabel, graph.NoProp
	for i, e := range es {
		out[i] = graph.NullValue
		if int(e) >= len(sn.s.eLabel) {
			continue
		}
		l := sn.s.eLabel[e]
		if l != lastLabel {
			lastLabel, pid = l, sn.s.schema.EdgePropID(l, prop)
		}
		if pid == graph.NoProp {
			continue
		}
		out[i], _ = sn.s.ecols[l][pid].Get(int(sn.s.eRow[e]))
	}
}

// GatherVertexLabels implements grin.BatchProps over one lock-free load of
// the published vertex table.
func (sn *Snapshot) GatherVertexLabels(vs []graph.VID, out []graph.LabelID) {
	t := sn.s.table()
	for i, v := range vs {
		out[i] = graph.AnyLabel
		if slot := t.slot(v); slot != nil {
			out[i] = slot.meta.label
		}
	}
}

// GatherEdgeLabels implements grin.BatchProps under a single read lock.
func (sn *Snapshot) GatherEdgeLabels(es []graph.EID, out []graph.LabelID) {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	for i, e := range es {
		if int(e) >= len(sn.s.eLabel) {
			out[i] = graph.AnyLabel
			continue
		}
		out[i] = sn.s.eLabel[e]
	}
}
