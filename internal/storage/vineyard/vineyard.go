// Package vineyard implements the immutable in-memory property graph store
// (§4.2). Mirroring the paper's Vineyard backend, it keeps CSR and CSC
// representations of the topology, assigns internal vertex IDs so that each
// label occupies a contiguous range, and stores properties in typed columns.
// Both adjacencies of every vertex are grouped by edge label, and per vertex
// label a boundary column for each edge label the schema allows there marks
// where one label's slots end and the next begin (segment.go) — the paper's
// one CSR per (vertex label, edge label) as a view over shared slot arrays,
// served to engines as grin.LabelAdjacency: a labelled hop reads only its
// label's slots and a labelled degree is a subtraction. It implements every
// read-side GRIN trait, making it the fastest backend in Exp-1 (Fig 7a).
package vineyard

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/storage/column"
)

// Store is an immutable in-memory labeled property graph.
type Store struct {
	schema *graph.Schema

	// Vertices: internal IDs are assigned per label contiguously;
	// labelStart[l]..labelStart[l+1] is label l's range.
	labelStart []graph.VID
	extIDs     []int64
	extLookup  []map[int64]graph.VID // per label
	vcols      [][]*column.Column    // [label][prop]

	// Edges: global out-CSR and in-CSR over internal IDs. EIDs are assigned
	// in out-CSR slot order.
	outOff  []uint64
	out     []grin.Target
	inOff   []uint64
	in      []grin.Target
	elabels []graph.LabelID
	erow    []uint32           // row of each EID within its label's columns
	ecols   [][]*column.Column // [elabel][prop]

	// segs[dir][vertex label] holds the edge-label boundaries of that
	// label's out (0) and in (1) adjacencies: both are grouped by edge label.
	segs [2][]labelSegs

	// weightCol caches, per edge label, the float column named "weight"
	// (nil when absent) for the WeightReader fast path.
	weightCol []*column.Column
}

// Compile-time trait conformance.
var (
	_ grin.Graph          = (*Store)(nil)
	_ grin.AdjArray       = (*Store)(nil)
	_ grin.PropertyReader = (*Store)(nil)
	_ grin.WeightReader   = (*Store)(nil)
	_ grin.Index          = (*Store)(nil)
	_ grin.PredicatePush  = (*Store)(nil)
	_ grin.Named          = (*Store)(nil)
)

// Load builds a Store from a batch. Vertices are ordered by (label, external
// ID) and edges by (source, label, destination), input order breaking ties,
// so ID assignment is deterministic; dangling edges are an error.
func Load(b *graph.Batch) (*Store, error) {
	s := b.Schema
	if s == nil {
		return nil, fmt.Errorf("vineyard: batch has no schema")
	}
	st := &Store{schema: s}
	numVL := s.NumVertexLabels()
	numEL := s.NumEdgeLabels()

	// Assign internal IDs by (label, extID): order[i] is the input vertex
	// that becomes internal vertex i.
	n := len(b.Vertices)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		a, c := &b.Vertices[i], &b.Vertices[j]
		if a.Label != c.Label {
			return cmp.Compare(a.Label, c.Label)
		}
		return cmp.Compare(a.ExtID, c.ExtID)
	})
	st.labelStart = make([]graph.VID, numVL+1)
	st.extIDs = make([]int64, n)
	st.extLookup = make([]map[int64]graph.VID, numVL)
	st.vcols = make([][]*column.Column, numVL)
	for l := 0; l < numVL; l++ {
		st.extLookup[l] = make(map[int64]graph.VID)
		st.vcols[l] = column.Set(s.Vertices[l].Props)
	}
	cur := graph.LabelID(0)
	for i, at := range order {
		v := &b.Vertices[at]
		for cur < v.Label {
			cur++
			st.labelStart[cur] = graph.VID(i)
		}
		vid := graph.VID(i)
		st.extIDs[i] = v.ExtID
		if _, dup := st.extLookup[v.Label][v.ExtID]; dup {
			return nil, fmt.Errorf("vineyard: duplicate vertex %s/%d", s.VertexLabelName(v.Label), v.ExtID)
		}
		st.extLookup[v.Label][v.ExtID] = vid
		if err := column.AppendRow(st.vcols[v.Label], v.Props); err != nil {
			return nil, fmt.Errorf("vineyard: vertex %s/%d: %w", s.VertexLabelName(v.Label), v.ExtID, err)
		}
	}
	for int(cur) < numVL {
		cur++
		st.labelStart[cur] = graph.VID(n)
	}

	// Resolve edge endpoints to internal IDs, counting out-degrees.
	m := len(b.Edges)
	srcs, dsts := make([]graph.VID, m), make([]graph.VID, m)
	st.outOff = make([]uint64, n+1)
	for i, e := range b.Edges {
		el := s.Edges[e.Label]
		var ok bool
		if srcs[i], ok = st.lookupEndpoint(el.Src, e.Src); !ok {
			return nil, fmt.Errorf("vineyard: edge %d (%s): unknown source %d", i, el.Name, e.Src)
		}
		if dsts[i], ok = st.lookupEndpoint(el.Dst, e.Dst); !ok {
			return nil, fmt.Errorf("vineyard: edge %d (%s): unknown destination %d", i, el.Name, e.Dst)
		}
		st.outOff[srcs[i]+1]++
	}
	for i := 0; i < n; i++ {
		st.outOff[i+1] += st.outOff[i]
	}

	// Deterministic edge order by (src, label, dst): drop every edge into its
	// source's bucket (the counts are the bucket sizes), then order each
	// small bucket. slot[k] is the input edge that lands in out-CSR slot k.
	slot := make([]int32, m)
	cursor := make([]uint64, n)
	copy(cursor, st.outOff[:n])
	for i := range b.Edges {
		slot[cursor[srcs[i]]] = int32(i)
		cursor[srcs[i]]++
	}
	byLabelDst := func(i, j int32) int {
		if li, lj := b.Edges[i].Label, b.Edges[j].Label; li != lj {
			return cmp.Compare(li, lj)
		}
		return cmp.Compare(dsts[i], dsts[j])
	}
	for v := 0; v < n; v++ {
		slices.SortStableFunc(slot[st.outOff[v]:st.outOff[v+1]], byLabelDst)
	}

	st.out = make([]grin.Target, m)
	st.elabels = make([]graph.LabelID, m)
	st.erow = make([]uint32, m)
	st.ecols = make([][]*column.Column, numEL)
	for l := 0; l < numEL; l++ {
		st.ecols[l] = column.Set(s.Edges[l].Props)
	}
	st.inOff = make([]uint64, n+1)
	for k, i := range slot {
		e := &b.Edges[i]
		st.out[k] = grin.Target{Nbr: dsts[i], Edge: graph.EID(k)}
		st.elabels[k] = e.Label
		st.inOff[dsts[i]+1]++
		if cols := st.ecols[e.Label]; len(cols) > 0 {
			st.erow[k] = uint32(cols[0].Len())
			if err := column.AppendRow(cols, e.Props); err != nil {
				return nil, fmt.Errorf("vineyard: edge %s: %w", s.Edges[e.Label].Name, err)
			}
		}
	}
	for i := 0; i < n; i++ {
		st.inOff[i+1] += st.inOff[i]
	}
	st.segment(cursor)

	// Weight fast path.
	st.weightCol = make([]*column.Column, numEL)
	for l := 0; l < numEL; l++ {
		if p := s.EdgePropID(graph.LabelID(l), "weight"); p != graph.NoProp &&
			s.Edges[l].Props[p].Kind == graph.KindFloat {
			st.weightCol[l] = st.ecols[l][p]
		}
	}
	return st, nil
}

func (st *Store) lookupEndpoint(label graph.LabelID, ext int64) (graph.VID, bool) {
	if label != graph.AnyLabel {
		v, ok := st.extLookup[label][ext]
		return v, ok
	}
	for _, m := range st.extLookup {
		if v, ok := m[ext]; ok {
			return v, true
		}
	}
	return graph.NilVID, false
}

// BackendName implements grin.Named.
func (st *Store) BackendName() string { return "vineyard" }

// NumVertices implements grin.Graph.
func (st *Store) NumVertices() int { return len(st.extIDs) }

// NumEdges implements grin.Graph.
func (st *Store) NumEdges() int { return len(st.out) }

// Degree implements grin.Graph.
func (st *Store) Degree(v graph.VID, dir graph.Direction) int {
	switch dir {
	case graph.Out:
		return int(st.outOff[v+1] - st.outOff[v])
	case graph.In:
		return int(st.inOff[v+1] - st.inOff[v])
	default:
		return st.Degree(v, graph.Out) + st.Degree(v, graph.In)
	}
}

// AdjSlice implements grin.AdjArray (zero copy).
func (st *Store) AdjSlice(v graph.VID, dir graph.Direction) []grin.Target {
	if dir == graph.In {
		return st.in[st.inOff[v]:st.inOff[v+1]]
	}
	return st.out[st.outOff[v]:st.outOff[v+1]]
}

// Neighbors implements grin.Graph.
func (st *Store) Neighbors(v graph.VID, dir graph.Direction, yield func(graph.VID, graph.EID) bool) {
	if dir != graph.In {
		for _, t := range st.AdjSlice(v, graph.Out) {
			if !yield(t.Nbr, t.Edge) {
				return
			}
		}
	}
	if dir != graph.Out {
		for _, t := range st.AdjSlice(v, graph.In) {
			if !yield(t.Nbr, t.Edge) {
				return
			}
		}
	}
}

// Schema implements grin.PropertyReader.
func (st *Store) Schema() *graph.Schema { return st.schema }

// VertexLabel implements grin.PropertyReader using the label ranges.
func (st *Store) VertexLabel(v graph.VID) graph.LabelID {
	// labelStart is small (few labels); linear probe beats binary search.
	for l := 1; l < len(st.labelStart); l++ {
		if v < st.labelStart[l] {
			return graph.LabelID(l - 1)
		}
	}
	return graph.LabelID(len(st.labelStart) - 2)
}

// VertexProp implements grin.PropertyReader.
func (st *Store) VertexProp(v graph.VID, p graph.PropID) (graph.Value, bool) {
	l := st.VertexLabel(v)
	cols := st.vcols[l]
	if int(p) < 0 || int(p) >= len(cols) {
		return graph.NullValue, false
	}
	return cols[p].Get(int(v - st.labelStart[l]))
}

// EdgeLabel implements grin.PropertyReader.
func (st *Store) EdgeLabel(e graph.EID) graph.LabelID { return st.elabels[e] }

// EdgeProp implements grin.PropertyReader.
func (st *Store) EdgeProp(e graph.EID, p graph.PropID) (graph.Value, bool) {
	l := st.elabels[e]
	cols := st.ecols[l]
	if int(p) < 0 || int(p) >= len(cols) {
		return graph.NullValue, false
	}
	return cols[p].Get(int(st.erow[e]))
}

// EdgeWeight implements grin.WeightReader: the float property named "weight"
// of the edge's label, defaulting to 1.
func (st *Store) EdgeWeight(e graph.EID) float64 {
	wc := st.weightCol[st.elabels[e]]
	if wc == nil {
		return 1.0
	}
	return wc.Floats()[st.erow[e]]
}

// LookupVertex implements grin.Index.
func (st *Store) LookupVertex(label graph.LabelID, ext int64) (graph.VID, bool) {
	return st.lookupEndpoint(label, ext)
}

// ExternalID implements grin.Index.
func (st *Store) ExternalID(v graph.VID) int64 { return st.extIDs[v] }

// LabelRange implements grin.Index; vineyard's contiguous assignment always
// provides ranges.
func (st *Store) LabelRange(label graph.LabelID) (graph.VID, graph.VID, bool) {
	if label == graph.AnyLabel {
		return 0, graph.VID(len(st.extIDs)), true
	}
	if int(label) < 0 || int(label) >= st.schema.NumVertexLabels() {
		return 0, 0, false
	}
	return st.labelStart[label], st.labelStart[label+1], true
}

// ScanVertices implements grin.PredicatePush.
func (st *Store) ScanVertices(label graph.LabelID, pred func(graph.VID) bool, yield func(graph.VID) bool) {
	lo, hi, _ := st.LabelRange(label)
	for v := lo; v < hi; v++ {
		if pred != nil && !pred(v) {
			continue
		}
		if !yield(v) {
			return
		}
	}
}
