package grin_test

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/grin"
)

// iterStore implements only the callback topology trait — the lowest trait
// tier every helper must fall back to.
type iterStore struct {
	out, in [][]grin.Target
}

func (s *iterStore) NumVertices() int { return len(s.out) }

func (s *iterStore) NumEdges() int {
	n := 0
	for _, a := range s.out {
		n += len(a)
	}
	return n
}

func (s *iterStore) Degree(v graph.VID, dir graph.Direction) int {
	switch dir {
	case graph.Out:
		return len(s.out[v])
	case graph.In:
		return len(s.in[v])
	default:
		return len(s.out[v]) + len(s.in[v])
	}
}

func (s *iterStore) Neighbors(v graph.VID, dir graph.Direction, yield func(graph.VID, graph.EID) bool) {
	if dir == graph.Both {
		s.Neighbors(v, graph.Out, yield)
		s.Neighbors(v, graph.In, yield)
		return
	}
	adj := s.out[v]
	if dir == graph.In {
		adj = s.in[v]
	}
	for _, t := range adj {
		if !yield(t.Nbr, t.Edge) {
			return
		}
	}
}

// arrayStore adds the zero-copy array trait.
type arrayStore struct{ iterStore }

func (s *arrayStore) AdjSlice(v graph.VID, dir graph.Direction) []grin.Target {
	if dir == graph.In {
		return s.in[v]
	}
	return s.out[v]
}

// batchStore adds a native batched-adjacency trait (out-edges then in-edges
// per frontier vertex, as the contract requires).
type batchStore struct{ arrayStore }

func (s *batchStore) ExpandBatch(frontier []graph.VID, dir graph.Direction, out *grin.AdjBatch) {
	out.Reset()
	out.Off = append(out.Off, 0)
	for _, v := range frontier {
		if dir == graph.Both || dir == graph.Out {
			for _, t := range s.out[v] {
				out.Nbrs = append(out.Nbrs, t.Nbr)
				out.Edges = append(out.Edges, t.Edge)
			}
		}
		if dir == graph.Both || dir == graph.In {
			for _, t := range s.in[v] {
				out.Nbrs = append(out.Nbrs, t.Nbr)
				out.Edges = append(out.Edges, t.Edge)
			}
		}
		out.Off = append(out.Off, len(out.Nbrs))
	}
}

// testStores builds the same small graph (0→1, 0→2, 1→2) at all three trait
// tiers.
func testStores() map[string]grin.Graph {
	base := iterStore{
		out: [][]grin.Target{
			{{Nbr: 1, Edge: 0}, {Nbr: 2, Edge: 1}},
			{{Nbr: 2, Edge: 2}},
			nil,
		},
		in: [][]grin.Target{
			nil,
			{{Nbr: 0, Edge: 0}},
			{{Nbr: 0, Edge: 1}, {Nbr: 1, Edge: 2}},
		},
	}
	return map[string]grin.Graph{
		"iterator": &iterStore{out: base.out, in: base.in},
		"array":    &arrayStore{iterStore{out: base.out, in: base.in}},
		"batch":    &batchStore{arrayStore{iterStore{out: base.out, in: base.in}}},
	}
}

// TestCollectNeighborsBothOrder pins the Both-direction contract every trait
// tier (and therefore every batched expand) must preserve: out-edges first,
// then in-edges, each in adjacency order — and on array-trait stores the
// result is sized exactly from the adjacency slices, not grown by append.
func TestCollectNeighborsBothOrder(t *testing.T) {
	want := map[graph.VID][]grin.Target{
		0: {{Nbr: 1, Edge: 0}, {Nbr: 2, Edge: 1}},
		1: {{Nbr: 2, Edge: 2}, {Nbr: 0, Edge: 0}},
		2: {{Nbr: 0, Edge: 1}, {Nbr: 1, Edge: 2}},
	}
	for name, g := range testStores() {
		_, hasArray := g.(grin.AdjArray)
		for v, w := range want {
			got := grin.CollectNeighbors(g, v, graph.Both)
			if !reflect.DeepEqual(got, w) {
				t.Errorf("%s: CollectNeighbors(%d, Both) = %v, want out-then-in %v", name, v, got, w)
			}
			if hasArray && len(got) > 0 && cap(got) != len(got) {
				t.Errorf("%s: CollectNeighbors(%d, Both) cap %d != len %d (not pre-sized)", name, v, cap(got), len(got))
			}
		}
	}
}

// TestExpandBatchMatchesCollect checks that the batched frontier expansion is
// slot-for-slot identical to per-vertex collection on every trait tier and
// direction — the contract the runtime's parity relies on.
func TestExpandBatchMatchesCollect(t *testing.T) {
	frontier := []graph.VID{0, 1, 2, 0}
	var b grin.AdjBatch
	for name, g := range testStores() {
		for _, dir := range []graph.Direction{graph.Out, graph.In, graph.Both} {
			grin.ExpandBatch(g, frontier, dir, &b)
			if b.Len() != len(frontier) {
				t.Fatalf("%s dir=%v: batch frontier len %d, want %d", name, dir, b.Len(), len(frontier))
			}
			for i, v := range frontier {
				want := grin.CollectNeighbors(g, v, dir)
				lo, hi := b.Range(i)
				if hi-lo != len(want) {
					t.Fatalf("%s dir=%v v=%d: %d slots, want %d", name, dir, v, hi-lo, len(want))
				}
				for k, w := range want {
					if b.Nbrs[lo+k] != w.Nbr || b.Edges[lo+k] != w.Edge {
						t.Errorf("%s dir=%v v=%d slot %d: (%d,%d), want (%d,%d)",
							name, dir, v, k, b.Nbrs[lo+k], b.Edges[lo+k], w.Nbr, w.Edge)
					}
				}
			}
		}
	}
}

// TestNextLabelBatchWalksScanLabel checks that a cursor walk over
// NextLabelBatch yields exactly ScanLabel's vertex sequence for every label at
// every buffer size, on each of its paths: the ID walk, the index trait's
// label range and the batched scan trait.
func TestNextLabelBatchWalksScanLabel(t *testing.T) {
	for name, g := range labelStores(5) {
		for _, label := range []graph.LabelID{graph.AnyLabel, 0, 1} {
			var want []graph.VID
			grin.ScanLabel(g, label, func(v graph.VID) bool {
				want = append(want, v)
				return true
			})
			for _, bs := range []int{1, 2, 7} {
				if got := walkLabel(t, g, label, bs); !reflect.DeepEqual(got, want) {
					t.Errorf("%s label=%d buf=%d: sequence %v, want %v", name, label, bs, got, want)
				}
			}
		}
	}
}

// walkLabel collects a label's vertices by a cursor walk over NextLabelBatch
// with a bs-slot buffer.
func walkLabel(t *testing.T, g grin.Graph, label graph.LabelID, bs int) []graph.VID {
	t.Helper()
	got := []graph.VID{}
	buf := make([]graph.VID, bs)
	for at := graph.VID(0); ; {
		n, next := grin.NextLabelBatch(g, label, at, buf)
		got = append(got, buf[:n]...)
		if next == graph.NilVID {
			return got
		}
		if next <= at {
			t.Fatalf("label=%d buf=%d: cursor stuck at %d", label, bs, at)
		}
		at = next
	}
}

// propStore adds a minimal property trait over iterStore: label 0 for
// vertices 0-1 (with an int prop "x" = 10*vid), label 1 beyond.
type propStore struct {
	iterStore
	schema *graph.Schema
}

func (s *propStore) Schema() *graph.Schema { return s.schema }

func (s *propStore) VertexLabel(v graph.VID) graph.LabelID {
	if v < 2 {
		return 0
	}
	return 1
}

func (s *propStore) VertexProp(v graph.VID, p graph.PropID) (graph.Value, bool) {
	if s.VertexLabel(v) != 0 || p != 0 {
		return graph.NullValue, false
	}
	return graph.IntValue(int64(v) * 10), true
}

func (s *propStore) EdgeLabel(graph.EID) graph.LabelID { return 0 }

func (s *propStore) EdgeProp(graph.EID, graph.PropID) (graph.Value, bool) {
	return graph.NullValue, false
}

// TestGatherVertexPropFallback pins the generic gather's NULL semantics:
// NilVID slots and labels without the property gather as NULL, everything
// else matches the scalar property trait.
func TestGatherVertexPropFallback(t *testing.T) {
	schema := graph.NewSchema(
		[]graph.VertexLabel{
			{Name: "A", Props: []graph.PropDef{{Name: "x", Kind: graph.KindInt}}},
			{Name: "B"},
		},
		[]graph.EdgeLabel{{Name: "E", Src: 0, Dst: 0}},
	)
	g := &propStore{schema: schema}
	g.out = [][]grin.Target{nil, nil, nil}
	g.in = [][]grin.Target{nil, nil, nil}

	vs := []graph.VID{0, graph.NilVID, 2, 1}
	out := make([]graph.Value, len(vs))
	if err := grin.GatherVertexProp(g, vs, "x", out); err != nil {
		t.Fatal(err)
	}
	want := []graph.Value{graph.IntValue(0), graph.NullValue, graph.NullValue, graph.IntValue(10)}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("GatherVertexProp = %v, want %v", out, want)
	}

	labels := make([]graph.LabelID, len(vs))
	grin.GatherVertexLabels(g, vs, labels)
	wantL := []graph.LabelID{0, graph.AnyLabel, 1, 0}
	if !reflect.DeepEqual(labels, wantL) {
		t.Errorf("GatherVertexLabels = %v, want %v", labels, wantL)
	}
}

// rangedStore adds the index trait to propStore: each label's vertices are
// one contiguous ID range (label 0 below 2, label 1 from 2 on).
type rangedStore struct{ propStore }

func (s *rangedStore) LookupVertex(_ graph.LabelID, ext int64) (graph.VID, bool) {
	return graph.VID(ext), int(ext) < s.NumVertices()
}

func (s *rangedStore) ExternalID(v graph.VID) int64 { return int64(v) }

func (s *rangedStore) LabelRange(label graph.LabelID) (lo, hi graph.VID, ok bool) {
	n := graph.VID(s.NumVertices())
	switch label {
	case graph.AnyLabel:
		return 0, n, true
	case 0:
		return 0, 2, true
	case 1:
		return 2, n, true
	}
	return 0, 0, false
}

// scanStore adds the batched scan trait to propStore.
type scanStore struct{ propStore }

func (s *scanStore) ScanBatch(label graph.LabelID, start graph.VID, buf []graph.VID) (int, graph.VID) {
	n, v, end := 0, start, graph.VID(s.NumVertices())
	for ; v < end && n < len(buf); v++ {
		if label == graph.AnyLabel || s.VertexLabel(v) == label {
			buf[n] = v
			n++
		}
	}
	if v >= end {
		return n, graph.NilVID
	}
	return n, v
}

// labelStores builds an edgeless n-vertex labelled graph once for each of
// NextLabelBatch's paths.
func labelStores(n int) map[string]grin.Graph {
	p := propStore{iterStore{out: make([][]grin.Target, n), in: make([][]grin.Target, n)}, edgeSchema()}
	return map[string]grin.Graph{
		"walk":   &p,
		"ranged": &rangedStore{p},
		"scan":   &scanStore{p},
	}
}
