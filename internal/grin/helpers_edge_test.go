package grin_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/grin"
)

// TestExpandBatchEmptyFrontier pins that a zero-length frontier is a no-op
// at every trait tier: the batch holds zero vertices and zero slots, even
// when it carried data from a previous expansion.
func TestExpandBatchEmptyFrontier(t *testing.T) {
	for name, g := range testStores() {
		var b grin.AdjBatch
		// Dirty the batch first so the empty expand must reset it.
		grin.ExpandBatch(g, []graph.VID{0, 1}, graph.Out, &b)
		if b.Len() == 0 {
			t.Fatalf("%s: warm-up expand produced an empty batch", name)
		}
		for _, frontier := range [][]graph.VID{nil, {}} {
			grin.ExpandBatch(g, frontier, graph.Both, &b)
			if b.Len() != 0 || len(b.Nbrs) != 0 {
				t.Errorf("%s: ExpandBatch(len %d frontier) left %d vertices, %d slots",
					name, len(frontier), b.Len(), len(b.Nbrs))
			}
		}
	}
}

// TestGatherWithoutPropertyTrait pins the error contract: a store with no
// property trait cannot gather properties — even for a zero-length frontier,
// matching scalar property access — while label gathers degrade to AnyLabel
// instead of failing (such stores have no label catalog).
func TestGatherWithoutPropertyTrait(t *testing.T) {
	g := testStores()["iterator"]
	for _, vs := range [][]graph.VID{nil, {0, 1}} {
		out := make([]graph.Value, len(vs))
		err := grin.GatherVertexProp(g, vs, "x", out)
		if err == nil || !strings.Contains(err.Error(), "lacks property trait") {
			t.Errorf("GatherVertexProp on bare store (len %d): err = %v, want property-trait error", len(vs), err)
		}
	}
	if err := grin.GatherEdgeProp(g, []graph.EID{0}, "w", make([]graph.Value, 1)); err == nil {
		t.Error("GatherEdgeProp on bare store: err = nil, want property-trait error")
	}

	labels := []graph.LabelID{99, 99}
	grin.GatherVertexLabels(g, []graph.VID{0, graph.NilVID}, labels)
	if labels[0] != graph.AnyLabel || labels[1] != graph.AnyLabel {
		t.Errorf("GatherVertexLabels on bare store = %v, want all AnyLabel", labels)
	}
	elabels := []graph.LabelID{99}
	grin.GatherEdgeLabels(g, []graph.EID{0}, elabels)
	if elabels[0] != graph.AnyLabel {
		t.Errorf("GatherEdgeLabels on bare store = %v, want AnyLabel", elabels)
	}
}

// edgeSchema builds the two-label schema the property-store fixtures use.
func edgeSchema() *graph.Schema {
	return graph.NewSchema(
		[]graph.VertexLabel{
			{Name: "A", Props: []graph.PropDef{{Name: "x", Kind: graph.KindInt}}},
			{Name: "B"},
		},
		[]graph.EdgeLabel{{Name: "E", Src: 0, Dst: 0}},
	)
}

// TestGatherUnknownProp pins that a property name absent from every label
// gathers as NULL for each slot rather than erroring: the column exists in
// the query, the store just has no values for it.
func TestGatherUnknownProp(t *testing.T) {
	g := &propStore{schema: edgeSchema()}
	g.out = [][]grin.Target{nil, nil, nil}
	g.in = [][]grin.Target{nil, nil, nil}

	vs := []graph.VID{0, 1, 2}
	out := make([]graph.Value, len(vs))
	if err := grin.GatherVertexProp(g, vs, "nosuch", out); err != nil {
		t.Fatal(err)
	}
	want := []graph.Value{graph.NullValue, graph.NullValue, graph.NullValue}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("GatherVertexProp(nosuch) = %v, want all NULL", out)
	}

	es := []graph.EID{0, graph.NilEID}
	eout := make([]graph.Value, len(es))
	if err := grin.GatherEdgeProp(g, es, "w", eout); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eout, []graph.Value{graph.NullValue, graph.NullValue}) {
		t.Errorf("GatherEdgeProp(unknown prop, NilEID) = %v, want all NULL", eout)
	}
}

// TestGatherZeroLength pins that zero-length gathers on a property-bearing
// store are no-ops: nil input and nil output are fine together.
func TestGatherZeroLength(t *testing.T) {
	g := &propStore{schema: edgeSchema()}
	g.out = [][]grin.Target{nil, nil, nil}
	g.in = [][]grin.Target{nil, nil, nil}
	if err := grin.GatherVertexProp(g, nil, "x", nil); err != nil {
		t.Errorf("GatherVertexProp(nil, nil) = %v, want nil", err)
	}
	if err := grin.GatherEdgeProp(g, nil, "w", nil); err != nil {
		t.Errorf("GatherEdgeProp(nil, nil) = %v, want nil", err)
	}
	grin.GatherVertexLabels(g, nil, nil)
	grin.GatherEdgeLabels(g, nil, nil)
}

// TestNextLabelBatchZeroBuf pins the empty-buffer guard: a zero-length
// buffer cannot hold a vertex, so the call reads nothing and hands the
// position back unchanged, on every path.
func TestNextLabelBatchZeroBuf(t *testing.T) {
	for name, g := range labelStores(5) {
		for _, buf := range [][]graph.VID{nil, {}} {
			if n, next := grin.NextLabelBatch(g, graph.AnyLabel, 1, buf); n != 0 || next != 1 {
				t.Errorf("%s: NextLabelBatch with empty buffer = (%d, %d), want (0, 1)", name, n, next)
			}
		}
	}
}

// TestNextLabelBatchUnknownLabel pins that a label no vertex carries reads
// nothing and ends the walk at once, on every path.
func TestNextLabelBatchUnknownLabel(t *testing.T) {
	for name, g := range labelStores(5) {
		if n, next := grin.NextLabelBatch(g, graph.LabelID(7), 0, make([]graph.VID, 4)); n != 0 || next != graph.NilVID {
			t.Errorf("%s: unknown label read (%d, %d), want (0, NilVID)", name, n, next)
		}
	}
}
