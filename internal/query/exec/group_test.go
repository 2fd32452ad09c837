package exec_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/query/exec"
	"repro/internal/query/ir"
	"repro/internal/storage/vineyard"
)

// groupPlan is SCAN(a), one expansion from a, then a GROUP: keyed by a or
// global, COUNT(*) weighted by an EXPAND_DEGREE, or COUNT(b) and COUNT(*) over
// an EXPAND_FUSED that binds b.
func groupPlan(keyed, weighted bool) *ir.Plan {
	var expand, group *ir.Op
	if weighted {
		expand, group = degree("a", "b"), countStar(ir.DegreeAlias("b"))
	} else {
		expand = &ir.Op{Kind: ir.OpExpandFused, FromAlias: "a", Alias: "b", EdgeLabel: graph.AnyLabel, Label: graph.AnyLabel}
		group = &ir.Op{Kind: ir.OpGroupBy, Aggs: []ir.Aggregate{{Fn: "count", Arg: v("b"), Alias: "nb"}, {Fn: "count", Alias: "n"}}}
	}
	if keyed {
		group.GroupKeys = []ir.ProjItem{{Expr: v("a"), Alias: "a"}}
	}
	return &ir.Plan{Ops: []*ir.Op{scan("a"), expand, group}}
}

// splitStages returns a plan's GROUP(partial) and the barrier GROUP after it.
func splitStages(t *testing.T, c *exec.Compiled) (partial, barrier *exec.Stage) {
	t.Helper()
	names := c.StageNames()
	k := slices.Index(names, "GROUP(partial)")
	if k < 0 || k+1 >= len(names) || names[k+1] != "GROUP" {
		t.Fatalf("stages %v: no GROUP(partial) right before its GROUP", names)
	}
	return &c.Stages[k], &c.Stages[k+1]
}

// morsel hand-builds one input batch: AppendRow demotes a column when a value
// of another kind arrives and marks NULLs in the column's null bitmap.
func morsel(kinds []graph.Kind, sel []int32, rows ...[]graph.Value) *exec.Batch {
	b := exec.NewBatchKinds(kinds, 0)
	for _, r := range rows {
		b.AppendRow(r)
	}
	if sel != nil {
		b.SetSel(sel)
	}
	return b
}

func render(b *exec.Batch) string {
	var lines []string
	for _, r := range b.Rows() {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	return strings.Join(lines, "\n")
}

func vtx(id int) graph.Value { return graph.VertexValue(graph.VID(id)) }

// TestGroupPartialFallbackMatchesUnsplitFold feeds GROUP(partial) hand-built
// morsels — typed ones, one under a selection, an empty one, and the shapes
// its typed fold cannot read: a demoted key column, a NULL key, a boxed
// weight, a NULL or boxed COUNT argument — and checks that the barrier's merge
// of the partial rows is row-for-row the unsplit fold of the same rows, for
// keyed and global COUNTs, weighted and not. Typed morsels shrink to one row
// per group; the others pass through one row per input row.
func TestGroupPartialFallbackMatchesUnsplitFold(t *testing.T) {
	vw := []graph.Kind{graph.KindVertex, graph.KindInt} // a, #deg:b
	vb := []graph.Kind{graph.KindVertex, graph.KindVertex}
	boxed := []graph.Kind{graph.KindVertex, graph.KindNil}
	n, null := graph.IntValue, graph.NullValue
	type row = []graph.Value
	// A morsel's fault sends it through the fallback: "key" only where the
	// GROUP reads a key, "col" always.
	type m struct {
		b     *exec.Batch
		fault string
	}
	weightedMorsels := []m{
		{morsel(vw, nil, row{vtx(1), n(2)}, row{vtx(2), n(1)}, row{vtx(1), n(5)}, row{vtx(3), n(1)}), ""},
		{morsel(vw, nil, row{vtx(2), n(1)}, row{n(2), n(4)}, row{vtx(2), n(1)}), "key"}, // demoted key
		{morsel(vw, nil, row{vtx(1), n(1)}, row{null, n(3)}, row{vtx(1), n(2)}), "key"}, // NULL key
		{morsel(boxed, nil, row{vtx(3), n(7)}, row{vtx(3), n(1)}), "col"},               // boxed weight
		{morsel(vw, []int32{0, 2}, row{vtx(6), n(1)}, row{vtx(1), n(2)}, row{vtx(6), n(3)}), ""},
		{morsel(vw, nil), ""},
		{morsel(vw, nil, row{vtx(4), n(2)}, row{vtx(2), n(2)}, row{vtx(4), n(9)}), ""},
	}
	argMorsels := []m{
		{morsel(vb, nil, row{vtx(1), vtx(2)}, row{vtx(1), vtx(3)}, row{vtx(2), vtx(1)}), ""},
		{morsel(vb, nil, row{vtx(1), null}, row{vtx(2), vtx(4)}, row{vtx(1), vtx(5)}), ""},       // NULL argument
		{morsel(boxed, nil, row{vtx(3), null}, row{vtx(1), vtx(9)}, row{vtx(3), vtx(8)}), "col"}, // boxed argument
		{morsel(vb, nil, row{n(7), vtx(1)}, row{vtx(2), null}, row{n(7), vtx(2)}), "key"},        // demoted key
	}
	for _, tc := range []struct {
		name            string
		keyed, weighted bool
		morsels         []m
	}{
		{"keyed weighted", true, true, weightedMorsels},
		{"global weighted", false, true, weightedMorsels},
		{"keyed count(b) count(*)", true, false, argMorsels},
		{"global count(b) count(*)", false, false, argMorsels},
		{"global over nothing", false, true, nil},
		{"keyed over nothing", true, true, nil},
	} {
		c, err := exec.Compile(groupPlan(tc.keyed, tc.weighted), exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		u, err := exec.CompileUnsplit(groupPlan(tc.keyed, tc.weighted), exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(u.StageNames(), "GROUP(partial)") {
			t.Fatalf("%s: a GROUP after a barrier split: %v", tc.name, u.StageNames())
		}
		partial, barrier := splitStages(t, c)
		whole := &u.Stages[len(u.Stages)-1]
		inKinds := u.Stages[len(u.Stages)-2].OutLayout()

		env := &exec.Env{Arena: new(exec.Arena)}
		merged := exec.NewBatchKinds(partial.OutLayout(), 0)
		all := exec.NewBatchKinds(inKinds, 0)
		for i, mo := range tc.morsels {
			out := exec.NewBatchKinds(partial.OutLayout(), 0)
			if err := partial.RunMap(env, mo.b, out); err != nil {
				t.Fatalf("%s: morsel %d: %v", tc.name, i, err)
			}
			fallback := mo.fault == "col" || (tc.keyed && mo.fault == "key")
			if passed := out.Len() == mo.b.Len(); fallback && !passed {
				t.Errorf("%s: morsel %d: %d partial rows from %d, want one per input row", tc.name, i, out.Len(), mo.b.Len())
			} else if !fallback && mo.b.Len() > 2 && passed {
				t.Errorf("%s: morsel %d: %d partial rows from %d, want one per group", tc.name, i, out.Len(), mo.b.Len())
			}
			merged.AppendBatch(out)
			all.AppendBatch(mo.b)
		}
		got, err := barrier.RunBlocking(env, merged)
		if err != nil {
			t.Fatalf("%s: merge: %v", tc.name, err)
		}
		want, err := whole.RunBlocking(env, all)
		if err != nil {
			t.Fatalf("%s: unsplit: %v", tc.name, err)
		}
		if g, w := render(got), render(want); g != w {
			t.Errorf("%s: merged partial counts\n%s\nunsplit fold\n%s", tc.name, g, w)
		}
		if !tc.keyed && got.Len() != 1 {
			t.Errorf("%s: a global count gave %d rows", tc.name, got.Len())
		}
	}
}

// TestGroupPartialAllocatesNothingWarm: on a warmed arena and output batch,
// GROUP(partial) folds a typed morsel without a heap allocation, keyed or
// global, weighted or counting an argument.
func TestGroupPartialAllocatesNothingWarm(t *testing.T) {
	for _, tc := range []struct{ keyed, weighted bool }{{true, true}, {false, true}, {true, false}, {false, false}} {
		c, err := exec.Compile(groupPlan(tc.keyed, tc.weighted), exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		partial, _ := splitStages(t, c)
		in := exec.NewBatchKinds([]graph.Kind{graph.KindVertex, graph.KindInt}, 0)
		if !tc.weighted {
			in = exec.NewBatchKinds([]graph.Kind{graph.KindVertex, graph.KindVertex}, 0)
		}
		for i := 0; i < 300; i++ {
			second := graph.IntValue(int64(1 + i%4))
			if !tc.weighted {
				second = vtx(i)
			}
			in.AppendRow([]graph.Value{vtx(i * 7 % 53), second})
		}
		env := &exec.Env{Arena: new(exec.Arena)}
		out := exec.NewBatchKinds(partial.OutLayout(), 0)
		run := func() {
			out.Reset()
			if err := partial.Map(env, in, out); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("%+v: %.1f allocations per warm morsel", tc, allocs)
		}
	}
}

// TestGroupByBoolKey groups by a typed bool column. Bool payloads do not live
// in the int64 array the typed fold reads, so such a key takes the generic
// path (it once indexed a nil payload and failed with a panic error).
func TestGroupByBoolKey(t *testing.T) {
	s := graph.NewSchema([]graph.VertexLabel{{Name: "N", Props: []graph.PropDef{{Name: "flag", Kind: graph.KindBool}}}}, nil)
	b := graph.NewBatch(s)
	for i := 0; i < 10; i++ {
		b.AddVertex(0, int64(i), graph.BoolValue(i%3 == 0))
	}
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	plan := &ir.Plan{Ops: []*ir.Op{
		{Kind: ir.OpScan, Alias: "a", Label: 0},
		{Kind: ir.OpProject, Items: []ir.ProjItem{{Expr: prop("a", "flag"), Alias: "f"}}},
		{Kind: ir.OpGroupBy, GroupKeys: []ir.ProjItem{{Expr: v("f"), Alias: "f"}}, Aggs: []ir.Aggregate{{Fn: "count", Alias: "c"}}},
	}}
	c, err := exec.Compile(plan, exec.Options{Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	if k := c.Stages[1].OutKinds[0]; k != graph.KindBool {
		t.Fatalf("PROJECT types the flag %v, want a typed bool column", k)
	}
	rows, err := c.Run(context.Background(), &exec.Env{Graph: st})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, r[0].String()+"|"+r[1].String())
	}
	if want := []string{"true|4", "false|6"}; !slices.Equal(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
}
