package exec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/query/exec"
	"repro/internal/query/expr"
	"repro/internal/query/ir"
)

// orderCols is the ORDER input layout of orderStage: typed int, vertex,
// string, float and bool columns named i, v, s, f and b.
var orderCols = []graph.Kind{graph.KindInt, graph.KindVertex, graph.KindString, graph.KindFloat, graph.KindBool}

// orderStage compiles SCAN, a PROJECT typing orderCols from the scanned
// vertex's properties, and an ORDER over keys, returning the ORDER stage.
func orderStage(t *testing.T, limit int, keys ...ir.SortKey) *exec.Stage {
	t.Helper()
	s := graph.NewSchema([]graph.VertexLabel{{Name: "N", Props: []graph.PropDef{
		{Name: "x", Kind: graph.KindInt}, {Name: "s", Kind: graph.KindString},
		{Name: "f", Kind: graph.KindFloat}, {Name: "b", Kind: graph.KindBool},
	}}}, nil)
	plan := &ir.Plan{Ops: []*ir.Op{
		{Kind: ir.OpScan, Alias: "a", Label: 0},
		{Kind: ir.OpProject, Items: []ir.ProjItem{
			{Expr: prop("a", "x"), Alias: "i"}, {Expr: v("a"), Alias: "v"}, {Expr: prop("a", "s"), Alias: "s"},
			{Expr: prop("a", "f"), Alias: "f"}, {Expr: prop("a", "b"), Alias: "b"},
		}},
		{Kind: ir.OpOrderBy, Keys: keys, Limit: limit},
	}}
	c, err := exec.Compile(plan, exec.Options{Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	st := &c.Stages[len(c.Stages)-1]
	if got := st.OutLayout(); !slices.Equal(got, orderCols) {
		t.Fatalf("ORDER input layout %v, want %v", got, orderCols)
	}
	return st
}

// orderRow draws one row of orderCols with heavy ties: three values per
// column (one NULL-free string among them is empty).
func orderRow(rng *rand.Rand) []graph.Value {
	return []graph.Value{
		graph.IntValue(int64(rng.Intn(3) - 1)),
		vtx(rng.Intn(3)),
		graph.StringValue([]string{"", "a", "ab"}[rng.Intn(3)]),
		graph.FloatValue([]float64{-1.5, 0, 2.5}[rng.Intn(3)]),
		graph.BoolValue(rng.Intn(2) == 0),
	}
}

// sortedRows is the test's own ORDER: the logical rows of a batch built from
// rows under sel, stably sorted by the keys (columns of orderCols) with
// Value.Compare, cut to limit when limit > 0, rendered as render does.
func sortedRows(rows [][]graph.Value, sel []int32, cols []int, desc []bool, limit int) string {
	var logical [][]graph.Value
	if sel == nil {
		logical = slices.Clone(rows)
	} else {
		for _, p := range sel {
			logical = append(logical, rows[p])
		}
	}
	slices.SortStableFunc(logical, func(a, b []graph.Value) int {
		for j, c := range cols {
			if d := a[c].Compare(b[c]); d != 0 {
				if desc[j] {
					return -d
				}
				return d
			}
		}
		return 0
	})
	if limit > 0 && limit < len(logical) {
		logical = logical[:limit]
	}
	return render(morsel(orderCols, nil, logical...))
}

// TestGeneratedOrderTypedMatchesBoxed runs seeded ORDERs over typed int,
// vertex and string key columns with heavy ties — every mix of ASC and DESC
// over one to three keys, no LIMIT and LIMIT 1, k, n and beyond n, with and
// without a selection — once over the typed batch, where every key compares
// raw payloads, and once over the same rows boxed, where every key compares
// with Value.Compare. Both must give the test's own stable sort, row for row.
func TestGeneratedOrderTypedMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(20261016))
	boxed := make([]graph.Kind, len(orderCols))
	env := &exec.Env{Arena: new(exec.Arena)}
	for trial := 0; trial < 400; trial++ {
		n := []int{0, 1, 2, 3, 8, 33, 100}[rng.Intn(7)]
		rows := make([][]graph.Value, n)
		for i := range rows {
			rows[i] = orderRow(rng)
		}
		var sel []int32
		if rng.Intn(2) == 0 {
			sel = []int32{}
			for p := 0; p < n; p++ {
				if rng.Intn(3) > 0 {
					sel = append(sel, int32(p))
				}
			}
		}
		cols := rng.Perm(3)[:1+rng.Intn(3)] // i, v, s in some order
		desc := make([]bool, len(cols))
		keys := make([]ir.SortKey, len(cols))
		for j, c := range cols {
			desc[j] = rng.Intn(2) == 0
			keys[j] = ir.SortKey{Expr: v([]string{"i", "v", "s"}[c]), Desc: desc[j]}
		}
		logical := n
		if sel != nil {
			logical = len(sel)
		}
		limit := []int{0, 1, 1 + rng.Intn(max(logical, 1)), logical, logical + 3}[rng.Intn(5)]
		st := orderStage(t, limit, keys...)
		want := sortedRows(rows, sel, cols, desc, limit)
		name := fmt.Sprintf("trial %d: %d rows, sel %v, keys %v desc %v, limit %d", trial, n, sel != nil, cols, desc, limit)
		for _, layout := range []struct {
			kinds []graph.Kind
			typed bool
		}{{orderCols, true}, {boxed, false}} {
			got, err := st.RunBlocking(env, morsel(layout.kinds, sel, rows...))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if g := render(got); g != want {
				t.Fatalf("%s, typed %v:\n%s\nwant\n%s", name, layout.typed, g, want)
			}
			for j, typed := range env.Arena.OrderKeysTyped() {
				if typed != layout.typed {
					t.Fatalf("%s: key %d compared typed=%v over a batch with typed=%v columns", name, j, typed, layout.typed)
				}
			}
		}
	}
}

// TestOrderFallbackKeys: float, bool, NULL-carrying, boxed and expression
// keys compare boxed — each beside a typed int key that still compares raw —
// and every order is the test's own.
func TestOrderFallbackKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]graph.Value, 60)
	for i := range rows {
		rows[i] = orderRow(rng)
	}
	withNull := slices.Clone(rows)
	withNull[17] = slices.Clone(rows[17])
	withNull[17][3] = graph.NullValue // a NULL float row
	withNull[23] = slices.Clone(rows[23])
	withNull[23][2] = graph.NullValue // a NULL string row
	boxedS := slices.Clone(orderCols)
	boxedS[2] = graph.KindNil
	plus0 := expr.Binary(expr.OpAdd, v("i"), expr.Literal(graph.IntValue(0)))
	env := &exec.Env{Arena: new(exec.Arena)}
	for _, tc := range []struct {
		name  string
		kinds []graph.Kind
		rows  [][]graph.Value
		key   ir.SortKey
		col   int // the column the key reads, for the test's own sort
	}{
		{"float", orderCols, rows, ir.SortKey{Expr: v("f")}, 3},
		{"bool", orderCols, rows, ir.SortKey{Expr: v("b"), Desc: true}, 4},
		{"NULL-carrying float", orderCols, withNull, ir.SortKey{Expr: v("f")}, 3},
		{"NULL-carrying string", orderCols, withNull, ir.SortKey{Expr: v("s"), Desc: true}, 2},
		{"boxed string", boxedS, rows, ir.SortKey{Expr: v("s")}, 2},
		{"expression", orderCols, rows, ir.SortKey{Expr: plus0, Desc: true}, 0},
	} {
		for _, limit := range []int{0, 5} {
			st := orderStage(t, limit, ir.SortKey{Expr: v("v"), Desc: true}, tc.key, ir.SortKey{Expr: v("i")})
			got, err := st.RunBlocking(env, morsel(tc.kinds, nil, tc.rows...))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if g, w := render(got), sortedRows(tc.rows, nil, []int{1, tc.col, 0}, []bool{true, tc.key.Desc, false}, limit); g != w {
				t.Errorf("%s limit %d:\n%s\nwant\n%s", tc.name, limit, g, w)
			}
			if typed := env.Arena.OrderKeysTyped(); !slices.Equal(typed, []bool{true, false, true}) {
				t.Errorf("%s: keys compared typed %v, want only the vertex and int keys typed", tc.name, typed)
			}
		}
	}
}

// TestOrderAllocatesOnlyItsOutputWarm: on a warmed arena, ORDER — typed keys
// or bare boxed ones, sorting everything or selecting a top k — allocates what
// building its output batch allocates, and nothing else: its key values,
// permutation and physical rows live on the arena.
func TestOrderAllocatesOnlyItsOutputWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]graph.Value, 300)
	for i := range rows {
		rows[i] = orderRow(rng)
	}
	in := morsel(orderCols, nil, rows...)
	for _, tc := range []struct {
		name  string
		limit int
		keys  []ir.SortKey
	}{
		{"typed", 0, []ir.SortKey{{Expr: v("s")}, {Expr: v("i"), Desc: true}}},
		{"typed top-k", 10, []ir.SortKey{{Expr: v("v"), Desc: true}, {Expr: v("s")}}},
		{"boxed", 0, []ir.SortKey{{Expr: v("f")}, {Expr: v("b")}}},
		{"boxed top-k", 10, []ir.SortKey{{Expr: v("b")}, {Expr: v("i")}}},
	} {
		st := orderStage(t, tc.limit, tc.keys...)
		env := &exec.Env{Arena: new(exec.Arena)}
		var out *exec.Batch
		run := func() {
			var err error
			if out, err = st.RunBlocking(env, in); err != nil {
				t.Fatal(err)
			}
		}
		run()
		k := out.Len()
		// The output alone: the same column layout gathered from k rows.
		firstK := make([]int32, k)
		for i := range firstK {
			firstK[i] = int32(i)
		}
		ref := morsel(orderCols, firstK, rows...)
		gather := func() { exec.NewBatchKinds(orderCols, 0).AppendBatch(ref) }
		want := testing.AllocsPerRun(50, gather)
		if got := testing.AllocsPerRun(50, run); got != want {
			t.Errorf("%s: %.1f allocations per warm ORDER of %d rows into %d, building the output alone takes %.1f", tc.name, got, in.Len(), k, want)
		}
	}
}
