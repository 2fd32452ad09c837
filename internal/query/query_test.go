// Package query_test integration-tests the whole interactive stack: both
// parsers lower to the same IR, the optimizer's plans return the same rows
// as the naive interpreter, and Gaia/HiActor agree with both.
package query_test

import (
	"context"

	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/gremlin"
	"repro/internal/query/hiactor"
	"repro/internal/query/ir"
	"repro/internal/query/naive"
	"repro/internal/query/optimizer"
	"repro/internal/storage/vineyard"
)

// shopStore builds the Fig 2(e)/Fig 5 e-commerce store.
func shopStore(t *testing.T) *vineyard.Store {
	t.Helper()
	s := graph.NewSchema(
		[]graph.VertexLabel{
			{Name: "Buyer", Props: []graph.PropDef{{Name: "username", Kind: graph.KindString}, {Name: "credits", Kind: graph.KindInt}}},
			{Name: "Item", Props: []graph.PropDef{{Name: "price", Kind: graph.KindFloat}}},
		},
		[]graph.EdgeLabel{
			{Name: "Knows", Src: 0, Dst: 0},
			{Name: "Buy", Src: 0, Dst: 1, Props: []graph.PropDef{{Name: "date", Kind: graph.KindInt}}},
		},
	)
	b := graph.NewBatch(s)
	// Buyers 1..5, Items 10..13.
	names := []string{"A1", "B2", "C3", "D4", "E5"}
	for i, n := range names {
		b.AddVertex(0, int64(i+1), graph.StringValue(n), graph.IntValue(int64(i)))
	}
	for i := 0; i < 4; i++ {
		b.AddVertex(1, int64(10+i), graph.FloatValue(float64(10+i)+0.5))
	}
	// A1 knows B2, C3; B2 knows C3; D4 knows A1.
	b.AddEdge(0, 1, 2)
	b.AddEdge(0, 1, 3)
	b.AddEdge(0, 2, 3)
	b.AddEdge(0, 4, 1)
	// Purchases: B2 buys 10, 11; C3 buys 12; A1 buys 13; E5 buys 10.
	b.AddEdge(1, 2, 10, graph.IntValue(1))
	b.AddEdge(1, 2, 11, graph.IntValue(2))
	b.AddEdge(1, 3, 12, graph.IntValue(3))
	b.AddEdge(1, 1, 13, graph.IntValue(4))
	b.AddEdge(1, 5, 10, graph.IntValue(5))
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// canonical renders result rows as a sorted multiset for order-insensitive
// comparison.
func canonical(rows []exec.Row, out []string, g grin.Graph) []string {
	idx, _ := g.(grin.Index)
	var lines []string
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, v := range r {
			if v.K == graph.KindVertex && idx != nil {
				parts[i] = fmt.Sprintf("v(%d)", idx.ExternalID(v.Vertex()))
			} else {
				parts[i] = v.String()
			}
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	sort.Strings(lines)
	return lines
}

func mustEqual(t *testing.T, name string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: row counts differ: %d vs %d\na=%v\nb=%v", name, len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: row %d differs: %q vs %q", name, i, a[i], b[i])
		}
	}
}

// paperQueryCypher is the Fig 5 example adapted to the test schema.
const paperQueryCypher = `MATCH (a:Buyer)-[:Knows]->(b:Buyer), (b)-[:Buy]->(c:Item)
WHERE a.username = 'A1'
RETURN b.username, c.price`

// paperQueryGremlin is the same query in Gremlin.
const paperQueryGremlin = `g.V().hasLabel('Buyer').match(as('a').out('Knows').as('b'),
    as('b').out('Buy').as('c'))
 .filter(expr("a.username = 'A1'"))
 .select('b','c').by('username').by('price')`

func TestPaperExampleBothLanguagesAllEngines(t *testing.T) {
	st := shopStore(t)
	cplan, err := cypher.Parse(paperQueryCypher, st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	gplan, err := gremlin.Parse(paperQueryGremlin, st.Schema())
	if err != nil {
		t.Fatal(err)
	}

	// Expected: friends of A1 are B2 (buys 10.5, 11.5) and C3 (buys 12.5).
	want := []string{"B2|10.5", "B2|11.5", "C3|12.5"}

	// Naive on the raw logical plans.
	for name, plan := range map[string]*ir.Plan{"cypher": cplan, "gremlin": gplan} {
		rows, out, err := naive.Run(context.Background(), plan, st, nil)
		if err != nil {
			t.Fatalf("naive %s: %v", name, err)
		}
		mustEqual(t, "naive-"+name, canonical(rows, out, st), want)
	}

	// Gaia with full optimization.
	eng := gaia.NewEngine(st, gaia.Options{Parallelism: 4})
	for name, plan := range map[string]*ir.Plan{"cypher": cplan, "gremlin": gplan} {
		rows, out, err := eng.Submit(context.Background(), plan, nil)
		if err != nil {
			t.Fatalf("gaia %s: %v", name, err)
		}
		mustEqual(t, "gaia-"+name, canonical(rows, out, st), want)
	}

	// HiActor via stored procedure.
	he := hiactor.NewEngine(func() grin.Graph { return st }, hiactor.Options{Shards: 2})
	defer he.Close()
	if err := he.Install("q", cplan); err != nil {
		t.Fatal(err)
	}
	rows, err := he.Call(context.Background(), "q", nil)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := he.Procedure("q")
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "hiactor", canonical(rows, proc.Out, st), want)
}

func TestOptimizerRuleArmsAgree(t *testing.T) {
	st := shopStore(t)
	plan, err := cypher.Parse(paperQueryCypher, st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	eng := gaia.NewEngine(st, gaia.Options{Parallelism: 2})
	var ref []string
	arms := []optimizer.Options{
		optimizer.None(),
		{EdgeVertexFusion: true},
		{FilterPushIntoMatch: true},
		{CBO: true},
		optimizer.All(),
	}
	for i, arm := range arms {
		rows, out, err := submitWith(context.Background(), eng, st, plan, arm, exec.Request{})
		if err != nil {
			t.Fatalf("arm %d: %v", i, err)
		}
		got := canonical(rows, out, st)
		if i == 0 {
			ref = got
			continue
		}
		mustEqual(t, fmt.Sprintf("arm-%d", i), got, ref)
	}
}

func TestOptimizerPlanShapes(t *testing.T) {
	st := shopStore(t)
	plan, err := cypher.Parse(paperQueryCypher, st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	cat := optimizer.BuildCatalog(st)

	full, err := optimizer.Optimize(plan, cat, optimizer.All())
	if err != nil {
		t.Fatal(err)
	}
	s := full.String()
	if !strings.Contains(s, "EXPAND_FUSED") {
		t.Fatalf("fusion missing from optimized plan:\n%s", s)
	}
	if strings.Contains(s, "EXPAND_EDGE") {
		t.Fatalf("unfused expansion left in optimized plan:\n%s", s)
	}
	// Predicate pushed into the scan of 'a'.
	if !strings.Contains(s, "SCAN") || !strings.Contains(s, "username") {
		t.Fatalf("pushdown missing:\n%s", s)
	}

	unfused, err := optimizer.Optimize(plan, cat, optimizer.Options{FilterPushIntoMatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(unfused.String(), "EXPAND_EDGE") {
		t.Fatalf("fusion-off plan should contain EXPAND_EDGE:\n%s", unfused)
	}

	noPush, err := optimizer.Optimize(plan, cat, optimizer.Options{EdgeVertexFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(noPush.String(), "SELECT") {
		t.Fatalf("pushdown-off plan should keep SELECT:\n%s", noPush)
	}
}

func TestCypherAggregationAndOrder(t *testing.T) {
	st := shopStore(t)
	// Count purchases per buyer, descending.
	q := `MATCH (b:Buyer)-[:Buy]->(i:Item)
WITH b, COUNT(i) AS cnt
RETURN b.username AS name, cnt
ORDER BY cnt DESC, name
LIMIT 2`
	plan, err := cypher.Parse(q, st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	eng := gaia.NewEngine(st, gaia.Options{Parallelism: 3})
	rows, _, err := eng.Submit(context.Background(), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	// B2 has 2 purchases, everyone else 1; A1 sorts before C3/E5.
	if rows[0][0].Str() != "B2" || rows[0][1].Int() != 2 {
		t.Fatalf("top row wrong: %v", rows[0])
	}
	if rows[1][0].Str() != "A1" || rows[1][1].Int() != 1 {
		t.Fatalf("second row wrong: %v", rows[1])
	}
}

func TestCypherMultiMatchWithAggregation(t *testing.T) {
	st := shopStore(t)
	// Fraud-style shape: two MATCHes separated by WITH aggregation.
	q := `MATCH (a:Buyer {id: 1})-[:Knows]->(f:Buyer)
WITH a, COUNT(f) AS friends
MATCH (a)-[:Buy]->(i:Item)
RETURN friends, i.price`
	plan, err := cypher.Parse(q, st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	rowsN, outN, err := naive.Run(context.Background(), plan, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := gaia.NewEngine(st, gaia.Options{Parallelism: 2})
	rowsG, outG, err := eng.Submit(context.Background(), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"2|13.5"} // A1 has 2 friends and bought item 13 (price 13.5)
	mustEqual(t, "naive", canonical(rowsN, outN, st), want)
	mustEqual(t, "gaia", canonical(rowsG, outG, st), want)
}

func TestParameterizedProcedure(t *testing.T) {
	st := shopStore(t)
	q := `MATCH (a:Buyer)-[:Buy]->(i:Item)
WHERE id(a) = $buyer
RETURN i.price`
	plan, err := cypher.Parse(q, st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	he := hiactor.NewEngine(func() grin.Graph { return st }, hiactor.Options{Shards: 2})
	defer he.Close()
	if err := he.Install("purchases", plan); err != nil {
		t.Fatal(err)
	}
	for buyer, wantPrices := range map[int64][]string{
		2: {"10.5", "11.5"},
		3: {"12.5"},
		4: {},
	} {
		rows, err := he.Call(context.Background(), "purchases", map[string]graph.Value{"buyer": graph.IntValue(buyer)})
		if err != nil {
			t.Fatal(err)
		}
		got := canonical(rows, nil, st)
		sort.Strings(wantPrices)
		if len(got) != len(wantPrices) {
			t.Fatalf("buyer %d: got %v want %v", buyer, got, wantPrices)
		}
		for i := range got {
			if got[i] != wantPrices[i] {
				t.Fatalf("buyer %d: got %v want %v", buyer, got, wantPrices)
			}
		}
	}
	// Unknown procedure errors.
	if _, err := he.Call(context.Background(), "nope", nil); err == nil {
		t.Fatal("unknown procedure accepted")
	}
}

func TestGremlinSteps(t *testing.T) {
	st := shopStore(t)
	eng := gaia.NewEngine(st, gaia.Options{Parallelism: 2})

	cases := []struct {
		name string
		q    string
		want []string
	}{
		{
			name: "values",
			q:    `g.V().hasLabel('Buyer').has('username', 'A1').out('Knows').values('username')`,
			want: []string{"B2", "C3"},
		},
		{
			name: "count",
			q:    `g.V().hasLabel('Item').count()`,
			want: []string{"4"},
		},
		{
			name: "in-direction",
			q:    `g.V().hasLabel('Buyer').has('username', 'A1').in('Knows').values('username')`,
			want: []string{"D4"},
		},
		{
			name: "where-gt",
			q:    `g.V().hasLabel('Item').has('price', gt(11.0)).values('price')`,
			want: []string{"11.5", "12.5", "13.5"},
		},
		{
			name: "dedup",
			q:    `g.V().hasLabel('Buyer').out('Buy').in('Buy').dedup().values('username')`,
			want: []string{"A1", "B2", "C3", "E5"},
		},
		{
			name: "order-limit",
			q:    `g.V().hasLabel('Item').order().by('price', desc).limit(2).values('price')`,
			want: []string{"12.5", "13.5"},
		},
	}
	for _, tc := range cases {
		plan, err := gremlin.Parse(tc.q, st.Schema())
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		rows, out, err := eng.Submit(context.Background(), plan, nil)
		if err != nil {
			t.Fatalf("%s: run: %v", tc.name, err)
		}
		got := canonical(rows, out, st)
		sort.Strings(tc.want)
		mustEqual(t, tc.name, got, tc.want)

		// The naive engine must agree on the logical plan.
		rowsN, outN, err := naive.Run(context.Background(), plan, st, nil)
		if err != nil {
			t.Fatalf("%s: naive: %v", tc.name, err)
		}
		mustEqual(t, tc.name+"-naive", canonical(rowsN, outN, st), got)
	}
}

func TestParserErrors(t *testing.T) {
	st := shopStore(t)
	bad := []string{
		`MATCH (a:NoSuchLabel) RETURN a`,
		`MATCH (a:Buyer)-[:NoSuchEdge]->(b) RETURN a`,
		`MATCH (a:Buyer), (b:Item) RETURN a`, // cartesian
		`LIMIT abc`,
	}
	for _, q := range bad {
		if _, err := cypher.Parse(q, st.Schema()); err == nil {
			t.Errorf("cypher accepted %q", q)
		}
	}
	badG := []string{
		`V().out()`, // no g
		`g.V().hasLabel('Nope')`,
		`g.V().out('Nope')`,
		`g.V().fancyStep()`,
	}
	for _, q := range badG {
		if _, err := gremlin.Parse(q, st.Schema()); err == nil {
			t.Errorf("gremlin accepted %q", q)
		}
	}
}

func TestLargerGraphConsistency(t *testing.T) {
	// A bigger SNB store: all engines must agree on a 2-hop aggregate.
	st := snbFixture(150, 7).vineyard(t)
	q := `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:LIKES]->(po:Post)
WHERE id(p) = $pid
RETURN COUNT(po) AS c`
	plan, err := cypher.Parse(q, st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	eng := gaia.NewEngine(st, gaia.Options{Parallelism: 4})
	he := hiactor.NewEngine(func() grin.Graph { return st }, hiactor.Options{Shards: 2})
	defer he.Close()
	if err := he.Install("q", plan); err != nil {
		t.Fatal(err)
	}
	for pid := int64(0); pid < 20; pid++ {
		params := map[string]graph.Value{"pid": graph.IntValue(pid)}
		rowsN, _, err := naive.Run(context.Background(), plan, st, params)
		if err != nil {
			t.Fatal(err)
		}
		rowsG, _, err := eng.Submit(context.Background(), plan, params)
		if err != nil {
			t.Fatal(err)
		}
		rowsH, err := he.Call(context.Background(), "q", params)
		if err != nil {
			t.Fatal(err)
		}
		n := rowsN[0][0].Int()
		if rowsG[0][0].Int() != n || rowsH[0][0].Int() != n {
			t.Fatalf("pid %d: naive=%d gaia=%d hiactor=%d", pid, n, rowsG[0][0].Int(), rowsH[0][0].Int())
		}
	}
}
