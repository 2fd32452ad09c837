// Generated parity for the EXPAND_DEGREE fold: a seeded generator of
// count-shaped queries over the SNB schema, each carrying its own prediction
// of whether the fold must fire, run on every engine × backend × batch size ×
// parallelism, behind and in front of the chaos wrapper's trait mask (and, on
// vineyard, with its label-segmented adjacency hidden from the engines), and
// compared as multisets with naive — which interprets the logical plan and
// never sees the rewritten operator.
package query_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/gremlin"
	"repro/internal/query/hiactor"
	"repro/internal/query/ir"
	"repro/internal/query/naive"
	"repro/internal/query/obsv"
	"repro/internal/query/optimizer"
	"repro/internal/query/procedures"
	"repro/internal/storage/vineyard"
)

// countQuery is one generated query with the generator's own verdict.
type countQuery struct {
	text string
	// fold: the plan must contain exactly one EXPAND_DEGREE (else none).
	fold bool
	// props: the query reads properties, which a topology-only store cannot
	// serve.
	props bool
	// match is the query's MATCH and WHERE; key the grouped vertex ("" for a
	// global count), counted the COUNT's argument ("*" or a vertex).
	match, key, counted string
}

// intProp names one int property per SNB vertex label that has any.
var intProp = map[string]string{"Person": "birthday", "Forum": "creationDate", "Post": "length", "Comment": "length"}

// edgeProp names the property of the SNB edge labels that carry one.
var edgeProp = map[string]string{"KNOWS": "creationDate", "HAS_MEMBER": "joinDate", "LIKES": "creationDate"}

// genCountQuery draws one count-shaped query: a chain of 1–3 hops over the
// SNB schema, COUNT over the last vertex, a middle one, the first or `*`,
// grouped by some vertex or global, optionally with an edge alias (referenced
// or not), a predicate on a chain end, and a residual two-alias predicate
// between the MATCH and the aggregation. The fold verdict restates the rule
// from the query's own parts: some end of the chain (the counted one, under
// COUNT(alias)) is touched by nothing but the COUNT.
func genCountQuery(rng *rand.Rand, schema *graph.Schema) countQuery {
	hops := 1 + rng.Intn(3)
	labels := []string{schema.Vertices[rng.Intn(len(schema.Vertices))].Name}
	var pattern strings.Builder
	fmt.Fprintf(&pattern, "(v0:%s)", labels[0])
	aliasedHop := -1
	if rng.Intn(2) == 0 {
		aliasedHop = rng.Intn(hops)
	}
	aliasedEdge := ""
	for h := 0; h < hops; h++ {
		cur := labels[len(labels)-1]
		type step struct {
			edge, next string
			fwd        bool
		}
		var steps []step
		for _, e := range schema.Edges {
			if schema.Vertices[e.Src].Name == cur {
				steps = append(steps, step{e.Name, schema.Vertices[e.Dst].Name, true})
			}
			if schema.Vertices[e.Dst].Name == cur {
				steps = append(steps, step{e.Name, schema.Vertices[e.Src].Name, false})
			}
		}
		s := steps[rng.Intn(len(steps))]
		ealias := ""
		if h == aliasedHop {
			ealias, aliasedEdge = "e", s.edge
		}
		if s.fwd {
			fmt.Fprintf(&pattern, "-[%s:%s]->", ealias, s.edge)
		} else {
			fmt.Fprintf(&pattern, "<-[%s:%s]-", ealias, s.edge)
		}
		labels = append(labels, s.next)
		fmt.Fprintf(&pattern, "(v%d:%s)", h+1, s.next)
	}
	last := hops
	v := func(i int) string { return fmt.Sprintf("v%d", i) }

	// touched[i]: something other than the COUNT references vertex i, or the
	// aliased edge next to it.
	touched := make([]bool, hops+1)
	props := false
	var where []string
	if rng.Intn(3) == 0 { // a predicate on a chain end, pushed into the pattern
		end := []int{0, last}[rng.Intn(2)]
		if p, ok := intProp[labels[end]]; ok {
			where = append(where, fmt.Sprintf("%s.%s > 3", v(end), p))
		} else {
			where = append(where, fmt.Sprintf("%s.name <> 'music'", v(end)))
		}
		touched[end], props = true, true
	}
	if rng.Intn(3) == 0 { // a residual predicate over two vertices
		a, b := rng.Intn(hops+1), rng.Intn(hops+1)
		if a != b {
			where = append(where, fmt.Sprintf("id(%s) <> id(%s)", v(a), v(b)))
			touched[a], touched[b] = true, true
		}
	}
	if p, ok := edgeProp[aliasedEdge]; ok && rng.Intn(2) == 0 { // the edge alias, referenced
		where = append(where, fmt.Sprintf("e.%s > 0", p))
		touched[aliasedHop], touched[aliasedHop+1], props = true, true, true
	}

	target := []int{last, last, last, 0, hops / 2, -1}[rng.Intn(6)] // −1: COUNT(*)
	counted := "*"
	if target >= 0 {
		counted = v(target)
	}
	match := "MATCH " + pattern.String()
	if len(where) > 0 {
		match += "\nWHERE " + strings.Join(where, " AND ")
	}
	text, key := match, ""
	switch rng.Intn(3) {
	case 0: // global
		text += fmt.Sprintf("\nRETURN COUNT(%s) AS c", counted)
	case 1: // bare vertex key: the typed aggregation path
		k := rng.Intn(hops + 1)
		touched[k], key = true, v(k)
		text += fmt.Sprintf("\nWITH %s, COUNT(%s) AS c\nRETURN id(%s) AS k, c", v(k), counted, v(k))
	default: // computed key: the generic path
		k := rng.Intn(hops + 1)
		touched[k], key = true, v(k)
		text += fmt.Sprintf("\nRETURN id(%s) AS k, COUNT(%s) AS c", v(k), counted)
	}
	fold := false
	for _, end := range []int{0, last} {
		if !touched[end] && (target < 0 || target == end) {
			fold = true
		}
	}
	return countQuery{text: text, fold: fold, props: props, match: match, key: key, counted: counted}
}

// foldCount returns how many EXPAND_DEGREE operators a physical plan holds.
func foldCount(p *ir.Plan) int {
	n := 0
	for _, op := range p.Ops {
		if op.Kind == ir.OpExpandDegree {
			n++
		}
	}
	return n
}

// viaHops returns how many hops the EXPAND_DEGREE operators of a physical
// plan walk before the ones they count.
func viaHops(p *ir.Plan) int {
	n := 0
	for _, op := range p.Ops {
		n += len(op.Via)
	}
	return n
}

// stageStats is what a serial run's stages did, minus what only says how: the
// wall times, and the adjacency slots the store handed over — the one number
// a store's layout is allowed to change.
func stageStats(obs *obsv.QueryStats) []obsv.StageSnapshot {
	out := obs.Deterministic()
	for i := range out {
		out[i].Slots = 0
	}
	return out
}

// TestGeneratedCountFoldParity is the generated matrix. Every query's verdict
// is checked against the optimizer (the plan compiles, with exactly one
// EXPAND_DEGREE when eligible, none otherwise), then every engine must return
// naive's multiset.
func TestGeneratedCountFoldParity(t *testing.T) {
	schema := dataset.SNBSchema()
	f := snbFixture(16, 4)
	cells := grid{
		stores: []string{"vineyard", "gart", "livegraph"},
		views:  []view{bareView, chaosView, unsegmentedView},
		runs:   runHiActor | runSerial,
	}.cells(t, f)

	rng := rand.New(rand.NewSource(20260926))
	var queries []countQuery
	folds := 0
	for len(queries) < 48 {
		q := genCountQuery(rng, schema)
		queries = append(queries, q)
		if q.fold {
			folds++
		}
	}
	if folds < 12 || folds > 36 {
		t.Fatalf("%d of %d generated queries fold; the generator covers one side only", folds, len(queries))
	}
	cat := optimizer.BuildCatalog(f.store(t, "vineyard"))
	for qi, q := range queries {
		plan, err := cypher.Parse(q.text, schema)
		if err != nil {
			t.Fatalf("query %d: %v\n%s", qi, err, q.text)
		}
		phys, err := optimizer.Optimize(plan, cat, optimizer.All())
		if err != nil {
			t.Fatalf("query %d: %v\n%s", qi, err, q.text)
		}
		if _, err := exec.Compile(phys, exec.Options{}); err != nil {
			t.Fatalf("query %d: %v\n%s\n%s", qi, err, q.text, phys)
		}
		if got, want := foldCount(phys), map[bool]int{true: 1, false: 0}[q.fold]; got != want {
			t.Fatalf("query %d: %d EXPAND_DEGREE, generator expects %d\n%s\n%s", qi, got, want, q.text, phys)
		}
		want := map[string]string{}
		stats := map[string][]obsv.StageSnapshot{}
		for _, c := range cells {
			if q.props && c.store == "livegraph" {
				continue
			}
			ref, ok := want[c.store]
			if !ok {
				rows, out := f.ref(t, c.store, plan, q.text, nil)
				ref = strings.Join(canonical(rows, out, c.st), "\n")
				want[c.store] = ref
			}
			for _, a := range c.run(plan, exec.Request{}, nil) {
				if a.err != nil {
					t.Fatalf("query %d %s on %s: %v\n%s", qi, a, c, a.err, q.text)
				}
				if got := strings.Join(canonical(a.rows, a.out, c.st), "\n"); got != ref {
					t.Fatalf("query %d %s on %s:\n%s\ngot\n%s\nwant\n%s", qi, a, c, q.text, got, ref)
				}
				// Whether the store's label segments or the skeleton filters by
				// edge label, the serial driver's stages see the same rows in
				// the same batches (the chaos view differs by design: it
				// gathers boxed).
				if a.engine != "serial" || c.view == "chaos" {
					continue
				}
				key := fmt.Sprintf("%s bs=%d", c.store, c.bs)
				if ref, ok := stats[key]; !ok {
					stats[key] = stageStats(a.obs)
				} else if got := stageStats(a.obs); !reflect.DeepEqual(got, ref) {
					t.Fatalf("query %d serial on %s: stage stats\n%+v\nanother view of the store gave\n%+v\n%s", qi, c, got, ref, q.text)
				}
			}
		}
	}
}

// TestCountFoldFiresOnTheListedShapes pins the rule on the benchmark's own
// queries — the 14 BI and 2 interactive ones that end in COUNT(leaf); C5
// counts the middle vertex of its chain and must not fold — with how many
// hops before the counted one each EXPAND_DEGREE absorbs, on the
// must-not-fold neighbors of that shape and of the inward fold, and on
// Gremlin's out().count() through the shared IR.
func TestCountFoldFiresOnTheListedShapes(t *testing.T) {
	schema := dataset.SNBSchema()
	st := snbFixture(60, 4).vineyard(t)
	cat := optimizer.BuildCatalog(st)
	// folds reports whether the plan folds, and how many hops its
	// EXPAND_DEGREE walks before the counted one.
	folds := func(p *ir.Plan) (bool, int) {
		t.Helper()
		phys, err := optimizer.Optimize(p, cat, optimizer.All())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Compile(phys, exec.Options{}); err != nil {
			t.Fatalf("%v\n%s", err, phys)
		}
		return foldCount(phys) == 1, viaHops(phys)
	}
	want := map[string]bool{}
	for _, name := range []string{"BI2", "BI4", "BI5", "BI7", "BI8", "BI10", "BI11", "BI13", "BI14", "BI16", "BI17", "BI18", "BI19", "BI20", "C10", "C13"} {
		want[name] = true
	}
	wantHops := map[string]int{"BI18": 2}
	for _, name := range []string{"BI5", "BI7", "BI13", "BI14", "BI17", "BI19", "BI20", "C13"} {
		wantHops[name] = 1
	}
	for _, q := range append(procedures.BI(), procedures.Interactive()...) {
		plan, err := cypher.Parse(q.Cypher, schema)
		if err != nil {
			t.Fatal(err)
		}
		if got, hops := folds(plan); got != want[q.Name] || hops != wantHops[q.Name] {
			t.Errorf("%s: fold=%v over %d hops, want %v over %d\n%s", q.Name, got, hops, want[q.Name], wantHops[q.Name], q.Cypher)
		}
		// Without EdgeVertexFusion there is no EXPAND_FUSED to rewrite: the
		// rule ablation's unoptimized arm never sees the operator.
		unfused, err := optimizer.Optimize(plan, cat, optimizer.Options{FilterPushIntoMatch: true, CBO: true})
		if err != nil {
			t.Fatal(err)
		}
		if foldCount(unfused) != 0 {
			t.Errorf("%s: folded without EdgeVertexFusion\n%s", q.Name, unfused)
		}
	}
	// The inward fold's shapes: BI14's chain, whose middle vertex p2 exists
	// only to be expanded into the counted m, and its neighbors where
	// something else needs p2 — the leaf still folds, the hop before it not.
	const chain = `MATCH (p1:Person)-[k:KNOWS]->(p2:Person)<-[:HAS_CREATOR]-(m:Post)`
	for _, tc := range []struct {
		name, lang, q string
		fold          bool
		hops          int
	}{
		{"leaf-count", "cypher", `MATCH (p:Person)-[:KNOWS]->(f:Person) WITH p, COUNT(f) AS c RETURN id(p), c`, true, 0},
		{"count-star", "cypher", `MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN COUNT(*) AS c`, true, 0},
		{"unreferenced-edge-alias", "cypher", `MATCH (p:Person)-[k:KNOWS]->(f:Person) WITH p, COUNT(f) AS c RETURN id(p), c`, true, 0},
		{"residual-elsewhere", "cypher", `MATCH (fo:Forum)-[:HAS_MEMBER]->(p:Person)-[:KNOWS]->(f:Person) WHERE id(fo) <> id(p) WITH p, COUNT(f) AS c RETURN id(p), c`, true, 0},
		{"gremlin-out-count", "gremlin", `g.V().hasLabel('Person').out('KNOWS').count()`, true, 0},
		{"gremlin-path-count", "gremlin", `g.V().hasLabel('Person').out('KNOWS').out('KNOWS').count()`, true, 1},
		{"path-count", "cypher", chain + ` WITH p1, COUNT(m) AS c RETURN id(p1), c`, true, 1},
		{"path-count-star", "cypher", chain + ` RETURN COUNT(*) AS c`, true, 1},
		{"predicate-on-middle", "cypher", chain + ` WHERE p2.birthday > 3 WITH p1, COUNT(m) AS c RETURN id(p1), c`, true, 0},
		{"middle-is-the-key", "cypher", chain + ` WITH p2, COUNT(m) AS c RETURN id(p2), c`, true, 0},
		{"referenced-middle-edge-alias", "cypher", chain + ` WHERE k.creationDate > 0 WITH p1, COUNT(m) AS c RETURN id(p1), c`, true, 0},
		{"residual-on-middle", "cypher", chain + ` WHERE id(p1) <> id(p2) WITH p1, COUNT(m) AS c RETURN id(p1), c`, true, 0},
		{"second-expansion-from-middle", "cypher", chain + `, (p2)-[:IS_LOCATED_IN]->(pl:Place) WITH p1, COUNT(m) AS c RETURN id(p1), c`, true, 0},
		{"predicate-on-leaf", "cypher", `MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE f.birthday > 3 WITH p, COUNT(f) AS c RETURN id(p), c`, false, 0},
		{"leaf-in-return", "cypher", `MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN id(f) AS k, COUNT(f) AS c`, false, 0},
		{"count-middle", "cypher", `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person) WITH p, COUNT(f) AS c RETURN id(p), c`, false, 0},
		{"referenced-edge-alias", "cypher", `MATCH (p:Person)-[k:KNOWS]->(f:Person) WHERE k.creationDate > 0 WITH p, COUNT(f) AS c RETURN id(p), c`, false, 0},
		{"residual-on-leaf", "cypher", `MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE id(p) <> id(f) WITH p, COUNT(f) AS c RETURN id(p), c`, false, 0},
		{"other-aggregate", "cypher", `MATCH (p:Person)-[:KNOWS]->(f:Person) WITH p, COUNT(f) AS c, max(f.birthday) AS b RETURN id(p), c, b`, false, 0},
		{"count-property", "cypher", `MATCH (p:Person)-[:KNOWS]->(f:Person) WITH p, COUNT(f.birthday) AS c RETURN id(p), c`, false, 0},
		{"limit-in-between", "cypher", `MATCH (p:Person)-[:KNOWS]->(f:Person) WITH p, f LIMIT 5 RETURN COUNT(f) AS c`, false, 0},
		{"gremlin-dedup-count", "gremlin", `g.V().hasLabel('Person').out('KNOWS').dedup().count()`, false, 0},
	} {
		var plan *ir.Plan
		var err error
		if tc.lang == "gremlin" {
			plan, err = gremlin.Parse(tc.q, schema)
		} else {
			plan, err = cypher.Parse(tc.q, schema)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, hops := folds(plan); got != tc.fold || hops != tc.hops {
			t.Errorf("%s: fold=%v over %d hops, want %v over %d\n%s", tc.name, got, hops, tc.fold, tc.hops, tc.q)
		}
	}
}

// TestGlobalAggregateOverEmptyInput: an aggregation with no grouping keys
// returns exactly one row even when nothing matched — COUNT 0, SUM 0, AVG,
// MIN and MAX NULL, COLLECT [] — on every engine, folded (COUNT alone) or not.
func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	defer query.CheckLeaks(t)()
	schema := dataset.SNBSchema()
	st := snbFixture(60, 4).vineyard(t)
	for _, tc := range []struct{ q, want string }{
		{`MATCH (t:Tag)<-[:HAS_TAG]-(m:Post) WHERE t.name = "nonexistent" RETURN COUNT(m) AS c`, "0"},
		{`MATCH (t:Tag)<-[:HAS_TAG]-(m:Post) WHERE t.name = "nonexistent"
RETURN COUNT(m) AS c, COUNT(*) AS n, sum(m.length) AS s, avg(m.length) AS a, min(m.length) AS lo, max(m.length) AS hi, collect(m.length) AS l`,
			"0|0|0|null|null|null|[]"},
		{`MATCH (p:Person) WHERE p.firstName = "nonexistent" RETURN COUNT(p) AS c, avg(p.birthday) AS a`, "0|null"},
		// With a grouping key there is no group, so no row.
		{`MATCH (t:Tag)<-[:HAS_TAG]-(m:Post) WHERE t.name = "nonexistent" RETURN t.name, COUNT(m) AS c`, ""},
	} {
		plan, err := cypher.Parse(tc.q, schema)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		if tc.want != "" {
			want = []string{tc.want}
		}
		check := func(engine string, rows []exec.Row, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v\n%s", engine, err, tc.q)
			}
			mustExactEqual(t, engine+": "+tc.q, renderRows(rows), want)
		}
		rows, _, err := naive.Run(context.Background(), plan, st, nil)
		check("naive", rows, err)
		for _, par := range []int{1, 2} {
			rows, _, err = gaia.NewEngine(st, gaia.Options{Parallelism: par}).Submit(context.Background(), plan, nil)
			check("gaia", rows, err)
		}
		he := hiactor.NewEngine(func() grin.Graph { return st }, hiactor.Options{Shards: 2})
		rows, _, err = submit(context.Background(), he, plan, exec.Request{})
		he.Close()
		check("hiactor", rows, err)
	}
}

// cancelingStore fires a cancellation from inside its nth expansion call,
// labelled (vineyard serves grin.LabelAdjacency) or not.
type cancelingStore struct {
	*vineyard.Store
	calls  atomic.Int64
	at     int64
	cancel context.CancelFunc
}

func (c *cancelingStore) ExpandBatch(frontier []graph.VID, dir graph.Direction, out *grin.AdjBatch) {
	if c.calls.Add(1) == c.at {
		c.cancel()
	}
	c.Store.ExpandBatch(frontier, dir, out)
}

func (c *cancelingStore) ExpandLabelBatch(frontier []graph.VID, dir graph.Direction, elabel graph.LabelID, out *grin.AdjBatch) bool {
	if c.calls.Add(1) == c.at {
		c.cancel()
	}
	return c.Store.ExpandLabelBatch(frontier, dir, elabel, out)
}

// TestHubExpansionCancelsWithinAChunk: on Gaia, a context fired while a
// worker is inside a wide morsel — one batch whose second hop scans 27 M
// adjacency slots in hundreds of chunks and emits nothing — ends the query
// with ErrCanceled after at most one more chunk per worker, and every
// goroutine unwinds.
func TestHubExpansionCancelsWithinAChunk(t *testing.T) {
	defer query.CheckLeaks(t)()
	// A complete digraph on n A-vertices beside 2n B vertices nothing points
	// at (too many to be the cheaper scan): (a:A)->(b:A)->(c:B) walks n² rows
	// into n³ slots and keeps none.
	const n = 300
	schema := graph.NewSchema(
		[]graph.VertexLabel{{Name: "A"}, {Name: "B"}},
		[]graph.EdgeLabel{{Name: "E", Src: graph.AnyLabel, Dst: graph.AnyLabel}},
	)
	b := graph.NewBatch(schema)
	for v := 0; v < n; v++ {
		b.AddVertex(0, int64(v))
	}
	for v := n; v < 3*n; v++ {
		b.AddVertex(1, int64(v))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			b.AddEdge(0, int64(u), int64(v))
		}
	}
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cypher.Parse(`MATCH (a:A)-[:E]->(b:A)-[:E]->(c:B) RETURN id(a), id(c)`, schema)
	if err != nil {
		t.Fatal(err)
	}
	const par, at = 2, 6
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancelingStore{Store: st, at: at, cancel: cancel}
	eng := gaia.NewEngine(cs, gaia.Options{Parallelism: par})
	_, _, err = submit(ctx, eng, plan, exec.Request{BatchSize: 1 << 16})
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("error %v, want ErrCanceled", err)
	}
	if got := cs.calls.Load(); got > at+par {
		t.Fatalf("%d store calls after a cancellation at call %d with %d workers", got, at, par)
	}
}

// TestCountFoldUnderEveryRuleSubset runs count-shaped queries under all eight
// subsets of the optimizer's rules (the Fig 7e ablation drives Gaia this way).
// Without the CBO the counted expansion can land before another expansion,
// which then carries the weight column; every subset must return naive's
// multiset, and only the subsets with EdgeVertexFusion may fold.
func TestCountFoldUnderEveryRuleSubset(t *testing.T) {
	defer query.CheckLeaks(t)()
	schema := dataset.SNBSchema()
	st := snbFixture(40, 4).vineyard(t)
	eng := gaia.NewEngine(st, gaia.Options{Parallelism: 2})
	for _, q := range []string{
		`MATCH (p:Person)-[:KNOWS]->(f:Person), (p)-[:IS_LOCATED_IN]->(pl:Place) RETURN pl.name, COUNT(f) AS c`,
		`MATCH (p:Person)-[:KNOWS]->(f:Person), (p)-[:IS_LOCATED_IN]->(pl:Place) WHERE pl.name <> 'Berlin' RETURN COUNT(*) AS c`,
		`MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post)<-[:LIKES]-(liker:Person) WITH p, COUNT(liker) AS likes RETURN id(p), likes`,
		`MATCH (fo:Forum)-[:HAS_MEMBER]->(p:Person)-[:KNOWS]->(f:Person) WHERE id(fo) <> id(p) WITH p, COUNT(f) AS c RETURN id(p), c`,
	} {
		plan, err := cypher.Parse(q, schema)
		if err != nil {
			t.Fatal(err)
		}
		refRows, refOut, err := naive.Run(context.Background(), plan, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := canonical(refRows, refOut, st)
		folded := 0
		for mask := 0; mask < 8; mask++ {
			opt := optimizer.Options{EdgeVertexFusion: mask&1 != 0, FilterPushIntoMatch: mask&2 != 0, CBO: mask&4 != 0}
			phys, err := optimizer.Optimize(plan, eng.Catalog(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if n := foldCount(phys); n > 0 {
				if !opt.EdgeVertexFusion || n > 1 {
					t.Fatalf("%+v: %d EXPAND_DEGREE\n%s", opt, n, phys)
				}
				folded++
			}
			rows, out, err := submitWith(context.Background(), eng, st, plan, opt, exec.Request{BatchSize: 7})
			if err != nil {
				t.Fatalf("%+v: %v\n%s", opt, err, q)
			}
			mustEqual(t, fmt.Sprintf("%+v: %s", opt, q), canonical(rows, out, st), want)
		}
		if folded == 0 {
			t.Fatalf("no rule subset folds %s", q)
		}
	}
}
