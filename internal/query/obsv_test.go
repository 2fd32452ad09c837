// Observability integration tests: attaching stats + tracing to a query must
// never change its results (the parity rerun), the schedule-independent
// counters must merge identically at any parallelism (the deterministic-merge
// contract), and EXPLAIN ANALYZE must report per-stage rows consistent with
// the final cardinality (pinned by a golden rendering).
package query_test

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/grin/grintest"
	"repro/internal/query"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/obsv"
	"repro/internal/query/procedures"
	"repro/internal/storage/meter"
)

// TestObservedParityMatrix reruns the SNB parity mix with full observability
// attached — stats, tracing, and a metering store wrapper — and asserts every
// engine returns rows identical to its unobserved run. Collection must be
// purely passive; the leak check pins that observed runs also unwind clean.
func TestObservedParityMatrix(t *testing.T) {
	f := snbFixture(120, 9)
	stores := []string{"vineyard", "gart", "graphar"}
	cells := grid{stores: stores, views: []view{bareView, meteredView}, batches: []int{16}, runs: parityEngines}.cells(t, f)
	for i, name := range stores {
		plain, observed := cells[2*i], cells[2*i+1] // bare, metered
		t.Run(name, func(t *testing.T) {
			for _, tc := range snbParityCases {
				t.Run(tc.name, func(t *testing.T) {
					plan := parse(t, tc.lang, tc.q, f.schema())
					want := plain.run(plan, exec.Request{Params: tc.params}, nil)
					for j, a := range observed.run(plan, exec.Request{Params: tc.params}, observed.observe) {
						name := fmt.Sprintf("%s on %s", a, observed)
						if err := cmp.Or(want[j].err, a.err); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						mustExactEqual(t, name, renderRows(a.rows), renderRows(want[j].rows))
						assertCollected(t, name, a)
					}
				})
			}
		})
	}
}

// assertCollected sanity-checks that an observed run actually collected data:
// the final stage produced the result cardinality, batches were counted, the
// metered store saw calls, and trace spans were recorded. It reads the
// snapshot taken straight after a's run, so the store calls are a's own;
// name prefixes a failure.
func assertCollected(t *testing.T, name string, a answer) {
	t.Helper()
	snap, rows := a.snap, len(a.rows)
	if len(snap.Stages) == 0 {
		t.Fatal(name + ": observed run bound no stages")
	}
	last := snap.Stages[len(snap.Stages)-1]
	if last.RowsOut != int64(rows) {
		t.Fatalf("%s: final stage RowsOut = %d, want result cardinality %d", name, last.RowsOut, rows)
	}
	var batches int64
	for _, s := range snap.Stages {
		batches += s.Batches
	}
	if batches == 0 {
		t.Fatal(name + ": observed run counted no batches")
	}
	if snap.Store != nil {
		var calls int64
		for _, site := range snap.Store.Sites {
			calls += site.Calls
		}
		if calls == 0 {
			t.Fatal(name + ": metered store saw no trait calls")
		}
	}
	if a.obs.Trace != nil && len(a.obs.Trace.Events()) == 0 {
		t.Fatal(name + ": trace recorded no events")
	}
	if snap.BoxedResultRows != int64(rows) {
		t.Fatalf("%s: BoxedResultRows = %d, want %d (one boxing per result row)", name, snap.BoxedResultRows, rows)
	}
}

// TestStatsDeterministicMerge pins the determinism contract of the stats
// layer itself: for a plan without a LIMIT short-circuit, the
// schedule-independent counters (rows, batches, filter paths, selectivity)
// are identical at parallelism 1 and NumCPU — morsel partition is
// driver-independent and every counter merges commutatively.
func TestStatsDeterministicMerge(t *testing.T) {
	defer query.CheckLeaks(t)()
	st := snbFixture(120, 9).vineyard(t)
	schema := dataset.SNBSchema()
	queries := []string{
		`MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN f.firstName`,
		`MATCH (p:Person)-[:KNOWS]->(f:Person)-[:LIKES]->(po:Post)
WHERE p.creationDate > 5 RETURN f.firstName, po.creationDate`,
	}
	for _, q := range queries {
		plan, err := cypher.Parse(q, schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{7, 1024} {
			var ref []obsv.StageSnapshot
			for _, par := range []int{1, runtime.NumCPU()} {
				obs := obsv.NewQueryStats()
				eng := gaia.NewEngine(st, gaia.Options{Parallelism: par})
				if _, _, err := submit(context.Background(), eng, plan, exec.Request{BatchSize: bs, Obs: obs}); err != nil {
					t.Fatal(err)
				}
				det := obs.Deterministic()
				if ref == nil {
					ref = det
					continue
				}
				if !reflect.DeepEqual(det, ref) {
					t.Errorf("bs=%d par=%d: deterministic stats diverge\ngot:  %+v\nwant: %+v", bs, par, det, ref)
				}
			}
		}
	}
}

// TestExplainAnalyzeGolden pins the EXPLAIN ANALYZE rendering byte-for-byte
// (wall times suppressed) and cross-checks the per-stage rows against the
// query's final cardinality: an SNB two-hop expand over vineyard, whose label
// segments hand each hop only its label's slots, and over the same store
// with that trait hidden, where each hop is handed whole adjacencies; a
// keyed COUNT, whose GROUP(partial) rows show what each morsel folds to
// before the barrier; and a count-only chain folded into one EXPAND_DEGREE
// over a hop path.
func TestExplainAnalyzeGolden(t *testing.T) {
	st := snbFixture(120, 9).vineyard(t)
	const twoHop = `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:LIKES]->(po:Post) RETURN id(po)`
	for _, tc := range []struct {
		name string
		q    string
		g    grin.Graph
		want string
	}{
		{"segmented", twoHop, st, goldenExplainSegmented},
		{"unsegmented", twoHop, grintest.Unsegmented(st), goldenExplain},
		{"keyed count", `MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post) WITH p, COUNT(m) AS posts RETURN id(p), posts`,
			st, goldenExplainCount},
		{"folded path", `MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post)<-[:REPLY_OF]-(c:Comment)-[:COMMENT_HAS_CREATOR]->(r:Person) WITH p, COUNT(r) AS replies RETURN id(p), replies`,
			st, goldenExplainPath},
	} {
		plan, err := cypher.Parse(tc.q, dataset.SNBSchema())
		if err != nil {
			t.Fatal(err)
		}
		eng := gaia.NewEngine(tc.g, gaia.Options{Parallelism: 4})
		c, err := eng.Compile(plan)
		if err != nil {
			t.Fatal(err)
		}
		obs := obsv.NewQueryStats()
		rows, err := eng.Run(context.Background(), c, exec.Request{Obs: obs})
		if err != nil {
			t.Fatal(err)
		}
		snaps := obs.StageSnapshots()
		if last := snaps[len(snaps)-1]; last.RowsOut != int64(len(rows)) {
			t.Fatalf("%s: final stage RowsOut = %d, want %d result rows", tc.name, last.RowsOut, len(rows))
		}
		if got := c.Explain(obs).Render(false); got != tc.want {
			t.Errorf("%s: EXPLAIN ANALYZE rendering drifted\ngot:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}

// goldenExplain is the pinned Render(false) output for the two-hop expand
// above at Persons=120/Seed=9: the dataset generator and morsel partition are
// deterministic, so these counters are stable across runs and parallelism.
// The second hop scans fewer slots than the first although it sees four
// times the rows: consecutive rows on one f share its adjacency.
const goldenExplain = `PROJECT [MAP width=1]
  rows: in=8692 out=8692  batches=2
  EXPAND_FUSED(f->p) [MAP width=3]
    rows: in=480 out=8692  batches=2  slots=3193
    EXPAND_FUSED(f->po) [MAP width=2]
      rows: in=120 out=480  batches=2  slots=3065
      SCAN(f) [SOURCE width=1]
        rows: in=0 out=120  batches=1
`

// goldenExplainSegmented is the same run with the edge-label filters pushed
// into the store: slots are the ones each hop keeps (the second hop's rows
// are four per slot where consecutive rows share an f).
const goldenExplainSegmented = `PROJECT [MAP width=1]
  rows: in=8692 out=8692  batches=2
  EXPAND_FUSED(f->p) [MAP width=3]
    rows: in=480 out=8692  batches=2  slots=2135
    EXPAND_FUSED(f->po) [MAP width=2]
      rows: in=120 out=480  batches=2  slots=480
      SCAN(f) [SOURCE width=1]
        rows: in=0 out=120  batches=1
`

// goldenExplainCount is the keyed COUNT: GROUP(partial) folds each morsel's
// rows into one per person the morsel touched — both morsels of f reach every
// person, so 1910 weighted rows become 2 × 120 partial rows — and the barrier
// merges those into one row per person.
const goldenExplainCount = `PROJECT [MAP width=2]
  rows: in=120 out=120  batches=2
  GROUP [BLOCKING width=2]
    rows: in=240 out=120  batches=1
    GROUP(partial) [MAP width=2]
      rows: in=1910 out=240  batches=2
      EXPAND_DEGREE(f->m) [MAP width=3]
        rows: in=2162 out=1910  batches=2  slots=0
        EXPAND_FUSED(f->p) [MAP width=2]
          rows: in=120 out=2162  batches=2  slots=2162
          SCAN(f) [SOURCE width=1]
            rows: in=0 out=120  batches=1
`

// goldenExplainPath is BI18's shape, whose count-only chain folds whole:
// one EXPAND_DEGREE walks each person's posts and their replies and sums the
// replies' creator degrees, so no (p, m) or (p, m, c) row is built — 120
// persons in, the 91 with a reply out, one per person, so GROUP(partial)
// folds nothing away. Its slots are the two walked hops' (360 posts, 600
// replies); the counted hop is answered by LabelDegrees and hands over
// none.
const goldenExplainPath = `PROJECT [MAP width=2]
  rows: in=91 out=91  batches=2
  GROUP [BLOCKING width=2]
    rows: in=91 out=91  batches=1
    GROUP(partial) [MAP width=2]
      rows: in=91 out=91  batches=2
      EXPAND_DEGREE(p->m->c->r) [MAP width=2]
        rows: in=120 out=91  batches=2  slots=960
        SCAN(p) [SOURCE width=1]
          rows: in=0 out=120  batches=1
`

// pathSplit is the part of a query's stats that shows which path it took.
func pathSplit(s *obsv.Snapshot) string {
	var kernel, boxed int64
	for _, st := range s.Stages {
		kernel += st.KernelSteps
		boxed += st.BoxedSteps
	}
	return fmt.Sprintf("kernel_steps=%d boxed_steps=%d boxed_result_rows=%d", kernel, boxed, s.BoxedResultRows)
}

// TestMeteredRunsTakeTheSamePath pins that metering measures the path it
// claims to: meter.Wrap forwards grin.BatchPropsCol, so rows and the
// kernel/boxed split are identical with and without the wrapper — for
// property-filter queries, whose conjuncts run as selection kernels over
// typed-column gathers (a wrapper that drops the trait silently reroutes them
// through the boxed per-row evaluator), and for every BI query.
func TestMeteredRunsTakeTheSamePath(t *testing.T) {
	const persons = 120
	st := snbFixture(persons, 5).vineyard(t)
	type testQuery struct {
		name, text string
		params     map[string]graph.Value
	}
	queries := []testQuery{
		{name: "filter-two-hop", text: `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person)
WHERE g.creationDate > 20 AND f.creationDate > 10 RETURN g.firstName`},
		{name: "filter-param", text: `MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post)
WHERE m.creationDate >= $since RETURN f.firstName, m.creationDate`,
			params: map[string]graph.Value{"since": graph.IntValue(15)}},
	}
	rng := rand.New(rand.NewSource(5))
	for _, q := range procedures.BI() {
		queries = append(queries, testQuery{name: q.Name, text: q.Cypher, params: q.Params(rng, procedures.ScaleOf(persons))})
	}
	stats := &obsv.StoreStats{}
	mg := meter.Wrap(st, stats)
	plain := gaia.NewEngine(st, gaia.Options{Parallelism: 2})
	wrapped := gaia.NewEngine(mg, gaia.Options{Parallelism: 2})
	kernelSteps := int64(0)
	for _, q := range queries {
		plan, err := cypher.Parse(q.text, st.Schema())
		if err != nil {
			t.Fatal(err)
		}
		obsPlain, obsWrapped := obsv.NewQueryStats(), obsv.NewQueryStats()
		want, _, err := submit(context.Background(), plain, plan, exec.Request{Params: q.params, Obs: obsPlain})
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		got, _, err := submit(context.Background(), wrapped, plan, exec.Request{Params: q.params, Obs: obsWrapped})
		if err != nil {
			t.Fatalf("%s metered: %v", q.name, err)
		}
		mustExactEqual(t, q.name+" metered", renderRows(got), renderRows(want))
		if a, b := pathSplit(obsWrapped.Snapshot()), pathSplit(obsPlain.Snapshot()); a != b {
			t.Errorf("%s: metered run took another path: %s, unmetered %s", q.name, a, b)
		}
		for _, s := range obsPlain.Snapshot().Stages {
			kernelSteps += s.KernelSteps
		}
	}
	if kernelSteps == 0 {
		t.Fatal("no query took a kernel step; the comparison pins nothing")
	}
	if stats.Calls(grin.SiteGatherVProp) == 0 {
		t.Error("no vertex-property gather was counted through the wrapper")
	}
}

// TestUnsegmentedStoresKeepTheirCallProfile pins the other side of the
// skeleton's one capability check: a store without grin.LabelAdjacency — GART,
// and vineyard with the trait hidden behind the tap — is asked exactly what it
// was asked before the trait existed. The counts are the metered profile of a
// catalog build plus one pass over BI1–BI20 at the commit before the trait
// (7b76bdf), site by site, with three exceptions. BI1's avg(m.length): GROUP
// gathers that argument as one column, so its scalar VertexProp reads (one
// per post) are one GatherVertexProp call. And the predicated starts — BI12's
// `m.length > 100` over every post, then the `name` starts of BI3, BI6, BI7
// and BI10 over every tag and of BI15 over every place — run as SCAN + SELECT,
// whose filter gathers the property once per morsel: through one
// GatherVertexProp call on vineyard, which serves the typed column, and as
// one scalar VertexProp read per candidate on GART, which does not, so GART
// keeps the scan's old profile (at this scale 360 posts, 16 tags and 12 places:
// 436 VertexProp reads on GART, 6 + 4 + 1 more column gathers on vineyard,
// 64 rows to a morsel). And the inward fold: BI5, BI7, BI13, BI14, BI17,
// BI18, BI19 and BI20 run as one EXPAND_DEGREE that walks its Via hops, whose
// levels are cut into chunks by one sizing per morsel — a level's first chunk
// holds as many vertices as the density seen on the levels before it allows
// (at most 4 × 64), where the unfolded stage started again at 64. Per 64-row
// morsel, one ExpandBatch (and GatherEdgeLabels) call per chunk, first level
// + the rest, unfolded → folded: BI13 and BI19, 12 places reaching 120
// persons, 1 + 2 (64, 56) → 1 + 1 (120); BI20, 13 forums reaching 360 posts,
// 1 + 3 (64, 256, 40) → 1 + 2 (226, 134); BI5, 64 then 56 persons reaching
// 272 and 88 posts, 1 + 2 (64, 208) → 1 + 2 (256, 16) and 1 + 2 (64, 24) →
// 1 + 1; BI14, 64 then 56 persons reaching 954 and 758 friends, 1 + 5 (64,
// 256, 292, 301, 41) → 1 + 4 (256, 304, 304, 90) and 1 + 4 (64, 256, 300,
// 138) → 1 + 3 (256, 315, 187); BI18 as BI5 for its posts, then the 467 and
// 133 comments those reach in 3 (64, 256, 147) → 2 (441 from the first
// chunk of posts, 26 from the second) and 2 (64, 69) → 1 chunks. BI7 and
// BI17 cross their levels in the same chunks as before. That is 1 + 1 + 1 +
// 1 + 2 + 3 = 9 fewer calls. On vineyard itself the same pass must go
// through the label sites and gather no edge label.
func TestUnsegmentedStoresKeepTheirCallProfile(t *testing.T) {
	const persons = 120
	f := snbFixture(persons, 5)
	vy, gs := f.vineyard(t), f.store(t, "gart")
	count := func(l graph.LabelID) (n int64) {
		grin.ScanLabel(vy, l, func(graph.VID) bool { n++; return true })
		return n
	}
	posts, tags, places := count(dataset.SNBPost), count(dataset.SNBTag), count(dataset.SNBPlace)
	morsels := func(n int64) int64 { m := int64(exec.MorselRows(exec.DefaultBatchSize)); return (n + m - 1) / m }
	// The chunks the inward fold saves (BI5, BI13, BI14, BI18, BI19, BI20).
	const inward = 1 + 1 + 2 + 3 + 1 + 1
	shared := map[grin.Site]int64{
		grin.SiteLabelRange: 6, grin.SiteExpandBatch: 62 - inward, grin.SiteGatherELabels: 62 - inward, grin.SiteScanBatch: 20,
	}
	// The column gathers before the trait existed, plus BI1's avg column.
	const gathers = 10 + 1
	profile := func(g grin.Graph) *obsv.StoreStats {
		stats := &obsv.StoreStats{}
		eng := gaia.NewEngine(meter.Wrap(g, stats), gaia.Options{Parallelism: 2})
		rng := rand.New(rand.NewSource(5))
		for _, q := range procedures.BI() {
			plan, err := cypher.Parse(q.Cypher, dataset.SNBSchema())
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := eng.Submit(context.Background(), plan, q.Params(rng, procedures.ScaleOf(persons))); err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
		}
		return stats
	}
	for _, tc := range []struct {
		name string
		g    grin.Graph
		own  map[grin.Site]int64 // the catalog's walk and the starts' property reads, by the traits each store has
	}{
		{"unsegmented(vineyard)", grintest.Unsegmented(vy), map[grin.Site]int64{
			grin.SiteAdjSlice:    1121,
			grin.SiteGatherVProp: gathers + morsels(posts) + 4*morsels(tags) + morsels(places),
		}},
		{"gart", gs, map[grin.Site]int64{
			grin.SiteNeighbors: 1121, grin.SiteScanVertices: 6,
			grin.SiteVertexProp: posts + 4*tags + places, grin.SiteGatherVProp: gathers,
		}},
	} {
		stats := profile(tc.g)
		for s := grin.Site(0); s < obsv.NumStoreSites; s++ {
			if got, want := stats.Calls(s), shared[s]+tc.own[s]; got != want {
				t.Errorf("%s: %d %s calls, %d before the trait existed", tc.name, got, s, want)
			}
		}
	}
	stats := profile(vy)
	if stats.Calls(grin.SiteExpandLabelBatch) == 0 || stats.Calls(grin.SiteLabelDegrees) == 0 ||
		stats.Calls(grin.SiteGatherELabels) != 0 || stats.Calls(grin.SiteAdjSlice) != 0 {
		snap := stats.Snapshot()
		t.Errorf("vineyard's own profile:\n%s", obsv.RenderStore(&snap))
	}
}
