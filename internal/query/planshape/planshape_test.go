// planshape's contract is "predict exactly what exec.Compile builds, then
// check more". The tests pin both halves: a corpus of parsed-and-optimized
// plans whose simulated stages must match the compiler's real output
// shape-for-shape, and a table of malformed plans — several of which
// exec.Compile happily accepts — that Verify must reject. The capability
// matrix is pinned against grin.Traits over live backend instances, so the
// static table cannot drift from the runtime type assertions.
//
// This file lives in package planshape_test and imports exec and the
// concrete backends freely: _test.go files are never loaded by the linter,
// so the import-direction rule (planshape never imports exec) holds for the
// library itself.
package planshape_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/expr"
	"repro/internal/query/ir"
	"repro/internal/query/optimizer"
	"repro/internal/query/planshape"
	"repro/internal/storage/csr"
	"repro/internal/storage/gart"
	"repro/internal/storage/graphar"
	"repro/internal/storage/livegraph"
	"repro/internal/storage/vineyard"
)

// corpusQueries are the shapes the cross-check runs: scans, fused and
// multi-hop expansion, predicates, projection, top-k, grouping, and
// multi-clause MATCH continuation.
var corpusQueries = []string{
	`MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN f.firstName`,
	`MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person)
WHERE g.creationDate > 20 AND f.creationDate > 10
RETURN g.firstName`,
	`MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post)
RETURN f.firstName, m.creationDate
ORDER BY m.creationDate DESC
LIMIT 20`,
	`MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person)
WITH f, COUNT(g) AS c
RETURN f.firstName, c
ORDER BY c DESC
LIMIT 10`,
	`MATCH (p:Person)-[:KNOWS]->(f:Person)
WHERE id(p) = $pid
RETURN f.firstName`,
	// Count-only leaves: the optimized plans carry EXPAND_DEGREE and a
	// weighted GROUP (grouped, global, and with a carried expansion between).
	`MATCH (p:Person)-[:HAS_INTEREST]->(t:Tag)<-[:HAS_TAG]-(m:Post)
WHERE t.name = 'art'
WITH p, COUNT(m) AS score
RETURN id(p), score`,
	`MATCH (t:Tag)<-[:HAS_TAG]-(m:Post) RETURN COUNT(*) AS c`,
}

func degree(from, leaf string) *ir.Op {
	return &ir.Op{Kind: ir.OpExpandDegree, FromAlias: from, Alias: leaf, Label: graph.AnyLabel, EdgeLabel: graph.AnyLabel}
}

func countStar(weight string) *ir.Op {
	return &ir.Op{Kind: ir.OpGroupBy, Aggs: []ir.Aggregate{{Fn: "count", Alias: "c"}}, CountWeight: weight}
}

// checkAgainstCompile asserts Verify's simulated shape matches what
// exec.Compile actually builds for the same plan.
func checkAgainstCompile(t *testing.T, p *ir.Plan) *planshape.Info {
	t.Helper()
	info, err := planshape.Verify(p)
	if err != nil {
		t.Fatalf("Verify rejected a compilable plan: %v\nplan:\n%s", err, p)
	}
	c, err := exec.Compile(p, exec.Options{})
	if err != nil {
		t.Fatalf("exec.Compile: %v\nplan:\n%s", err, p)
	}
	if len(info.Stages) != len(c.Stages) {
		t.Fatalf("stage count: Verify %d, Compile %d\nplan:\n%s", len(info.Stages), len(c.Stages), p)
	}
	for i, st := range info.Stages {
		real := c.Stages[i]
		if st.Name != real.Name {
			t.Errorf("stage %d name: Verify %q, Compile %q", i, st.Name, real.Name)
		}
		if st.InWidth != real.InWidth || st.OutWidth != real.OutWidth {
			t.Errorf("stage %d (%s) widths: Verify %d->%d, Compile %d->%d",
				i, st.Name, st.InWidth, st.OutWidth, real.InWidth, real.OutWidth)
		}
		realBlocking := real.Blocking != nil
		if st.Blocking != realBlocking {
			t.Errorf("stage %d (%s) blocking: Verify %v, Compile %v", i, st.Name, st.Blocking, realBlocking)
		}
	}
	if info.Width != len(c.Cols) {
		t.Errorf("final width: Verify %d, Compile %d", info.Width, len(c.Cols))
	}
	for alias, idx := range c.Cols {
		if got, ok := info.Cols[alias]; !ok || got != idx {
			t.Errorf("column %q: Verify idx %d (bound=%v), Compile idx %d", alias, got, ok, idx)
		}
	}
	if strings.Join(info.Out, ",") != strings.Join(c.Out, ",") {
		t.Errorf("output order: Verify %v, Compile %v", info.Out, c.Out)
	}
	return info
}

// TestVerifyMatchesCompile cross-checks the simulated stage construction
// against the real compiler over the corpus, for both the raw logical plan
// and the optimized physical plan.
func TestVerifyMatchesCompile(t *testing.T) {
	schema := dataset.SNBSchema()
	st, err := vineyard.Load(dataset.SNB(dataset.SNBOptions{Persons: 60, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	cat := optimizer.BuildCatalog(st)
	folded := 0
	for _, q := range corpusQueries {
		logical, err := cypher.Parse(q, schema)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		checkAgainstCompile(t, logical)
		physical, err := optimizer.Optimize(logical, cat, optimizer.All())
		if err != nil {
			t.Fatalf("optimize %q: %v", q, err)
		}
		checkAgainstCompile(t, physical)
		if strings.Contains(physical.String(), "EXPAND_DEGREE") {
			folded++
		}
	}
	if folded != 3 {
		t.Fatalf("%d corpus plans carry EXPAND_DEGREE, want the three count-only leaves", folded)
	}
}

func scan(alias string) *ir.Op {
	return &ir.Op{Kind: ir.OpScan, Alias: alias, Label: graph.AnyLabel}
}

func v(alias string) *expr.Expr { return &expr.Expr{Kind: expr.KindVar, Alias: alias} }

func prop(alias, p string) *expr.Expr {
	return &expr.Expr{Kind: expr.KindVar, Alias: alias, Prop: p}
}

// TestVerifyRejectsMalformedPlans is the negative table: every entry must be
// rejected with a message mentioning the defect.
func TestVerifyRejectsMalformedPlans(t *testing.T) {
	cases := []struct {
		name string
		plan *ir.Plan
		want string
	}{
		{"empty plan", &ir.Plan{}, "empty plan"},
		{"scan not first", &ir.Plan{Ops: []*ir.Op{scan("a"), scan("b")}},
			"SCAN must be the first"},
		{"expand from unbound", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpExpandFused, FromAlias: "z", Alias: "b", Label: graph.AnyLabel, EdgeLabel: graph.AnyLabel}}},
			`unbound alias "z"`},
		{"expand edge unnamed", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpExpandEdge, FromAlias: "a", EdgeLabel: graph.AnyLabel}}},
			"no edge alias"},
		{"get_vertex unexpanded", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpGetVertex, Alias: "b", EdgeAlias: "e", Label: graph.AnyLabel}}},
			`unexpanded edge "e"`},
		{"disconnected pattern", &ir.Plan{Ops: []*ir.Op{
			{Kind: ir.OpMatch, Pattern: []ir.PatternEdge{
				{SrcAlias: "a", SrcLabel: graph.AnyLabel, EdgeLabel: graph.AnyLabel, DstAlias: "b", DstLabel: graph.AnyLabel},
				{SrcAlias: "c", SrcLabel: graph.AnyLabel, EdgeLabel: graph.AnyLabel, DstAlias: "d", DstLabel: graph.AnyLabel},
			}}}},
			"disconnected pattern edge c-d"},
		{"match continuation unbound", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpMatch, Pattern: []ir.PatternEdge{
				{SrcAlias: "x", SrcLabel: graph.AnyLabel, EdgeLabel: graph.AnyLabel, DstAlias: "y", DstLabel: graph.AnyLabel},
			}}}},
			`continuation from unbound alias "x"`},
		{"select nil pred", &ir.Plan{Ops: []*ir.Op{scan("a"), {Kind: ir.OpSelect}}},
			"no predicate"},
		{"select unbound alias", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpSelect, Pred: v("b")}}},
			`unbound alias "b"`},
		{"project empty", &ir.Plan{Ops: []*ir.Op{scan("a"), {Kind: ir.OpProject}}},
			"no items"},
		{"order no keys", &ir.Plan{Ops: []*ir.Op{scan("a"), {Kind: ir.OpOrderBy}}},
			"no sort keys"},
		{"order negative limit", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpOrderBy, Keys: []ir.SortKey{{Expr: v("a")}}, Limit: -1}}},
			"negative limit"},
		{"limit zero", &ir.Plan{Ops: []*ir.Op{scan("a"), {Kind: ir.OpLimit, Limit: 0}}},
			"LIMIT 0"},
		{"group empty", &ir.Plan{Ops: []*ir.Op{scan("a"), {Kind: ir.OpGroupBy}}},
			"no keys and no aggregates"},
		{"group unknown aggregate", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpGroupBy, Aggs: []ir.Aggregate{{Fn: "median", Arg: v("a"), Alias: "m"}}}}},
			`unknown aggregate "median"`},
		{"group aggregate missing arg", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpGroupBy, Aggs: []ir.Aggregate{{Fn: "sum", Alias: "s"}}}}},
			"needs an argument"},
		{"group alias collision", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpGroupBy,
				GroupKeys: []ir.ProjItem{{Expr: v("a"), Alias: "k"}},
				Aggs:      []ir.Aggregate{{Fn: "count", Alias: "k"}}}}},
			`alias "k" collides`},
		{"dedup no aliases", &ir.Plan{Ops: []*ir.Op{scan("a"), {Kind: ir.OpDedup}}},
			"no key aliases"},
		{"dedup unbound", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpDedup, DedupAliases: []string{"z"}}}},
			`unbound alias "z"`},
		{"unknown function", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpOrderBy, Keys: []ir.SortKey{{Expr: &expr.Expr{
				Kind: expr.KindCall, Fn: "bogus", Args: []*expr.Expr{v("a")}}}}}}},
			`unknown function "bogus"`},
		{"degree from unbound", &ir.Plan{Ops: []*ir.Op{scan("a"), degree("z", "b"), countStar("#deg:b")}},
			`unbound alias "z"`},
		{"degree of a bound alias", &ir.Plan{Ops: []*ir.Op{scan("a"), degree("a", "a"), countStar("#deg:a")}},
			"no operator binds"},
		{"degree never consumed", &ir.Plan{Ops: []*ir.Op{scan("a"), degree("a", "b")}},
			"never consumed"},
		{"degree leaf referenced downstream", &ir.Plan{Ops: []*ir.Op{scan("a"), degree("a", "b"),
			{Kind: ir.OpSelect, Pred: prop("b", "x")}, countStar("#deg:b")}},
			`unbound alias "b"`},
		{"degree dropped by a projection", &ir.Plan{Ops: []*ir.Op{scan("a"), degree("a", "b"),
			{Kind: ir.OpProject, Items: []ir.ProjItem{{Expr: v("a"), Alias: "a"}}}}},
			"would lose the row weights"},
		{"degree truncated by a limit", &ir.Plan{Ops: []*ir.Op{scan("a"), degree("a", "b"),
			{Kind: ir.OpLimit, Limit: 3}, countStar("#deg:b")}},
			"would lose the row weights"},
		{"two degrees into one group", &ir.Plan{Ops: []*ir.Op{scan("a"), degree("a", "b"), degree("a", "c"), countStar("#deg:c")}},
			"would lose the row weights"},
		{"group ignores the weight", &ir.Plan{Ops: []*ir.Op{scan("a"), degree("a", "b"), countStar("")}},
			"pending EXPAND_DEGREE column"},
		{"weight without a degree", &ir.Plan{Ops: []*ir.Op{scan("a"), countStar("#deg:b")}},
			"pending EXPAND_DEGREE column"},
		{"weighted non-count", &ir.Plan{Ops: []*ir.Op{scan("a"), degree("a", "b"),
			{Kind: ir.OpGroupBy, Aggs: []ir.Aggregate{{Fn: "sum", Arg: prop("a", "x"), Alias: "s"}}, CountWeight: "#deg:b"}}},
			"COUNT(*) only"},
		{"weighted count of a column", &ir.Plan{Ops: []*ir.Op{scan("a"), degree("a", "b"),
			{Kind: ir.OpGroupBy, Aggs: []ir.Aggregate{{Fn: "count", Arg: v("a"), Alias: "c"}}, CountWeight: "#deg:b"}}},
			"COUNT(*) only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := planshape.Verify(tc.plan)
			if err == nil {
				t.Fatalf("Verify accepted malformed plan:\n%s", tc.plan)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestVerifyStricterThanCompile pins the lintcheck value proposition: these
// plans compile — exec only fails them at evaluation time, or silently
// merges columns — but Verify rejects them statically.
func TestVerifyStricterThanCompile(t *testing.T) {
	cases := []struct {
		name string
		plan *ir.Plan
		want string
	}{
		// bindExpr doesn't look at Fn; evalCall fails per-row at runtime.
		{"unknown function in sort key", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpOrderBy, Keys: []ir.SortKey{{Expr: &expr.Expr{
				Kind: expr.KindCall, Fn: "bogus", Args: []*expr.Expr{v("a")}}}}}}},
			`unknown function "bogus"`},
		// addCol reuses the index, so the duplicate silently merges columns.
		{"duplicate project alias", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpProject, Items: []ir.ProjItem{
				{Expr: v("a"), Alias: "x"}, {Expr: v("a"), Alias: "x"}}}}},
			`duplicate output alias "x"`},
		// A predicate-less SELECT compiles to a pass-through stage.
		{"select without predicate", &ir.Plan{Ops: []*ir.Op{scan("a"), {Kind: ir.OpSelect}}},
			"no predicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := exec.Compile(tc.plan, exec.Options{}); lintcheckOn {
				// Under -tags lintcheck the verifier front-runs Compile, so
				// the same defect must now fail at compile time — the hook's
				// proof of value.
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("lintcheck build: Compile should reject with %q, got %v", tc.want, err)
				}
			} else if err != nil {
				t.Fatalf("premise broken: exec.Compile rejects this plan too: %v", err)
			}
			_, err := planshape.Verify(tc.plan)
			if err == nil {
				t.Fatal("Verify accepted a plan it should be stricter about")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func traitSet(ts []grin.Trait) map[grin.Trait]bool {
	m := map[grin.Trait]bool{}
	for _, t := range ts {
		m[t] = true
	}
	return m
}

// TestTraitDerivation checks Requires/Optional classification: property
// reads are required (wrong answers without them), label filters and id()
// are optional (documented graceful degradation).
func TestTraitDerivation(t *testing.T) {
	structural := &ir.Plan{Ops: []*ir.Op{scan("a"),
		{Kind: ir.OpExpandFused, FromAlias: "a", Alias: "b", Label: graph.AnyLabel, EdgeLabel: graph.AnyLabel},
		{Kind: ir.OpProject, Items: []ir.ProjItem{{Expr: v("b"), Alias: "b"}}},
	}}
	info, err := planshape.Verify(structural)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Requires) != 1 || info.Requires[0] != grin.TraitTopology {
		t.Errorf("structural plan Requires = %v, want [Topology]", info.Requires)
	}
	if len(info.Optional) != 0 {
		t.Errorf("structural plan Optional = %v, want none", info.Optional)
	}

	propPlan := &ir.Plan{Ops: []*ir.Op{scan("a"),
		{Kind: ir.OpSelect, Pred: &expr.Expr{Kind: expr.KindBinary, Op: expr.OpGt,
			Left: prop("a", "x"), Right: &expr.Expr{Kind: expr.KindLiteral, Val: graph.IntValue(1)}}},
	}}
	info, err = planshape.Verify(propPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !traitSet(info.Requires)[grin.TraitProperty] {
		t.Errorf("property plan Requires = %v, want Property included", info.Requires)
	}

	idPlan := &ir.Plan{Ops: []*ir.Op{scan("a"),
		{Kind: ir.OpSelect, Pred: &expr.Expr{Kind: expr.KindCall, Fn: "id",
			Args: []*expr.Expr{v("a")}}},
	}}
	info, err = planshape.Verify(idPlan)
	if err != nil {
		t.Fatal(err)
	}
	if traitSet(info.Requires)[grin.TraitIndex] {
		t.Errorf("id() must not make Index required: %v", info.Requires)
	}
	if !traitSet(info.Optional)[grin.TraitIndex] {
		t.Errorf("id() plan Optional = %v, want Index included", info.Optional)
	}

	labeled := &ir.Plan{Ops: []*ir.Op{
		{Kind: ir.OpScan, Alias: "a", Label: graph.LabelID(1)},
	}}
	info, err = planshape.Verify(labeled)
	if err != nil {
		t.Fatal(err)
	}
	if traitSet(info.Requires)[grin.TraitProperty] {
		t.Errorf("label filter must not require Property: %v", info.Requires)
	}
	if !traitSet(info.Optional)[grin.TraitProperty] {
		t.Errorf("label-filtered plan Optional = %v, want Property included", info.Optional)
	}
}

// liveBackends instantiates every backend the capability matrix covers, in
// the same configuration the engines use (gart through its Snapshot view).
func liveBackends(t *testing.T) map[string]grin.Graph {
	t.Helper()
	b := dataset.SNB(dataset.SNBOptions{Persons: 40, Seed: 3})

	vy, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}

	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(b); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := graphar.Write(dir, b, graphar.Options{ChunkSize: 64}); err != nil {
		t.Fatal(err)
	}
	ga, err := graphar.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ga.Close() })

	cg, err := csr.Build(4, []csr.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}},
		csr.Options{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}

	lg := livegraph.NewStore(4)

	return map[string]grin.Graph{
		"vineyard": vy, "gart": gs.Latest(), "graphar": ga, "csr": cg, "livegraph": lg,
	}
}

// TestCapabilityMatrixMatchesBackends pins the static matrix against the
// runtime type assertions: for every backend, Capabilities must equal
// grin.Traits of a live instance exactly.
func TestCapabilityMatrixMatchesBackends(t *testing.T) {
	backends := liveBackends(t)
	if len(backends) != len(planshape.Backends()) {
		t.Fatalf("matrix covers %v, test instantiates %d backends", planshape.Backends(), len(backends))
	}
	for name, g := range backends {
		want := traitSet(grin.Traits(g))
		got := traitSet(planshape.Capabilities(name))
		for tr := range want {
			if !got[tr] {
				t.Errorf("%s: live backend has trait %v missing from the matrix", name, tr)
			}
		}
		for tr := range got {
			if !want[tr] {
				t.Errorf("%s: matrix claims trait %v the live backend lacks", name, tr)
			}
		}
	}
}

// TestCheckBackendAndDegraded checks the required-vs-degraded split against
// the matrix: property plans are rejected on structural stores, batch traits
// are never required (graphar is the fallback backend), and Degraded lists
// what a label filter silently loses.
func TestCheckBackendAndDegraded(t *testing.T) {
	propPlan := &ir.Plan{Ops: []*ir.Op{scan("a"),
		{Kind: ir.OpSelect, Pred: &expr.Expr{Kind: expr.KindBinary, Op: expr.OpGt,
			Left: prop("a", "x"), Right: &expr.Expr{Kind: expr.KindLiteral, Val: graph.IntValue(1)}}},
	}}
	info, err := planshape.Verify(propPlan)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"vineyard", "gart", "graphar"} {
		if err := planshape.CheckBackend(info, backend); err != nil {
			t.Errorf("property plan should run on %s: %v", backend, err)
		}
	}
	for _, backend := range []string{"csr", "livegraph"} {
		err := planshape.CheckBackend(info, backend)
		var missing *grin.ErrMissingTrait
		if !errors.As(err, &missing) {
			t.Errorf("property plan on %s: want ErrMissingTrait, got %v", backend, err)
		} else if missing.Trait != grin.TraitProperty {
			t.Errorf("property plan on %s: missing trait %v, want Property", backend, missing.Trait)
		}
	}
	if err := planshape.CheckBackend(info, "ramcloud"); err == nil {
		t.Error("unknown backend must be rejected")
	}

	// Batch traits are fast paths with generic fallbacks; even if a plan's
	// info lists one as required it must not fail a backend without it.
	batchInfo := &planshape.Info{Requires: []grin.Trait{grin.TraitTopology, grin.TraitBatchScan}}
	if err := planshape.CheckBackend(batchInfo, "graphar"); err != nil {
		t.Errorf("batch traits must never be required: %v", err)
	}

	labeled := &ir.Plan{Ops: []*ir.Op{{Kind: ir.OpScan, Alias: "a", Label: graph.LabelID(1)}}}
	info, err = planshape.Verify(labeled)
	if err != nil {
		t.Fatal(err)
	}
	if deg := traitSet(planshape.Degraded(info, "csr")); !deg[grin.TraitProperty] {
		t.Errorf("label filter on csr should degrade Property, got %v", planshape.Degraded(info, "csr"))
	}
	if deg := planshape.Degraded(info, "vineyard"); len(deg) != 0 {
		t.Errorf("vineyard degrades nothing for a label filter, got %v", deg)
	}
}
