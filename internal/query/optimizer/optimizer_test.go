package optimizer

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/grin/grintest"
	"repro/internal/query/cypher"
	"repro/internal/query/expr"
	"repro/internal/query/ir"
	"repro/internal/storage/chaos"
	"repro/internal/storage/gart"
	"repro/internal/storage/vineyard"
)

func snbCatalog(t *testing.T) *Catalog {
	t.Helper()
	b := dataset.SNB(dataset.SNBOptions{Persons: 150, Seed: 2})
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	return BuildCatalog(st)
}

func TestCatalogStatistics(t *testing.T) {
	cat := snbCatalog(t)
	if cat.VertexCount[dataset.SNBPerson] != 150 {
		t.Fatalf("person count %v", cat.VertexCount[dataset.SNBPerson])
	}
	if cat.VertexCount[dataset.SNBPost] != 450 {
		t.Fatalf("post count %v", cat.VertexCount[dataset.SNBPost])
	}
	// HAS_CREATOR: every post has exactly one creator.
	if got := cat.AvgOutDeg[dataset.SNBHasCreator]; got < 0.99 || got > 1.01 {
		t.Fatalf("avg out deg HAS_CREATOR = %v", got)
	}
	// Expansion factors default to 1 for unknown labels.
	if cat.expandFactor(99, graph.Out) != 1 {
		t.Fatal("unknown expand factor should be 1")
	}
}

// TestCatalogIsTheSameAskedOrWalked: the counts a store with label ranges and
// label-segmented adjacency is asked for are the counts the walk finds — on
// SNB, and on a schema with an open-ended edge label, an edge label without
// edges (no entry either way) and a vertex label without vertices — over the
// same store with the trait hidden, over a chaos tap (which declines the
// trait's calls), and over GART, which has neither ranges nor segments.
func TestCatalogIsTheSameAskedOrWalked(t *testing.T) {
	s := graph.NewSchema(
		[]graph.VertexLabel{{Name: "A"}, {Name: "Empty"}, {Name: "B"}},
		[]graph.EdgeLabel{
			{Name: "AB", Src: 0, Dst: 2},
			{Name: "Unused", Src: 0, Dst: 0},
			{Name: "Open", Src: graph.AnyLabel, Dst: graph.AnyLabel},
		},
	)
	open := graph.NewBatch(s)
	for i := 0; i < 9000; i++ { // more than one block of the degree sweep
		open.AddVertex(graph.LabelID(2*(i%2)), int64(i))
	}
	for i := 0; i < 9000; i += 2 {
		open.AddEdge(0, int64(i), int64(i+1))
		open.AddEdge(2, int64(i+1), int64((i*7)%9000))
		open.AddEdge(2, int64(i), int64(i))
	}
	for name, b := range map[string]*graph.Batch{"snb": dataset.SNB(dataset.SNBOptions{Persons: 150, Seed: 2}), "open": open} {
		st, err := vineyard.Load(b)
		if err != nil {
			t.Fatal(err)
		}
		gs := gart.NewStore(b.Schema, 0)
		if err := gs.LoadBatch(b); err != nil {
			t.Fatal(err)
		}
		asked := BuildCatalog(st)
		if len(asked.EdgeCount) == 0 || asked.Total == 0 {
			t.Fatalf("%s: empty catalog %+v", name, asked)
		}
		for view, g := range map[string]grin.Graph{
			"unsegmented": grintest.Unsegmented(st), "chaos": chaos.Wrap(st, chaos.Options{}), "gart": gs.Latest(),
		} {
			if walked := BuildCatalog(g); !reflect.DeepEqual(asked, walked) {
				t.Errorf("%s: vineyard says\n%+v\n%s says\n%+v", name, asked, view, walked)
			}
		}
	}
}

func TestCBOStartsAtSelectiveVertex(t *testing.T) {
	cat := snbCatalog(t)
	schema := dataset.SNBSchema()
	// Written badly: starts from all posts; the predicate pins one person.
	q := `MATCH (m:Post)-[:HAS_CREATOR]->(p:Person)
WHERE id(p) = 5
RETURN COUNT(m) AS c`
	plan, err := cypher.Parse(q, schema)
	if err != nil {
		t.Fatal(err)
	}
	withCBO, err := Optimize(plan, cat, All())
	if err != nil {
		t.Fatal(err)
	}
	s := withCBO.String()
	if !strings.Contains(s, "SCAN label=0 alias=p") {
		t.Fatalf("CBO should scan the pinned person first:\n%s", s)
	}
	without, err := Optimize(plan, cat, Options{EdgeVertexFusion: true, FilterPushIntoMatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(without.String(), "SCAN label=2 alias=m") {
		t.Fatalf("without CBO the written order (posts) should stay:\n%s", without)
	}
}

func TestPushdownRespectsSegments(t *testing.T) {
	cat := snbCatalog(t)
	schema := dataset.SNBSchema()
	// The post-aggregation filter (cnt > 1) must NOT be pushed into the scan.
	q := `MATCH (p:Person)-[:KNOWS]->(f:Person)
WITH p, COUNT(f) AS cnt
WHERE cnt > 1
RETURN id(p)`
	plan, err := cypher.Parse(q, schema)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(plan, cat, All())
	if err != nil {
		t.Fatal(err)
	}
	s := opt.String()
	if !strings.Contains(s, "SELECT (cnt > 1)") {
		t.Fatalf("aggregate filter lost or wrongly pushed:\n%s", s)
	}
}

func TestFusionToggle(t *testing.T) {
	pattern := []ir.PatternEdge{{
		SrcAlias: "a", SrcLabel: dataset.SNBPerson,
		EdgeLabel: dataset.SNBKnows, Dir: graph.Out,
		DstAlias: "b", DstLabel: dataset.SNBPerson,
	}}
	plan := &ir.Plan{Ops: []*ir.Op{{Kind: ir.OpMatch, Pattern: pattern}}}
	fused, err := Optimize(plan, nil, Options{EdgeVertexFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fused.String(), "EXPAND_FUSED") {
		t.Fatal("fusion missing")
	}
	unfused, err := Optimize(plan, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := unfused.String()
	if !strings.Contains(s, "EXPAND_EDGE") || !strings.Contains(s, "GET_VERTEX") {
		t.Fatalf("unfused plan should keep the operator pair:\n%s", s)
	}
}

func TestMultiConjunctPushdown(t *testing.T) {
	pattern := []ir.PatternEdge{{
		SrcAlias: "a", SrcLabel: dataset.SNBPerson,
		EdgeLabel: dataset.SNBKnows, Dir: graph.Out,
		DstAlias: "b", DstLabel: dataset.SNBPerson,
	}}
	plan := &ir.Plan{Ops: []*ir.Op{
		{Kind: ir.OpMatch, Pattern: pattern},
		{Kind: ir.OpSelect, Pred: expr.MustParse("a.firstName = 'Wei' AND b.firstName = 'Ana' AND a.creationDate < b.creationDate")},
	}}
	opt, err := Optimize(plan, nil, Options{EdgeVertexFusion: true, FilterPushIntoMatch: true})
	if err != nil {
		t.Fatal(err)
	}
	s := opt.String()
	// Single-alias conjuncts pushed into the scan/expansion; the cross-alias
	// one stays as a SELECT.
	if !strings.Contains(s, `SCAN label=0 alias=a pred=(a.firstName = 'Wei')`) {
		t.Fatalf("a-predicate not pushed:\n%s", s)
	}
	if !strings.Contains(s, `pred=(b.firstName = 'Ana')`) {
		t.Fatalf("b-predicate not pushed:\n%s", s)
	}
	if !strings.Contains(s, "SELECT (a.creationDate < b.creationDate)") {
		t.Fatalf("cross-alias predicate lost:\n%s", s)
	}
}

func TestEmptyMatchRejected(t *testing.T) {
	plan := &ir.Plan{Ops: []*ir.Op{{Kind: ir.OpMatch}}}
	if _, err := Optimize(plan, nil, All()); err == nil {
		t.Fatal("empty MATCH accepted")
	}
}

// TestCountedLeafFoldsIntoExpandDegree pins the EXPAND_DEGREE rule on BI5's
// shape, whose counted leaf the cost model used to start from: the leaf is
// never the scan, its edge is scheduled last, the expansion into it becomes
// EXPAND_DEGREE, the expansion into m — referenced by nothing else — becomes
// the degree's one Via hop, and the GROUP counts by its weight column.
func TestCountedLeafFoldsIntoExpandDegree(t *testing.T) {
	cat := snbCatalog(t)
	schema := dataset.SNBSchema()
	plan, err := cypher.Parse(`MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post)<-[:LIKES]-(liker:Person)
WITH p, COUNT(liker) AS likes
RETURN id(p), likes`, schema)
	if err != nil {
		t.Fatal(err)
	}
	before := plan.String()
	opt, err := Optimize(plan, cat, All())
	if err != nil {
		t.Fatal(err)
	}
	if plan.String() != before {
		t.Fatalf("Optimize modified its input:\n%s", plan)
	}
	s := opt.String()
	for _, want := range []string{
		"SCAN label=0 alias=p",
		"EXPAND_DEGREE from=p via=m(elabel=1 dir=in vlabel=2) elabel=6 dir=in count=liker vlabel=0",
		"GROUP keys=[p] aggs=[count(*) AS likes] weight=#deg:liker",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("plan lacks %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "EXPAND_FUSED") {
		t.Fatalf("the expansion into m should be a hop of the degree:\n%s", s)
	}
	// Without the CBO the written order stands: where that scans the counted
	// vertex there is no expansion into it, and nothing folds.
	scanned, err := cypher.Parse(`MATCH (liker:Person)-[:LIKES]->(m:Post) WITH m, COUNT(liker) AS likes RETURN id(m), likes`, schema)
	if err != nil {
		t.Fatal(err)
	}
	written, err := Optimize(scanned, cat, Options{EdgeVertexFusion: true, FilterPushIntoMatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := written.String(); strings.Contains(s, "EXPAND_DEGREE") || !strings.Contains(s, "aggs=[count(liker) AS likes]") {
		t.Fatalf("written order must not fold:\n%s", s)
	}
	if ordered, err := Optimize(scanned, cat, All()); err != nil || !strings.Contains(ordered.String(), "EXPAND_DEGREE from=m") {
		t.Fatalf("the CBO should start at m and fold (%v):\n%s", err, ordered)
	}
	// Without fusion there is no EXPAND_FUSED to rewrite and no hint either:
	// the plan is the parent's.
	unfused, err := Optimize(plan, cat, Options{FilterPushIntoMatch: true, CBO: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := unfused.String(); strings.Contains(s, "EXPAND_DEGREE") || !strings.Contains(s, "SCAN label=0 alias=liker") {
		t.Fatalf("unfused plan changed:\n%s", s)
	}
}

// TestFoldCarriesWeightThroughLaterExpansions: with the written order kept,
// the counted expansion may sit before another one; the fold still applies —
// the later expansion multiplies weighted rows — unless that expansion starts
// at the counted neighbor.
func TestFoldCarriesWeightThroughLaterExpansions(t *testing.T) {
	schema := dataset.SNBSchema()
	opts := Options{EdgeVertexFusion: true}
	carried, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person), (p)-[:IS_LOCATED_IN]->(pl:Place)
RETURN pl.name, COUNT(f) AS c`, schema)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(carried, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := opt.String(); !strings.Contains(s, "EXPAND_DEGREE from=p") || !strings.Contains(s, "EXPAND_FUSED from=p") {
		t.Fatalf("the first expansion should fold and the second carry its weight:\n%s", s)
	}
	chained, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person)-[:IS_LOCATED_IN]->(pl:Place)
RETURN pl.name, COUNT(f) AS c`, schema)
	if err != nil {
		t.Fatal(err)
	}
	opt, err = Optimize(chained, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := opt.String(); strings.Contains(s, "EXPAND_DEGREE") {
		t.Fatalf("an expansion starts at the counted vertex; nothing may fold:\n%s", s)
	}
}
