package ir

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/query/expr"
)

func TestOpKindStrings(t *testing.T) {
	kinds := []OpKind{OpScan, OpExpandEdge, OpGetVertex, OpExpandFused, OpMatch,
		OpSelect, OpProject, OpOrderBy, OpLimit, OpGroupBy, OpDedup}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate name for %d: %q", k, s)
		}
		seen[s] = true
	}
}

func samplePlan() *Plan {
	return &Plan{Ops: []*Op{
		{Kind: OpMatch, Pattern: []PatternEdge{
			{SrcAlias: "a", SrcLabel: 0, EdgeLabel: 0, Dir: graph.Out, DstAlias: "b", DstLabel: 0},
			{SrcAlias: "b", SrcLabel: 0, EdgeLabel: 1, Dir: graph.Out, DstAlias: "c", DstLabel: 1},
		}},
		{Kind: OpSelect, Pred: expr.MustParse("a.username = 'A1'")},
		{Kind: OpProject, Items: []ProjItem{
			{Expr: expr.Var("b", "username"), Alias: "name"},
			{Expr: expr.Var("c", "price"), Alias: "price"},
		}},
		{Kind: OpOrderBy, Keys: []SortKey{{Expr: expr.Var("price", ""), Desc: true}}, Limit: 5},
	}}
}

func TestPlanString(t *testing.T) {
	s := samplePlan().String()
	for _, want := range []string{"MATCH", "SELECT", "PROJECT", "ORDER", "limit=5", "desc"} {
		if !strings.Contains(s, want) {
			t.Fatalf("plan rendering missing %q:\n%s", want, s)
		}
	}
}

func TestOpStringCoversEveryKind(t *testing.T) {
	ops := []*Op{
		{Kind: OpScan, Alias: "a", Pred: expr.MustParse("a.x = 1")},
		{Kind: OpExpandEdge, FromAlias: "a", EdgeAlias: "e"},
		{Kind: OpGetVertex, EdgeAlias: "e", Alias: "b", Pred: expr.MustParse("b.y = 2")},
		{Kind: OpExpandFused, FromAlias: "a", Alias: "b", EdgeAlias: "e", Pred: expr.MustParse("b.y = 2")},
		{Kind: OpMatch, Pattern: []PatternEdge{{SrcAlias: "a", DstAlias: "b", Dir: graph.In}, {SrcAlias: "a", DstAlias: "c", Dir: graph.Both}}},
		{Kind: OpSelect, Pred: expr.MustParse("true")},
		{Kind: OpProject, Items: []ProjItem{{Expr: expr.Var("a", ""), Alias: "a"}}},
		{Kind: OpOrderBy, Keys: []SortKey{{Expr: expr.Var("a", "")}}},
		{Kind: OpLimit, Limit: 3},
		{Kind: OpGroupBy, Aggs: []Aggregate{{Fn: "sum", Arg: expr.Var("a", "x"), Alias: "s"}}},
		{Kind: OpDedup, DedupAliases: []string{"a"}},
	}
	for _, op := range ops {
		if op.String() == "" {
			t.Fatalf("empty render for %v", op.Kind)
		}
	}
}
