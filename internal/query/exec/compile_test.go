// exec.Compile is the only code that knows a plan's shape, so the rules are
// pinned here: a table of malformed plans it must reject, each with the
// message fragment naming the defect, and the trait sets it derives while
// binding.
package exec_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/exec"
	"repro/internal/query/expr"
	"repro/internal/query/ir"
)

func degree(from, leaf string) *ir.Op {
	return &ir.Op{Kind: ir.OpExpandDegree, FromAlias: from, Alias: leaf, Label: graph.AnyLabel, EdgeLabel: graph.AnyLabel}
}

func countStar(weight string) *ir.Op {
	return &ir.Op{Kind: ir.OpGroupBy, Aggs: []ir.Aggregate{{Fn: "count", Alias: "c"}}, CountWeight: weight}
}

func scan(alias string) *ir.Op {
	return &ir.Op{Kind: ir.OpScan, Alias: alias, Label: graph.AnyLabel}
}

func v(alias string) *expr.Expr { return &expr.Expr{Kind: expr.KindVar, Alias: alias} }

func prop(alias, p string) *expr.Expr {
	return &expr.Expr{Kind: expr.KindVar, Alias: alias, Prop: p}
}

// TestCompileRejectsMalformedPlans is the negative table: every entry must be
// rejected with a message mentioning the defect. LIMIT 0 is a plan (it
// yields no rows); a negative count is not.
func TestCompileRejectsMalformedPlans(t *testing.T) {
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
		{"project duplicate alias", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpProject, Items: []ir.ProjItem{
				{Expr: v("a"), Alias: "x"}, {Expr: v("a"), Alias: "x"}}}}},
			`duplicate output alias "x"`},
		{"order no keys", &ir.Plan{Ops: []*ir.Op{scan("a"), {Kind: ir.OpOrderBy}}},
			"no sort keys"},
		{"order negative limit", &ir.Plan{Ops: []*ir.Op{scan("a"),
			{Kind: ir.OpOrderBy, Keys: []ir.SortKey{{Expr: v("a")}}, Limit: -1}}},
			"negative limit"},
		{"limit negative", &ir.Plan{Ops: []*ir.Op{scan("a"), {Kind: ir.OpLimit, Limit: -1}}},
			"LIMIT -1"},
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
			_, err := exec.Compile(tc.plan, exec.Options{})
			if err == nil {
				t.Fatalf("Compile accepted malformed plan:\n%s", tc.plan)
			}
			var rejected *exec.PlanError
			if !errors.As(err, &rejected) {
				t.Fatalf("error %q is a %T, want a *exec.PlanError", err, err)
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
	info, err := exec.Compile(structural, exec.Options{})
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
	info, err = exec.Compile(propPlan, exec.Options{})
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
	info, err = exec.Compile(idPlan, exec.Options{})
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
	info, err = exec.Compile(labeled, exec.Options{})
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
