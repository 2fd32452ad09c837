package exec_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/exec"
	"repro/internal/query/expr"
	"repro/internal/query/ir"
	"repro/internal/storage/vineyard"
)

// oneCol binds every alias to row column 0.
type oneCol struct{}

func (oneCol) BindRef(_, prop string) (expr.BoundRef, error) {
	return expr.BoundRef{Col: 0, Prop: prop}, nil
}

func (oneCol) Need(grin.Trait, bool) {}

// TestProjectIDColumn: PROJECT id(a) over a typed vertex column types its
// output int and fills it with each vertex's external ID — the internal ID
// on a store without grin.Index — dense or under a selection. A batch with a
// NULL vertex takes the boxed path, where every row gets what the row
// evaluator gives it.
func TestProjectIDColumn(t *testing.T) {
	s := graph.NewSchema([]graph.VertexLabel{{Name: "N"}}, nil)
	b := graph.NewBatch(s)
	for i := 0; i < 6; i++ {
		b.AddVertex(0, int64(100+7*i))
	}
	vy, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	plan := &ir.Plan{Ops: []*ir.Op{
		{Kind: ir.OpScan, Alias: "a", Label: 0},
		{Kind: ir.OpProject, Items: []ir.ProjItem{{Expr: &expr.Expr{Kind: expr.KindCall, Fn: "id", Args: []*expr.Expr{v("a")}}, Alias: "i"}}},
	}}
	c, err := exec.Compile(plan, exec.Options{Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	proj := &c.Stages[1]
	if k := proj.OutKinds[0]; k != graph.KindInt {
		t.Fatalf("PROJECT types id(a) %v, want int", k)
	}
	idOf, err := expr.Bind(plan.Ops[1].Items[0].Expr, oneCol{})
	if err != nil {
		t.Fatal(err)
	}
	vk := []graph.Kind{graph.KindVertex}
	row := func(vals ...graph.Value) (rows [][]graph.Value) {
		for _, x := range vals {
			rows = append(rows, []graph.Value{x})
		}
		return rows
	}
	all := row(vtx(0), vtx(1), vtx(2), vtx(3), vtx(4), vtx(5))
	nulled := row(vtx(4), vtx(0), graph.NullValue, vtx(5))
	for _, st := range []struct {
		name string
		g    grin.Graph
		id   func(v int) int64
	}{
		{"vineyard", vy, func(v int) int64 { return int64(100 + 7*v) }},
		{"no index", struct {
			grin.Graph
			grin.PropertyReader
		}{vy, vy}, func(v int) int64 { return int64(v) }},
	} {
		for _, in := range []struct {
			name  string
			rows  [][]graph.Value
			sel   []int32
			typed bool
		}{
			{"dense", all, nil, true},
			{"selection", all, []int32{1, 3, 4}, true},
			{"NULL row", nulled, nil, false},
			{"NULL row under a selection", nulled, []int32{0, 2, 3}, false},
		} {
			name := fmt.Sprintf("%s, %s", st.name, in.name)
			batch := morsel(vk, in.sel, in.rows...)
			var want []string
			for i := 0; i < batch.Len(); i++ {
				x := batch.Value(i, 0)
				if x.IsNull() {
					got, err := idOf.Eval(&expr.BoundEnv{Graph: st.g}, []graph.Value{x})
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, got.String())
					continue
				}
				want = append(want, graph.IntValue(st.id(int(x.Vertex()))).String())
			}
			out := exec.NewBatchKinds(proj.OutLayout(), 0)
			if err := proj.RunMap(&exec.Env{Graph: st.g, Arena: new(exec.Arena)}, batch, out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, w := render(out), strings.Join(want, "\n"); got != w {
				t.Errorf("%s: ids\n%s\nwant\n%s", name, got, w)
			}
			if in.typed && out.Col(0).Typed() == nil {
				t.Errorf("%s: output demoted to boxed", name)
			}
		}
	}
}
