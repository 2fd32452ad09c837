package query_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/hiactor"
	"repro/internal/query/naive"
	"repro/internal/storage/chaos"
	"repro/internal/storage/column"
)

// TestProjectScratchRolesDoNotAlias pins the role separation of the arena's
// scratch fields. The PROJECT below mixes, over a batch that carries the
// selection vector of the pushed filter, a columnar property gather, a
// computed expression reading two more properties per row, a boxed per-row
// item, and a second gather after them — so the stage's value column, its ID
// column and evalColumn's own ID column and row bridge are all live in one
// pass. Expected rows come from walking the store directly, not from another
// engine, so a shared aliasing bug cannot cancel out. Runs with the columnar
// gather trait (vineyard) and without it (the chaos hook declines every typed
// gather, sending it through the boxed path).
func TestProjectScratchRolesDoNotAlias(t *testing.T) {
	st := snbFixture(120, 9).vineyard(t)
	schema := dataset.SNBSchema()
	plan, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE f.birthday % 3 = 0
RETURN f.firstName, f.birthday + p.creationDate, coalesce(f.lastName, 'x'), p.browserUsed`, schema)
	if err != nil {
		t.Fatal(err)
	}

	prop := func(v graph.VID, name string) graph.Value {
		val, _ := st.VertexProp(v, schema.VertexPropID(dataset.SNBPerson, name))
		return val
	}
	var want []string
	st.ScanVertices(dataset.SNBPerson, nil, func(p graph.VID) bool {
		st.Neighbors(p, graph.Out, func(f graph.VID, e graph.EID) bool {
			if st.EdgeLabel(e) != dataset.SNBKnows || prop(f, "birthday").Int()%3 != 0 {
				return true
			}
			want = append(want, fmt.Sprintf("%s|%d|%s|%s", prop(f, "firstName").Str(),
				prop(f, "birthday").Int()+prop(p, "creationDate").Int(), prop(f, "lastName").Str(), prop(p, "browserUsed").Str()))
			return true
		})
		return true
	})
	if len(want) < 50 {
		t.Fatalf("only %d expected rows; the store is too small to fill a batch", len(want))
	}
	sort.Strings(want)

	stores := map[string]grin.Graph{"vineyard": st, "chaos(vineyard)": chaos.Wrap(st, chaos.Options{})}
	typed := func(g grin.Graph) bool {
		return grin.GatherVertexPropCol(g, []graph.VID{0}, "firstName", column.New(graph.KindString))
	}
	if direct, wrapped := typed(st), typed(stores["chaos(vineyard)"]); !direct || wrapped {
		t.Fatal("the two stores must differ in grin.BatchPropsCol")
	}
	for name, g := range stores {
		for _, bs := range []int{1, 7, 1024} {
			check := func(engine string, rows []exec.Row, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s %s bs=%d: %v", name, engine, bs, err)
				}
				got := make([]string, len(rows))
				for i, r := range rows {
					got[i] = fmt.Sprintf("%s|%d|%s|%s", r[0].Str(), r[1].Int(), r[2].Str(), r[3].Str())
				}
				sort.Strings(got)
				mustExactEqual(t, fmt.Sprintf("%s %s bs=%d", name, engine, bs), got, want)
			}
			rows, _, err := naive.RunWith(context.Background(), plan, g, exec.Request{BatchSize: bs})
			check("naive", rows, err)
			rows, _, err = submit(context.Background(), gaia.NewEngine(g, gaia.Options{Parallelism: 2}), plan, exec.Request{BatchSize: bs})
			check("gaia", rows, err)
			he := hiactor.NewEngine(func() grin.Graph { return g }, hiactor.Options{Shards: 1})
			rows, _, err = submit(context.Background(), he, plan, exec.Request{BatchSize: bs})
			he.Close()
			check("hiactor", rows, err)
		}
	}
}
