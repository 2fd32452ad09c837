// Per-call limits: the batch size and the row budget ride on each call's
// exec.Request, so one engine serves calls that differ in both.
package query_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/hiactor"
	"repro/internal/query/naive"
)

// TestPerCallBatchSize runs a query set on one Gaia engine (P = 2) and one
// HiActor engine per store, and changes the batch size from call to call:
// 1, 7, 1024, then 1 again, so the arenas and Gaia's batch pool hand a small
// batch out again after growing to a large one. Every call must return
// naive's multiset.
func TestPerCallBatchSize(t *testing.T) {
	defer query.CheckLeaks(t)()
	schema := dataset.SNBSchema()
	queries := []struct {
		text   string
		params map[string]graph.Value
	}{
		{`MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN id(p), f.firstName`, nil},
		{`MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post) WHERE m.length > 50 RETURN id(f), m.length`, nil},
		{`MATCH (p:Person)-[:KNOWS]->(f:Person) WITH p, COUNT(f) AS c RETURN id(p), c ORDER BY c DESC, id(p) LIMIT 10`, nil},
		{`MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person) RETURN COUNT(g) AS c`, nil},
		{`MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE id(p) = $pid RETURN f.firstName, f.birthday`,
			map[string]graph.Value{"pid": graph.IntValue(3)}},
	}
	for sname, g := range snbFixture(60, 31).storeMap(t, "vineyard", "gart") {
		ge := gaia.NewEngine(g, gaia.Options{Parallelism: 2})
		he := hiactor.NewEngine(func() grin.Graph { return g }, hiactor.Options{Shards: 1})
		defer he.Close()
		for qi, q := range queries {
			plan, err := cypher.Parse(q.text, schema)
			if err != nil {
				t.Fatal(err)
			}
			rows, out, err := naive.Run(context.Background(), plan, g, q.params)
			if err != nil {
				t.Fatal(err)
			}
			want := canonical(rows, out, g)
			if len(want) == 0 {
				t.Fatalf("query %d on %s returns no rows", qi, sname)
			}
			for _, eng := range []struct {
				name string
				e    queryEngine
			}{{"gaia", ge}, {"hiactor", he}} {
				c, err := eng.e.Compile(plan)
				if err != nil {
					t.Fatal(err)
				}
				for step, bs := range []int{1, 7, 1024, 1} {
					rows, err := eng.e.Run(context.Background(), c, exec.Request{Params: q.params, BatchSize: bs})
					if err != nil {
						t.Fatalf("query %d %s on %s bs=%d: %v", qi, eng.name, sname, bs, err)
					}
					mustEqual(t, fmt.Sprintf("query %d %s on %s call %d bs=%d", qi, eng.name, sname, step, bs), canonical(rows, c.Out, g), want)
				}
			}
		}
	}
}

// TestMaxRowsIsPerCall runs two calls at once on one HiActor engine, again
// and again: only the call carrying a row budget its query exceeds fails,
// with exec.ErrBudgetExceeded, and the other returns naive's rows.
func TestMaxRowsIsPerCall(t *testing.T) {
	defer query.CheckLeaks(t)()
	for sname, g := range snbFixture(60, 31).storeMap(t, "vineyard", "gart") {
		plan, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person) RETURN id(p), id(g)`, dataset.SNBSchema())
		if err != nil {
			t.Fatal(err)
		}
		rows, out, err := naive.Run(context.Background(), plan, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := canonical(rows, out, g)
		he := hiactor.NewEngine(func() grin.Graph { return g }, hiactor.Options{Shards: 2})
		defer he.Close()
		c, err := he.Compile(plan)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			var wg sync.WaitGroup
			var capped, free error
			var freeRows []exec.Row
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, capped = he.Run(context.Background(), c, exec.Request{MaxRows: 10})
			}()
			go func() {
				defer wg.Done()
				freeRows, free = he.Run(context.Background(), c, exec.Request{})
			}()
			wg.Wait()
			if !errors.Is(capped, exec.ErrBudgetExceeded) {
				t.Fatalf("%s round %d: the capped call returned %v, want exec.ErrBudgetExceeded", sname, i, capped)
			}
			if free != nil {
				t.Fatalf("%s round %d: the uncapped call failed: %v", sname, i, free)
			}
			mustEqual(t, fmt.Sprintf("%s round %d uncapped", sname, i), canonical(freeRows, c.Out, g), want)
		}
	}
}
