// Query texts a front end accepts but no engine may answer: exec.Compile
// rejects them on every engine and backend with a typed *exec.PlanError —
// never rows, never a *exec.PanicError out of a stage — and LIMIT 0, which is
// a query, answers with zero rows wherever it sits.
package query_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/grin"
	"repro/internal/query"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/gremlin"
	"repro/internal/query/hiactor"
	"repro/internal/query/ir"
	"repro/internal/query/naive"
)

func TestMalformedQueriesEndInCompileErrors(t *testing.T) {
	defer query.CheckLeaks(t)()
	schema := dataset.SNBSchema()
	parseCypher := func(src string) *ir.Plan {
		t.Helper()
		p, err := cypher.Parse(src, schema)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return p
	}
	type entry struct {
		name     string
		plan     *ir.Plan
		rejected bool // else: zero rows
	}
	entries := []entry{
		{"duplicate alias", parseCypher(`MATCH (p:Person) RETURN id(p) AS x, p.firstName AS x`), true},
		{"unknown function", parseCypher(`MATCH (p:Person) RETURN bogus(p)`), true},
		{"limit -1", parseCypher(`MATCH (p:Person) RETURN id(p) AS x LIMIT -1`), true},
		{"order by limit -1", parseCypher(`MATCH (p:Person) RETURN id(p) AS x ORDER BY x LIMIT -1`), true},
		{"limit 0", parseCypher(`MATCH (p:Person) RETURN id(p) AS x LIMIT 0`), false},
		{"order by limit 0", parseCypher(`MATCH (p:Person) RETURN id(p) AS x ORDER BY x LIMIT 0`), false},
	}
	for name, src := range map[string]string{
		"gremlin limit(0)":         `g.V().hasLabel('Person').limit(0)`,
		"gremlin order().limit(0)": `g.V().hasLabel('Person').order().by('firstName').limit(0)`,
	} {
		p, err := gremlin.Parse(src, schema)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		entries = append(entries, entry{name, p, false})
	}

	stores := snbFixture(16, 4).storeMap(t, "vineyard", "gart")
	for _, sname := range []string{"vineyard", "gart"} {
		g := stores[sname]
		gaiaEng := gaia.NewEngine(g, gaia.Options{Parallelism: 2})
		hiactorEng := hiactor.NewEngine(func() grin.Graph { return g }, hiactor.Options{Shards: 2})
		defer hiactorEng.Close()
		engines := map[string]func(*ir.Plan) ([]exec.Row, error){
			"gaia": func(p *ir.Plan) ([]exec.Row, error) {
				rows, _, err := gaiaEng.Submit(context.Background(), p, nil)
				return rows, err
			},
			"hiactor": func(p *ir.Plan) ([]exec.Row, error) {
				if err := hiactorEng.Install("q", p); err != nil {
					return nil, err
				}
				return hiactorEng.Call(context.Background(), "q", nil)
			},
			"naive": func(p *ir.Plan) ([]exec.Row, error) {
				rows, _, err := naive.Run(context.Background(), p, g, nil)
				return rows, err
			},
		}
		for _, e := range entries {
			for ename, run := range engines {
				rows, err := run(e.plan)
				var rejected *exec.PlanError
				switch {
				case e.rejected && !errors.As(err, &rejected):
					t.Errorf("%s, %s on %s: want a *exec.PlanError, got %d rows, err %v", e.name, ename, sname, len(rows), err)
				case !e.rejected && (err != nil || len(rows) != 0):
					t.Errorf("%s, %s on %s: want zero rows, got %d, err %v", e.name, ename, sname, len(rows), err)
				}
			}
		}
	}
}
