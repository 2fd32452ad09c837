package cypher_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/optimizer"
	"repro/internal/query/procedures"
)

// FuzzParse feeds arbitrary text to the Cypher front end. Nothing may panic:
// the parser rejects with an error or returns a plan, and a returned plan goes
// on through the optimizer (every rule on, and with no rule) and the
// compiler, which enforces the plan-shape rules and may reject it too — with
// an error. The seed corpus is every benchmark query text plus the Cypher
// entries of lint/plans.json, so the mutator starts from the shapes the
// optimizer's rewrites (pushdown, fusion, the EXPAND_DEGREE fold) actually
// fire on, plus the texts the compiler must refuse or answer with no rows
// (internal/query's TestMalformedQueriesEndInCompileErrors).
func FuzzParse(f *testing.F) {
	for _, qs := range [][]procedures.Query{procedures.Interactive(), procedures.Short(), procedures.BI()} {
		for _, q := range qs {
			f.Add(q.Cypher)
		}
	}
	data, err := os.ReadFile("../../../lint/plans.json")
	if err != nil {
		f.Fatal(err)
	}
	var corpus struct {
		Plans []struct{ Lang, Schema, Query string }
	}
	if err := json.Unmarshal(data, &corpus); err != nil {
		f.Fatal(err)
	}
	for _, p := range corpus.Plans {
		if p.Lang == "cypher" {
			f.Add(p.Query)
		}
	}
	for _, q := range []string{
		`MATCH (p:Person) RETURN id(p) AS x, p.firstName AS x`,
		`MATCH (p:Person) RETURN id(p) AS x ORDER BY x LIMIT 0`,
		`MATCH (p:Person) RETURN id(p) AS x LIMIT -1`,
		`MATCH (p:Person) RETURN bogus(p)`,
		`MATCH (p:Person) RETURN id(p) AS x ORDER BY x LIMIT -1`,
	} {
		f.Add(q)
	}
	schema := dataset.SNBSchema()
	f.Fuzz(func(t *testing.T, src string) {
		plan, err := cypher.Parse(src, schema)
		if err != nil {
			return
		}
		for _, opt := range []optimizer.Options{optimizer.All(), optimizer.None()} {
			phys, err := optimizer.Optimize(plan, nil, opt)
			if err != nil {
				continue
			}
			exec.Compile(phys, exec.Options{Schema: schema}) //nolint:errcheck // rejecting is fine, panicking is not
		}
	})
}
