package gremlin_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/query/exec"
	"repro/internal/query/gremlin"
	"repro/internal/query/optimizer"
)

// shopSchema is the e-commerce schema of internal/query's Gremlin tests.
func shopSchema() *graph.Schema {
	return graph.NewSchema(
		[]graph.VertexLabel{
			{Name: "Buyer", Props: []graph.PropDef{{Name: "username", Kind: graph.KindString}, {Name: "credits", Kind: graph.KindInt}}},
			{Name: "Item", Props: []graph.PropDef{{Name: "price", Kind: graph.KindFloat}}},
		},
		[]graph.EdgeLabel{
			{Name: "Knows", Src: 0, Dst: 0},
			{Name: "Buy", Src: 0, Dst: 1, Props: []graph.PropDef{{Name: "date", Kind: graph.KindInt}}},
		},
	)
}

// FuzzGremlinParse feeds arbitrary text to the Gremlin front end, against the
// SNB, the simple and the e-commerce schema. Nothing may panic: the parser
// rejects with an error or returns a plan, and a returned plan goes on
// through the optimizer (every rule on, and with no rule) and the compiler,
// which may reject it too — with an error. The seed corpus is the Gremlin
// entries of lint/plans.json and the Gremlin texts of internal/query's tests.
func FuzzGremlinParse(f *testing.F) {
	data, err := os.ReadFile("../../../lint/plans.json")
	if err != nil {
		f.Fatal(err)
	}
	var corpus struct {
		Plans []struct{ Lang, Query string }
	}
	if err := json.Unmarshal(data, &corpus); err != nil {
		f.Fatal(err)
	}
	for _, p := range corpus.Plans {
		if p.Lang == "gremlin" {
			f.Add(p.Query)
		}
	}
	for _, q := range []string{
		`g.V().hasLabel('Buyer').match(as('a').out('Knows').as('b'),
    as('b').out('Buy').as('c'))
 .filter(expr("a.username = 'A1'"))
 .select('b','c').by('username').by('price')`,
		`g.V().hasLabel('Buyer').has('username', 'A1').out('Knows').values('username')`,
		`g.V().hasLabel('Buyer').has('username', 'A1').in('Knows').values('username')`,
		`g.V().hasLabel('Buyer').out('Buy').in('Buy').dedup().values('username')`,
		`g.V().hasLabel('Item').count()`,
		`g.V().hasLabel('Item').has('price', gt(11.0)).values('price')`,
		`g.V().hasLabel('Item').order().by('price', desc).limit(2).values('price')`,
		`g.V().hasLabel('Nope')`,
		`g.V().out('Nope')`,
		`g.V().fancyStep()`,
		`g.V().hasLabel('Person').limit(0)`,
		`g.V().hasLabel('Person').order().by('firstName').limit(0)`,
		`g.V().hasLabel('Person').out('KNOWS').count()`,
		`g.V().hasLabel('Person').out('KNOWS').dedup().count()`,
		`g.V().hasLabel('Person').out('KNOWS').in('KNOWS').dedup().values('firstName')`,
		`g.V().hasLabel('Person').out('KNOWS').out('KNOWS').count()`,
		`g.V().out('E').in('E').dedup().count()`,
	} {
		f.Add(q)
	}
	schemas := []*graph.Schema{dataset.SNBSchema(), graph.SimpleSchema(true), shopSchema()}
	f.Fuzz(func(t *testing.T, src string) {
		for _, schema := range schemas {
			plan, err := gremlin.Parse(src, schema)
			if err != nil {
				continue
			}
			for _, opt := range []optimizer.Options{optimizer.All(), optimizer.None()} {
				phys, err := optimizer.Optimize(plan, nil, opt)
				if err != nil {
					continue
				}
				exec.Compile(phys, exec.Options{Schema: schema}) //nolint:errcheck // rejecting is fine, panicking is not
			}
		}
	})
}
