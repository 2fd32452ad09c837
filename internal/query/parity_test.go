package query_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/query/exec"
)

// renderRows serializes result rows in order for exact (order-sensitive)
// comparison.
func renderRows(rows []exec.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func mustExactEqual(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: row counts differ: %d vs %d\ngot=%v\nwant=%v", name, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d differs: %q vs %q", name, i, got[i], want[i])
		}
	}
}

// parityCase is one query of the determinism contract.
type parityCase struct {
	name   string
	lang   string
	q      string
	params map[string]graph.Value
	// crossEngine also checks naive-vs-Gaia as a multiset; plain LIMIT
	// without ORDER legitimately keeps different rows per plan shape.
	crossEngine bool
}

// parityEngines are the parity matrix's engines: HiActor runs the serial
// driver, so a serial cell would repeat it.
const parityEngines = runNaive | runHiActor

// runParityMatrix runs every case on the named store's cells: naive against
// itself at every batch size, Gaia at each P and HiActor (the same physical
// plan, data-parallel vs serial) row for row against Gaia's first answer,
// and naive against Gaia as an order-insensitive multiset. This is what pins
// the batched storage paths row-for-row: a backend with native
// BatchAdjacency/BatchProps/BatchScan traits must produce exactly what the
// generic fallbacks produce.
func runParityMatrix(t *testing.T, f *fixture, store string, cells []*cell, cases []parityCase) {
	st := f.store(t, store)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := parse(t, tc.lang, tc.q, f.schema())
			refRows, refOut := f.ref(t, store, plan, tc.q, tc.params)
			refNaive := renderRows(refRows)

			var refGaia []string
			var refGaiaRows []exec.Row
			var refGaiaOut []string
			for _, c := range cells {
				if c.store != store {
					continue
				}
				for _, a := range c.run(plan, exec.Request{Params: tc.params}, nil) {
					name := fmt.Sprintf("%s on %s", a, c)
					if a.err != nil {
						t.Fatalf("%s: %v", name, a.err)
					}
					got := renderRows(a.rows)
					switch {
					case a.engine == "naive":
						mustExactEqual(t, name, got, refNaive)
					case refGaia == nil:
						refGaia, refGaiaRows, refGaiaOut = got, a.rows, a.out
					default:
						mustExactEqual(t, name, got, refGaia)
					}
				}
			}

			if tc.crossEngine {
				mustEqual(t, "naive-vs-gaia",
					canonical(refRows, refOut, st), canonical(refGaiaRows, refGaiaOut, st))
			} else if len(refNaive) != len(refGaia) {
				t.Fatalf("row counts differ: naive %d vs gaia %d", len(refNaive), len(refGaia))
			}
		})
	}
}

// snbParityCases is the SNB-style query mix over the property-bearing
// backends.
var snbParityCases = []parityCase{
	{
		name: "expand-project", lang: "cypher", crossEngine: true,
		q: `MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN f.firstName`,
	},
	{
		name: "two-hop-filter", lang: "cypher", crossEngine: true,
		q: `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:LIKES]->(po:Post)
WHERE p.creationDate > 5 RETURN f.firstName, po.creationDate`,
	},
	{
		name: "group-order-limit", lang: "cypher", crossEngine: true,
		q: `MATCH (p:Person)-[:KNOWS]->(f:Person)
WITH p, COUNT(f) AS c
RETURN p.firstName AS name, c
ORDER BY c DESC, name
LIMIT 7`,
	},
	{
		name: "parameterized-point", lang: "cypher", crossEngine: true,
		q: `MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post)
WHERE id(p) = $pid RETURN m.creationDate`,
		params: map[string]graph.Value{"pid": graph.IntValue(11)},
	},
	{
		name: "multi-edge-cbo", lang: "cypher", crossEngine: true,
		q: `MATCH (m:Post)-[:HAS_TAG]->(t:Tag), (m)-[:HAS_CREATOR]->(p:Person)
WHERE id(p) = 4 RETURN t.name`,
	},
	{
		name: "order-limit-topk", lang: "cypher", crossEngine: true,
		q: `MATCH (p:Person)-[:LIKES]->(m:Post)
RETURN p.firstName AS name, m.creationDate AS d
ORDER BY d DESC, name
LIMIT 13`,
	},
	{
		name: "dedup", lang: "gremlin", crossEngine: true,
		q: `g.V().hasLabel('Person').out('KNOWS').in('KNOWS').dedup().values('firstName')`,
	},
	{
		name: "limit-short-circuit", lang: "cypher", crossEngine: false,
		q: `MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN f.firstName LIMIT 13`,
	},
}

// TestEngineParityAcrossBatchSizesAndParallelism is the determinism contract
// of the batch runtime: over an SNB-style query mix, every engine returns
// row-for-row identical results at batch sizes {1, 7, 1024} and any
// parallelism, on every property-bearing storage backend.
func TestEngineParityAcrossBatchSizesAndParallelism(t *testing.T) {
	f := snbFixture(120, 9)
	stores := []string{"vineyard", "gart", "graphar"}
	cells := grid{stores: stores, views: []view{bareView}, runs: parityEngines}.cells(t, f)
	for _, name := range stores {
		t.Run(name, func(t *testing.T) {
			runParityMatrix(t, f, name, cells, snbParityCases)
		})
	}
}

// TestEngineParityStructuralAllBackends runs a property-free (structural)
// query mix over ALL five storage backends, including the simple-graph
// stores (csr, livegraph) that have no property trait: scans fall back to
// full-range iteration, expansions exercise BatchAdjacency or its fallback,
// and id() degrades to internal IDs where the index trait is absent. This
// pins the graceful-degradation matrix end to end.
func TestEngineParityStructuralAllBackends(t *testing.T) {
	f := datagenFixture(200, 4, 3)
	stores := []string{"vineyard", "gart", "graphar", "csr", "livegraph"}
	cells := grid{stores: stores, views: []view{bareView}, runs: parityEngines}.cells(t, f)

	cases := []parityCase{
		{
			name: "expand-ids", lang: "cypher", crossEngine: true,
			q: `MATCH (a:V)-[:E]->(b:V) RETURN id(a) AS x, id(b) AS y`,
		},
		{
			name: "both-direction", lang: "cypher", crossEngine: true,
			q: `MATCH (a:V)-[:E]-(b:V) RETURN id(a) AS x, id(b) AS y`,
		},
		{
			name: "two-hop-count", lang: "cypher", crossEngine: true,
			q: `MATCH (a:V)-[:E]->(b:V)-[:E]->(c:V) RETURN COUNT(c) AS n`,
		},
		{
			name: "order-limit", lang: "cypher", crossEngine: true,
			q: `MATCH (a:V)-[:E]->(b:V) RETURN id(b) AS x ORDER BY x DESC, id(a) LIMIT 9`,
		},
		{
			name: "gremlin-dedup", lang: "gremlin", crossEngine: true,
			q: `g.V().out('E').in('E').dedup().count()`,
		},
		{
			name: "limit-short-circuit", lang: "cypher", crossEngine: false,
			q: `MATCH (a:V)-[:E]->(b:V) RETURN id(b) LIMIT 13`,
		},
	}

	for _, name := range stores {
		t.Run(name, func(t *testing.T) {
			runParityMatrix(t, f, name, cells, cases)
		})
	}
}
