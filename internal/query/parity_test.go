package query_test

import (
	"context"

	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/gremlin"
	"repro/internal/query/hiactor"
	"repro/internal/query/ir"
	"repro/internal/query/naive"
	"repro/internal/storage/gart"
	"repro/internal/storage/graphar"
	"repro/internal/storage/livegraph"
	"repro/internal/storage/vineyard"
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

// runParityMatrix runs every case over the full engine × batch-size ×
// parallelism matrix against one store: naive against itself, Gaia against
// itself and against HiActor (same physical plan, serial vs data-parallel),
// and naive against Gaia as an order-insensitive multiset. This is what pins
// the batched storage paths row-for-row: a backend with native
// BatchAdjacency/BatchProps/BatchScan traits must produce exactly what the
// generic fallbacks produce.
func runParityMatrix(t *testing.T, st grin.Graph, schema *graph.Schema, cases []parityCase) {
	batchSizes := []int{1, 7, 1024}
	pars := []int{1, runtime.NumCPU()}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var plan *ir.Plan
			var err error
			if tc.lang == "gremlin" {
				plan, err = gremlin.Parse(tc.q, schema)
			} else {
				plan, err = cypher.Parse(tc.q, schema)
			}
			if err != nil {
				t.Fatal(err)
			}

			refRows, refOut, err := naive.Run(context.Background(), plan, st, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			refNaive := renderRows(refRows)

			var refGaia []string
			var refGaiaRows []exec.Row
			var refGaiaOut []string
			for _, bs := range batchSizes {
				rowsN, _, err := naive.RunWith(context.Background(), plan, st, exec.Request{Params: tc.params, BatchSize: bs})
				if err != nil {
					t.Fatalf("naive bs=%d: %v", bs, err)
				}
				mustExactEqual(t, fmt.Sprintf("naive bs=%d", bs), renderRows(rowsN), refNaive)

				for _, par := range pars {
					eng := gaia.NewEngine(st, gaia.Options{Parallelism: par})
					rowsG, outG, err := submit(context.Background(), eng, plan, exec.Request{Params: tc.params, BatchSize: bs})
					if err != nil {
						t.Fatalf("gaia bs=%d par=%d: %v", bs, par, err)
					}
					got := renderRows(rowsG)
					if refGaia == nil {
						refGaia, refGaiaRows, refGaiaOut = got, rowsG, outG
						continue
					}
					mustExactEqual(t, fmt.Sprintf("gaia bs=%d par=%d", bs, par), got, refGaia)
				}

				he := hiactor.NewEngine(func() grin.Graph { return st }, hiactor.Options{Shards: 2})
				rowsH, _, err := submit(context.Background(), he, plan, exec.Request{Params: tc.params, BatchSize: bs})
				he.Close()
				if err != nil {
					t.Fatalf("hiactor bs=%d: %v", bs, err)
				}
				mustExactEqual(t, fmt.Sprintf("hiactor bs=%d", bs), renderRows(rowsH), refGaia)
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

// snbBackends loads the same SNB batch into every property-bearing backend:
// vineyard (CSR + columns, all batch traits native), GART (MVCC snapshot,
// native batch traits over dynamic segments), and GraphAr (disk chunks, pure
// generic fallbacks).
func snbBackends(t *testing.T) map[string]grin.Graph {
	t.Helper()
	b := dataset.SNB(dataset.SNBOptions{Persons: 120, Seed: 9})

	vy, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}

	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(b); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := graphar.Write(dir, b, graphar.Options{ChunkSize: 64}); err != nil {
		t.Fatal(err)
	}
	ga, err := graphar.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ga.Close() })

	return map[string]grin.Graph{"vineyard": vy, "gart": gs.Latest(), "graphar": ga}
}

// TestEngineParityAcrossBatchSizesAndParallelism is the determinism contract
// of the batch runtime: over an SNB-style query mix, every engine returns
// row-for-row identical results at batch sizes {1, 7, 1024} and any
// parallelism, on every property-bearing storage backend.
func TestEngineParityAcrossBatchSizesAndParallelism(t *testing.T) {
	schema := dataset.SNBSchema()
	for name, st := range snbBackends(t) {
		t.Run(name, func(t *testing.T) {
			runParityMatrix(t, st, schema, snbParityCases)
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
	simple := dataset.Datagen("parity", 200, 4, 3)
	b := simple.ToBatch()
	schema := b.Schema

	stores := map[string]grin.Graph{}

	vy, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	stores["vineyard"] = vy

	gs := gart.NewStore(schema, 0)
	if err := gs.LoadBatch(b); err != nil {
		t.Fatal(err)
	}
	stores["gart"] = gs.Latest()

	dir := t.TempDir()
	if err := graphar.Write(dir, b, graphar.Options{ChunkSize: 64}); err != nil {
		t.Fatal(err)
	}
	ga, err := graphar.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ga.Close() })
	stores["graphar"] = ga

	cg, err := simple.ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	stores["csr"] = cg

	lg := livegraph.NewStore(simple.N)
	for i := range simple.Src {
		if err := lg.AddEdge(simple.Src[i], simple.Dst[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	stores["livegraph"] = lg

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

	for name, st := range stores {
		t.Run(name, func(t *testing.T) {
			runParityMatrix(t, st, schema, cases)
		})
	}
}
