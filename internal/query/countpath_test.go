// Generated parity for the inward half of the EXPAND_DEGREE fold: count-only
// chains of several hops, which fold into one EXPAND_DEGREE walking a hop
// path, run on every engine × backend × batch size × parallelism, bare and
// behind the chaos wrapper, and compared as multisets with naive.
package query_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/optimizer"
)

// genCountPath draws one count-only chain of 2–4 hops over the SNB schema
// (one in eight is 4 hops long: their unfolded prefixes dominate the run
// time), each hop forward or backward and sometimes with an edge alias
// nothing references, counting the last vertex or `*`, keyed by the first
// vertex or global. Nothing but the COUNT touches a vertex past the first,
// so the counted hop always folds; how many hops before it fold depends on
// where the cost model starts the chain.
func genCountPath(rng *rand.Rand, schema *graph.Schema) string {
	hops := 2 + rng.Intn(2)
	if rng.Intn(8) == 0 {
		hops = 4
	}
	cur := schema.Vertices[rng.Intn(len(schema.Vertices))].Name
	var b strings.Builder
	fmt.Fprintf(&b, "MATCH (v0:%s)", cur)
	for h := 1; h <= hops; h++ {
		type step struct {
			edge, next string
			fwd        bool
		}
		var steps []step
		for _, e := range schema.Edges {
			if schema.Vertices[e.Src].Name == cur {
				steps = append(steps, step{e.Name, schema.Vertices[e.Dst].Name, true})
			}
			if schema.Vertices[e.Dst].Name == cur {
				steps = append(steps, step{e.Name, schema.Vertices[e.Src].Name, false})
			}
		}
		s := steps[rng.Intn(len(steps))]
		ealias := ""
		if rng.Intn(4) == 0 {
			ealias = fmt.Sprintf("e%d", h)
		}
		if s.fwd {
			fmt.Fprintf(&b, "-[%s:%s]->(v%d:%s)", ealias, s.edge, h, s.next)
		} else {
			fmt.Fprintf(&b, "<-[%s:%s]-(v%d:%s)", ealias, s.edge, h, s.next)
		}
		cur = s.next
	}
	counted := "*"
	if rng.Intn(2) == 0 {
		counted = fmt.Sprintf("v%d", hops)
	}
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, "\nRETURN COUNT(%s) AS c", counted)
	} else {
		fmt.Fprintf(&b, "\nWITH v0, COUNT(%s) AS c\nRETURN id(v0) AS k, c", counted)
	}
	return b.String()
}

// TestGeneratedCountPathParity is the generated matrix for folded paths.
// Every chain must compile with exactly one EXPAND_DEGREE, at least half of
// them must fold a hop before the counted one, and every engine must return
// naive's multiset on every cell.
func TestGeneratedCountPathParity(t *testing.T) {
	schema := dataset.SNBSchema()
	f := snbFixture(16, 4)
	cells := grid{
		stores: []string{"vineyard", "gart", "livegraph"},
		views:  []view{bareView, chaosView},
		runs:   runHiActor | runSerial,
	}.cells(t, f)

	rng := rand.New(rand.NewSource(20261017))
	cat := optimizer.BuildCatalog(f.store(t, "vineyard"))
	const n = 16
	pathFolds, byHops := 0, map[int]int{}
	for qi := 0; qi < n; qi++ {
		text := genCountPath(rng, schema)
		plan, err := cypher.Parse(text, schema)
		if err != nil {
			t.Fatalf("query %d: %v\n%s", qi, err, text)
		}
		phys, err := optimizer.Optimize(plan, cat, optimizer.All())
		if err != nil {
			t.Fatalf("query %d: %v\n%s", qi, err, text)
		}
		if _, err := exec.Compile(phys, exec.Options{}); err != nil {
			t.Fatalf("query %d: %v\n%s\n%s", qi, err, text, phys)
		}
		if foldCount(phys) != 1 {
			t.Fatalf("query %d: %d EXPAND_DEGREE, want 1\n%s\n%s", qi, foldCount(phys), text, phys)
		}
		byHops[viaHops(phys)]++
		if viaHops(phys) > 0 {
			pathFolds++
		}
		want := map[string]string{}
		for _, c := range cells {
			ref, ok := want[c.store]
			if !ok {
				rows, out := f.ref(t, c.store, plan, text, nil)
				ref = strings.Join(canonical(rows, out, c.st), "\n")
				want[c.store] = ref
			}
			for _, a := range c.run(plan, exec.Request{}, nil) {
				if a.err != nil {
					t.Fatalf("query %d %s on %s: %v\n%s", qi, a, c, a.err, text)
				}
				if got := strings.Join(canonical(a.rows, a.out, c.st), "\n"); got != ref {
					t.Fatalf("query %d %s on %s:\n%s\n%s\ngot\n%s\nwant\n%s", qi, a, c, text, phys, got, ref)
				}
			}
		}
	}
	if pathFolds < n/2 {
		t.Fatalf("%d of %d generated chains fold a hop before the counted one; the generator misses the path fold", pathFolds, n)
	}
	t.Logf("%d of %d generated chains fold a hop before the counted one; chains by hops folded: %v", pathFolds, n, byHops)
}
