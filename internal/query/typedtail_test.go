// Oracles for the typed tail of a query — id() projected into an int column,
// ORDER comparing raw key payloads, count/sum/avg over a property gathered as
// one column — computed in the test from the store's own traits, because
// naive runs the same exec code as the engines under test.
package query_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/ir"
	"repro/internal/query/obsv"
	"repro/internal/storage/meter"
)

// typedTailQueries are the oracle's queries, by name.
var typedTailQueries = []struct{ name, text string }{
	// Posts: unlike Persons, their internal IDs are not their external ones.
	{"ids", `MATCH (m:Post) RETURN id(m) AS i ORDER BY i DESC LIMIT 7`},
	{"id pairs", `MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post) RETURN id(p) AS a, id(m) AS b ORDER BY a, b DESC`},
	{"bi1", `MATCH (m:Post) RETURN COUNT(m) AS n, avg(m.length) AS a`},
	{"post length", `MATCH (m:Post) RETURN COUNT(m) AS n, sum(m.length) AS s, avg(m.length) AS a`},
	// min() sends the same fold down the generic path.
	{"post length generic", `MATCH (m:Post) RETURN COUNT(m) AS n, sum(m.length) AS s, avg(m.length) AS a, min(m.length) AS lo`},
	{"length per creator", `MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post) WITH p, COUNT(m) AS n, avg(m.length) AS a RETURN id(p) AS i, n, a ORDER BY n DESC, i`},
	{"knows date", `MATCH (p:Person)-[k:KNOWS]->(f:Person) RETURN COUNT(k) AS n, sum(k.creationDate) AS s, avg(k.creationDate) AS a`},
	{"empty avg", `MATCH (m:Post) WHERE m.length > 1000000 RETURN COUNT(m) AS n, avg(m.length) AS a`},
}

// typedTailOracle computes every query's result rows from g's traits: IDs
// through grin.Index when g has it (internal IDs otherwise), neighbors and
// properties through grin.PropertyReader, sums added in the engines' row
// order (label scan order, then adjacency order).
func typedTailOracle(t *testing.T, g grin.Graph) map[string][]string {
	t.Helper()
	pr, ok := grin.AsPropertyReader(g)
	if !ok {
		t.Fatal("store has no property trait")
	}
	idx, hasIdx := grin.AsIndex(g)
	ext := func(v graph.VID) int64 {
		if hasIdx {
			return idx.ExternalID(v)
		}
		return int64(v)
	}
	label := func(l graph.LabelID) (vs []graph.VID) {
		grin.ScanLabel(g, l, func(v graph.VID) bool { vs = append(vs, v); return true })
		return vs
	}
	prop := func(v graph.VID, name string) int64 {
		x, _ := pr.VertexProp(v, pr.Schema().VertexPropID(pr.VertexLabel(v), name))
		return x.Int()
	}
	f := func(x float64) string { return graph.FloatValue(x).String() }
	out := map[string][]string{}

	var knowsN int64
	var knowsSum float64
	for _, p := range label(dataset.SNBPerson) {
		grin.ForEachNeighbor(g, p, graph.Out, func(nbr graph.VID, e graph.EID) bool {
			if pr.EdgeLabel(e) == dataset.SNBKnows {
				d, _ := pr.EdgeProp(e, pr.Schema().EdgePropID(dataset.SNBKnows, "creationDate"))
				knowsN++
				knowsSum += float64(d.Int())
			}
			return true
		})
	}
	out["knows date"] = []string{fmt.Sprintf("%d|%s|%s", knowsN, f(knowsSum), f(knowsSum/float64(knowsN)))}

	var ids []int64
	type pair struct{ a, b int64 }
	var pairs []pair
	var posts, minLen int64
	var lenSum float64
	type creator struct {
		id, n int64
		sum   float64
	}
	byCreator := map[graph.VID]*creator{}
	var creators []*creator
	for _, m := range label(dataset.SNBPost) {
		ids = append(ids, ext(m))
		l := prop(m, "length")
		if posts == 0 || l < minLen {
			minLen = l
		}
		posts++
		lenSum += float64(l)
		grin.ForEachNeighbor(g, m, graph.Out, func(p graph.VID, e graph.EID) bool {
			if pr.EdgeLabel(e) == dataset.SNBHasCreator {
				c := byCreator[p]
				if c == nil {
					c = &creator{id: ext(p)}
					byCreator[p] = c
					creators = append(creators, c)
				}
				c.n++
				c.sum += float64(l)
				pairs = append(pairs, pair{ext(p), ext(m)})
			}
			return true
		})
	}
	slices.SortFunc(ids, func(a, b int64) int { return int(b - a) })
	for _, id := range ids[:7] {
		out["ids"] = append(out["ids"], strconv.FormatInt(id, 10))
	}
	slices.SortFunc(pairs, func(x, y pair) int {
		if x.a != y.a {
			return int(x.a - y.a)
		}
		return int(y.b - x.b)
	})
	for _, pp := range pairs {
		out["id pairs"] = append(out["id pairs"], fmt.Sprintf("%d|%d", pp.a, pp.b))
	}
	out["bi1"] = []string{fmt.Sprintf("%d|%s", posts, f(lenSum/float64(posts)))}
	out["post length"] = []string{fmt.Sprintf("%d|%s|%s", posts, f(lenSum), f(lenSum/float64(posts)))}
	out["post length generic"] = []string{fmt.Sprintf("%s|%d", out["post length"][0], minLen)}
	slices.SortFunc(creators, func(x, y *creator) int {
		if x.n != y.n {
			return int(y.n - x.n)
		}
		return int(x.id - y.id)
	})
	for _, c := range creators {
		out["length per creator"] = append(out["length per creator"], fmt.Sprintf("%d|%d|%s", c.id, c.n, f(c.sum/float64(c.n))))
	}
	out["empty avg"] = []string{"0|null"}
	return out
}

// TestTypedTailMatchesStoreOracle runs the oracle's queries on vineyard,
// GART and vineyard without grin.Index, each bare and behind the chaos tap
// (which serves no typed-column gather, so the boxed gather feeds the typed
// fold there), on Gaia at each P and on HiActor at batch sizes 1, 7 and
// 1024. Every result must be the oracle's, which reads the store without the
// chaos tap, row for row, and the typed fold's avg must carry the generic
// fold's bits.
func TestTypedTailMatchesStoreOracle(t *testing.T) {
	f := snbFixture(40, 9)
	cells := grid{
		stores: []string{"vineyard", "gart"},
		views:  []view{bareView, chaosView, noIndexView, noIndexChaosView},
		runs:   runHiActor,
	}.cells(t, f)
	plans := make([]*ir.Plan, len(typedTailQueries))
	for i, q := range typedTailQueries {
		plans[i] = parse(t, "cypher", q.text, f.schema())
	}
	oracles := map[grin.Graph]map[string][]string{} // by the store without the chaos tap
	for _, c := range cells {
		want, ok := oracles[c.plain]
		if !ok {
			want = typedTailOracle(t, c.plain)
			oracles[c.plain] = want
		}
		avgBits := map[string]map[string]uint64{} // by engine, then query
		for i, q := range typedTailQueries {
			for _, a := range c.run(plans[i], exec.Request{}, nil) {
				name := fmt.Sprintf("%s, %s: %s", c, a, q.name)
				if a.err != nil {
					t.Fatalf("%s: %v", name, a.err)
				}
				mustExactEqual(t, name, renderRows(a.rows), want[q.name])
				if strings.HasPrefix(q.name, "post length") {
					if avgBits[a.String()] == nil {
						avgBits[a.String()] = map[string]uint64{}
					}
					avgBits[a.String()][q.name] = math.Float64bits(a.rows[0][2].Float())
				}
			}
		}
		for eng, bits := range avgBits {
			if typed, generic := bits["post length"], bits["post length generic"]; typed != generic {
				t.Errorf("%s, %s: typed avg bits %x, generic fold's %x", c, eng, typed, generic)
			}
		}
	}
}

// TestPropertyAggregateGathersOneColumn: BI1's avg(m.length) reads the
// property as one column gather per fold, not one scalar read per post (the
// meter counts a typed-column gather at its boxed site).
func TestPropertyAggregateGathersOneColumn(t *testing.T) {
	vy := snbFixture(40, 9).vineyard(t)
	plan, err := cypher.Parse(typedTailQueries[2].text, dataset.SNBSchema()) // bi1
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2} {
		stats := &obsv.StoreStats{}
		if _, _, err := gaia.NewEngine(meter.Wrap(vy, stats), gaia.Options{Parallelism: par}).Submit(context.Background(), plan, nil); err != nil {
			t.Fatal(err)
		}
		if n, cols := stats.Calls(grin.SiteVertexProp), stats.Calls(grin.SiteGatherVProp); n != 0 || cols != 1 {
			snap := stats.Snapshot()
			t.Errorf("P=%d: %d scalar VertexProp reads and %d column gathers, want 0 and 1:\n%s", par, n, cols, obsv.RenderStore(&snap))
		}
	}
}
