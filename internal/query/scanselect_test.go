// A predicated SCAN is a source that proposes candidates and a SELECT that
// decides: the id lookup only narrows the candidates, so its key coercion
// never shows in a result, and the predicate runs through the same fused
// filter as any SELECT.
package query_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/expr"
	"repro/internal/query/gaia"
	"repro/internal/query/ir"
	"repro/internal/query/obsv"
	"repro/internal/storage/meter"
)

// idKeyOracle is `MATCH (p:Person) WHERE id(p) = key RETURN id(p)` computed
// from the store's grin.Index: a key equals an ID only if it is an int or a
// float with an integral value; a string, a bool or NULL equals none.
func idKeyOracle(t *testing.T, g grin.Graph, key graph.Value) []string {
	t.Helper()
	idx, ok := grin.AsIndex(g)
	if !ok {
		t.Fatal("store has no index trait")
	}
	var k int64
	switch key.K {
	case graph.KindInt:
		k = key.I
	case graph.KindFloat:
		if key.F != math.Trunc(key.F) {
			return nil
		}
		k = int64(key.F)
	default:
		return nil
	}
	v, found := idx.LookupVertex(dataset.SNBPerson, k)
	if !found {
		return nil
	}
	return []string{strconv.FormatInt(idx.ExternalID(v), 10)}
}

// TestEngineParityIDLookupKeys: an `id(p) = key` start returns the person
// whose ID equals the key and nothing else, for every kind of key, given as a
// parameter or as a literal, on every engine of the grid (naive never looks
// up) at batch sizes 1, 7 and 1024, over vineyard and GART, each bare and
// behind the chaos tap. The lookup coerces its key to an int; a result that
// trusted it would return person 3 for 3.5, person 0 for "x" and NULL, and
// person 1 for true.
func TestEngineParityIDLookupKeys(t *testing.T) {
	f := snbFixture(40, 9)
	cells := grid{
		stores: []string{"vineyard", "gart"},
		views:  []view{bareView, chaosView},
		runs:   parityEngines,
	}.cells(t, f)
	keys := []struct {
		lit string
		val graph.Value
	}{
		{"3", graph.IntValue(3)},
		{"3.0", graph.FloatValue(3)},
		{"3.5", graph.FloatValue(3.5)},
		{`"x"`, graph.StringValue("x")},
		{"null", graph.NullValue},
		{"true", graph.BoolValue(true)},
		{"1099511627776", graph.IntValue(1 << 40)}, // no such person
	}
	for _, c := range cells {
		for _, k := range keys {
			want := idKeyOracle(t, c.st, k.val)
			for _, form := range []struct {
				name, text string
				params     map[string]graph.Value
			}{
				{"$x", `MATCH (p:Person) WHERE id(p) = $x RETURN id(p)`, map[string]graph.Value{"x": k.val}},
				{"literal", `MATCH (p:Person) WHERE id(p) = ` + k.lit + ` RETURN id(p)`, nil},
			} {
				plan := parse(t, "cypher", form.text, f.schema())
				for _, a := range c.run(plan, exec.Request{Params: form.params}, nil) {
					name := fmt.Sprintf("%s, %s, %s with %s", c, a, form.name, k.lit)
					if a.err != nil {
						t.Fatalf("%s: %v", name, a.err)
					}
					mustExactEqual(t, name, renderRows(a.rows), want)
				}
			}
		}
	}
}

// TestPredicatedScanIsScanPlusSelect pins the one predicate path: SCAN(m,
// pred) and SCAN(m) → SELECT(pred) compile to the same stages and give the
// same rows and the same EXPLAIN ANALYZE counters, for a kernelizable
// predicate, a residual one and an `id(m) = k AND rest` one, on vineyard and
// on a store without grin.Index (where id() is the internal ID). The one
// exception is the id predicate with the lookup on a store that has the
// index: there the source proposes the one looked-up vertex instead of every
// post, and the SELECT still decides.
func TestPredicatedScanIsScanPlusSelect(t *testing.T) {
	schema := dataset.SNBSchema()
	vy := snbFixture(40, 9).vineyard(t)
	idx, _ := grin.AsIndex(vy)
	// A post whose internal ID is not its external one, so a store that
	// answered id() with the wrong one would return no row.
	post := graph.NilVID
	grin.ScanLabel(vy, dataset.SNBPost, func(v graph.VID) bool {
		if idx.ExternalID(v) != int64(v) {
			post = v
			return false
		}
		return true
	})
	if post == graph.NilVID {
		t.Fatal("every post's internal ID is its external one; the id case pins nothing")
	}
	parse := func(s string) *expr.Expr {
		e, err := expr.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	project := &ir.Op{Kind: ir.OpProject, Items: []ir.ProjItem{{Expr: parse("id(m)"), Alias: "i"}}}
	for _, st := range []struct {
		name   string
		g      grin.Graph
		key    int64 // what id() answers for post on this store
		lookup bool  // whether the store serves the id lookup
	}{
		{"vineyard", vy, idx.ExternalID(post), true},
		{"no index", indexless{vy, vy, vy, vy, vy, vy}, int64(post), false},
	} {
		for _, pc := range []struct {
			name, pred string
			kernel     bool // the whole predicate runs as selection kernels
			isID       bool
		}{
			{"kernel", "m.length > 100", true, false},
			{"residual", "m.length % 3 = 1", false, false},
			{"id", fmt.Sprintf("id(m) = %d AND m.length >= 0", st.key), false, true},
		} {
			pred := parse(pc.pred)
			fused := &ir.Plan{Ops: []*ir.Op{{Kind: ir.OpScan, Alias: "m", Label: dataset.SNBPost, Pred: pred}, project}}
			split := &ir.Plan{Ops: []*ir.Op{
				{Kind: ir.OpScan, Alias: "m", Label: dataset.SNBPost},
				{Kind: ir.OpSelect, Pred: pred},
				project,
			}}
			for _, noLookup := range []bool{false, true} {
				name := fmt.Sprintf("%s, %s, NoIndexLookup=%v", st.name, pc.name, noLookup)
				opt := exec.Options{Schema: schema, NoIndexLookup: noLookup}
				run := func(p *ir.Plan) ([]string, []string, []obsv.StageSnapshot, string) {
					c, err := exec.Compile(p, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					obs := obsv.NewQueryStats()
					rows, err := c.Run(context.Background(), &exec.Env{Graph: st.g, Request: exec.Request{BatchSize: 64, Obs: obs}})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return c.StageNames(), renderRows(rows), obs.StageSnapshots(), c.Explain(obs).Render(false)
				}
				fNames, fRows, fStages, fExplain := run(fused)
				sNames, sRows, sStages, sExplain := run(split)
				if !slices.Equal(fNames, sNames) {
					t.Fatalf("%s: stages %v, SCAN → SELECT compiles to %v", name, fNames, sNames)
				}
				mustExactEqual(t, name, fRows, sRows)
				if pc.isID {
					mustExactEqual(t, name+" id row", fRows, []string{strconv.FormatInt(st.key, 10)})
				}
				sel := fStages[1]
				if pc.kernel != (sel.KernelSteps > 0 && sel.BoxedSteps == 0) {
					t.Errorf("%s: SELECT took %d kernel and %d boxed steps", name, sel.KernelSteps, sel.BoxedSteps)
				}
				if pc.isID && st.lookup && !noLookup {
					if fStages[0].RowsOut != 1 || sel.SelCandidates != 1 {
						t.Errorf("%s: the lookup proposed %d candidates, the SELECT saw %d, want 1 and 1", name, fStages[0].RowsOut, sel.SelCandidates)
					}
					if fStages[0].RowsOut >= sStages[0].RowsOut {
						t.Errorf("%s: the lookup proposed %d candidates, the full scan %d", name, fStages[0].RowsOut, sStages[0].RowsOut)
					}
					continue
				}
				if fExplain != sExplain {
					t.Errorf("%s: EXPLAIN ANALYZE differs:\n%s\nSCAN → SELECT:\n%s", name, fExplain, sExplain)
				}
			}
		}
	}

	// BI12 through the whole stack on metered vineyard: the predicate is a
	// kernel-path SELECT over column gathers, with no scalar property read.
	pr, _ := grin.AsPropertyReader(vy)
	length := schema.VertexPropID(dataset.SNBPost, "length")
	var long int64
	grin.ScanLabel(vy, dataset.SNBPost, func(v graph.VID) bool {
		if x, _ := pr.VertexProp(v, length); x.Int() > 100 {
			long++
		}
		return true
	})
	for _, par := range []int{1, 2} {
		plan, err := cypher.Parse(`MATCH (m:Post) WHERE m.length > 100 RETURN COUNT(m)`, schema)
		if err != nil {
			t.Fatal(err)
		}
		stats, obs := &obsv.StoreStats{}, obsv.NewQueryStats()
		rows, _, err := submit(context.Background(), gaia.NewEngine(meter.Wrap(vy, stats), gaia.Options{Parallelism: par}), plan, exec.Request{Obs: obs})
		if err != nil {
			t.Fatal(err)
		}
		mustExactEqual(t, fmt.Sprintf("BI12 P=%d", par), renderRows(rows), []string{strconv.FormatInt(long, 10)})
		stages := obs.StageSnapshots()
		if len(stages) < 2 || stages[0].Name != "SCAN(m)" || stages[1].Name != "SELECT" ||
			stages[1].KernelSteps == 0 || stages[1].BoxedSteps != 0 {
			t.Errorf("BI12 P=%d: want SCAN(m) → kernel-path SELECT, got %+v", par, stages)
		}
		if n := stats.Calls(grin.SiteVertexProp); n != 0 {
			t.Errorf("BI12 P=%d: %d scalar VertexProp reads, want 0", par, n)
		}
	}
}
