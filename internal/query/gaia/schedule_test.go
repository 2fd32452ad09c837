package gaia

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/storage/chaos"
)

// TestGeneratedMorselSchedule perturbs the order in which Gaia's workers
// claim, finish and publish morsels — seeded chaos latency at the scan, the
// expansion and the property gather, starting at a random call — and holds
// every run to the serial driver on the same compiled plan and batch size:
// its rows in its order, or its exact error. The queries fail on zero, one
// or two victim rows, with and without a LIMIT that the in-order prefix may
// meet before the first failing morsel, in one segment or in the segment
// after a barrier. No goroutine may outlive a run.
func TestGeneratedMorselSchedule(t *testing.T) {
	defer query.CheckLeaks(t)()
	st := snbStore(t, 60)
	eng := NewEngine(st, Options{Parallelism: 1})
	const (
		pred    = `WHERE 1 / (id(%[1]s) - $a) + 1 %% (id(%[1]s) - $b) >= 0`
		oneSeg  = `MATCH (p:Person)-[:KNOWS]->(f:Person) ` + pred + ` RETURN id(p), id(f), f.firstName`
		twoSegs = `MATCH (p:Person)-[:KNOWS]->(f:Person) WITH f, COUNT(p) AS c
MATCH (f)-[:KNOWS]->(g:Person) ` + pred + ` RETURN id(f), c, id(g), g.lastName`
	)
	compile := func(q string) *exec.Compiled {
		t.Helper()
		plan, err := cypher.Parse(q, dataset.SNBSchema())
		if err != nil {
			t.Fatal(err)
		}
		c, err := eng.Compile(plan)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	serial := func(c *exec.Compiled, params map[string]graph.Value, bs int) ([]exec.Row, error) {
		return c.Run(context.Background(), &exec.Env{Graph: st, Request: exec.Request{Params: params, BatchSize: bs}})
	}
	clean := map[string]graph.Value{"a": graph.IntValue(-1), "b": graph.IntValue(-2)}

	type shape struct {
		name   string
		c      *exec.Compiled
		params []map[string]graph.Value // zero, one and two victims
	}
	var shapes []shape
	for _, s := range []struct{ name, q, victim string }{{"one segment", oneSeg, "f"}, {"after a barrier", twoSegs, "g"}} {
		q := fmt.Sprintf(s.q, s.victim)
		rows, err := serial(compile(q), clean, 0)
		if err != nil || len(rows) < 30 {
			t.Fatalf("%s: clean run returned %d rows, %v", s.name, len(rows), err)
		}
		// Victims are taken from the victim column's values in the order they
		// first appear in the clean stream, so each one's first failing row
		// lies where the stream first shows it.
		col := len(rows[0]) - 2
		var firsts []int // the rows that show a new victim value
		seen := map[int64]bool{}
		for i, r := range rows {
			if v := r[col].Int(); !seen[v] {
				seen[v] = true
				firsts = append(firsts, i)
			}
		}
		victim := func(k, of int) (graph.Value, int) {
			i := firsts[len(firsts)*k/of]
			return rows[i][col], i
		}
		lone, at := victim(1, 2)
		early, _ := victim(1, 3)
		late, _ := victim(2, 3)
		params := []map[string]graph.Value{
			clean,
			{"a": lone, "b": graph.IntValue(-2)},
			{"a": late, "b": early},
		}
		shapes = append(shapes,
			shape{s.name, compile(q), params},
			// The LIMIT ends a third of the way to the lone victim's first
			// row: small morsels meet it before the failing one, and the one
			// big morsel of the largest batch fails.
			shape{s.name + " limit", compile(fmt.Sprintf("%s LIMIT %d", q, at/3)), params})
	}

	rng := rand.New(rand.NewSource(20261017))
	for _, sh := range shapes {
		for victims, params := range sh.params {
			for _, bs := range []int{1, 7, 1024} {
				want, wantErr := serial(sh.c, params, bs)
				for _, par := range []int{1, 2, 8} {
					expand := grin.SiteExpandBatch
					if rng.Intn(2) == 0 {
						expand = grin.SiteExpandLabelBatch
					}
					var faults []chaos.Fault
					for _, site := range []grin.Site{grin.SiteScanBatch, expand, grin.SiteGatherVProp} {
						faults = append(faults, chaos.Fault{Site: site, Kind: chaos.KindLatency,
							N: 1 + rng.Int63n(8), Latency: time.Duration(rng.Int63n(200)) * time.Microsecond})
					}
					e := NewEngine(chaos.Wrap(st, chaos.Options{Faults: faults}), Options{Parallelism: par})
					got, err := e.Run(context.Background(), sh.c, exec.Request{Params: params, BatchSize: bs})
					cell := fmt.Sprintf("%s, %d victims, batch %d, P=%d, faults %v", sh.name, victims, bs, par, faults)
					switch {
					case wantErr != nil:
						if err == nil || err.Error() != wantErr.Error() {
							t.Fatalf("%s: error %v, the serial driver's is %v", cell, err, wantErr)
						}
					case err != nil:
						t.Fatalf("%s: error %v, the serial driver returned %d rows", cell, err, len(want))
					case !sameRows(got, want, false):
						t.Fatalf("%s: rows differ from the serial driver's\n got %v\nwant %v", cell, got, want)
					}
				}
			}
		}
	}
}
