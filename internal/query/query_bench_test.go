package query_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/grin/grintest"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/hiactor"
	"repro/internal/query/optimizer"
	"repro/internal/query/procedures"
	"repro/internal/storage/gart"
	"repro/internal/storage/vineyard"
)

// BenchmarkGaiaCountFold runs the count-shaped queries that were most of a
// snb_bi pass — BI5 (likes counted per post creator), BI10 (one tag's posts
// counted per interested person) and BI14 (friends' posts counted per person)
// — three ways: with every rule on over vineyard, where the counted hop is an
// EXPAND_DEGREE answered from the store's label boundaries (LabelDegrees);
// the same plan with vineyard's label segments hidden, where that hop expands
// whole adjacencies and filters them by edge label; and without
// EdgeVertexFusion, where nothing can fold and the hop materializes the rows
// GROUP then counts. It explains each step's share of a benchmark number;
// benchmark/ decides it.
func BenchmarkGaiaCountFold(b *testing.B) {
	st, err := vineyard.Load(dataset.SNB(dataset.SNBOptions{Persons: 300, Seed: 17}))
	if err != nil {
		b.Fatal(err)
	}
	segmented := gaia.NewEngine(st, gaia.Options{Parallelism: 2})
	unsegmented := gaia.NewEngine(grintest.Unsegmented(st), gaia.Options{Parallelism: 2})
	for _, q := range procedures.BI() {
		if q.Name != "BI5" && q.Name != "BI10" && q.Name != "BI14" {
			continue
		}
		plan, err := cypher.Parse(q.Cypher, dataset.SNBSchema())
		if err != nil {
			b.Fatal(err)
		}
		params := q.Params(rand.New(rand.NewSource(1)), procedures.ScaleOf(300))
		for _, arm := range []struct {
			name string
			eng  *gaia.Engine
			opt  optimizer.Options
		}{
			{"folded", segmented, optimizer.All()},
			{"folded-unsegmented", unsegmented, optimizer.All()},
			{"unfused", segmented, optimizer.Options{FilterPushIntoMatch: true, CBO: true}},
		} {
			b.Run(q.Name+"/"+arm.name, func(b *testing.B) {
				if _, _, err := submitWith(context.Background(), arm.eng, st, plan, arm.opt, exec.Request{Params: params}); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := submitWith(context.Background(), arm.eng, st, plan, arm.opt, exec.Request{Params: params}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkHiActorShortAfterComplex times a point read on an actor whose
// scratch an earlier complex read has grown: the complex procedure (one, two
// or three hops, so its PROJECT batches differ by orders of magnitude) runs
// untimed every 256 calls, only the short calls are timed. The short read's
// ns/op must not depend on which complex read shares its actor — scratch that
// is cleared on release makes every short read memset the largest batch the
// complex read ever projected.
func BenchmarkHiActorShortAfterComplex(b *testing.B) {
	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(dataset.SNB(dataset.SNBOptions{Persons: 300, Seed: 17})); err != nil {
		b.Fatal(err)
	}
	const short = `MATCH (p:Person) WHERE id(p) = $pid RETURN p.firstName, p.lastName, p.birthday + 1`
	hops := []string{
		`MATCH (p:Person)-[:KNOWS]->(g:Person)`,
		`MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person)`,
		`MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(h:Person)-[:KNOWS]->(g:Person)`,
	}
	for i, match := range hops {
		b.Run(fmt.Sprintf("complex=%dhop", i+1), func(b *testing.B) {
			he := hiactor.NewEngine(func() grin.Graph { return gs.Latest() }, hiactor.Options{Shards: 1})
			defer he.Close()
			for name, q := range map[string]string{
				"short":   short,
				"complex": match + ` WHERE id(p) = $pid RETURN g.firstName, g.birthday + 1`,
			} {
				plan, err := cypher.Parse(q, dataset.SNBSchema())
				if err != nil {
					b.Fatal(err)
				}
				if err := he.Install(name, plan); err != nil {
					b.Fatal(err)
				}
			}
			call := func(name string, pid int) int {
				c, err := he.Procedure(name)
				if err != nil {
					b.Fatal(err)
				}
				rows, err := he.Run(context.Background(), c, exec.Request{Params: map[string]graph.Value{"pid": graph.IntValue(int64(pid % 300))}, BatchSize: 1 << 16})
				if err != nil {
					b.Fatal(err)
				}
				return len(rows)
			}
			complexRows := call("complex", 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%256 == 255 {
					b.StopTimer()
					call("complex", i)
					b.StartTimer()
				}
				call("short", i)
			}
			b.ReportMetric(float64(complexRows), "complex-rows")
		})
	}
}
