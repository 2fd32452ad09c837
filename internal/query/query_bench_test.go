package query_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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

// benchStore builds one SNB store shared by all query benchmarks.
var benchStore = struct {
	once sync.Once
	st   *vineyard.Store
}{}

func benchSNB(b *testing.B) *vineyard.Store {
	b.Helper()
	benchStore.once.Do(func() {
		batch := dataset.SNB(dataset.SNBOptions{Persons: 300, Seed: 17})
		st, err := vineyard.Load(batch)
		if err != nil {
			panic(err)
		}
		benchStore.st = st
	})
	return benchStore.st
}

func benchGaia(b *testing.B, q string, params map[string]graph.Value) {
	b.Helper()
	st := benchSNB(b)
	plan, err := cypher.Parse(q, dataset.SNBSchema())
	if err != nil {
		b.Fatal(err)
	}
	eng := gaia.NewEngine(st, gaia.Options{Parallelism: 4})
	// One untimed warmup run: lets the engine's batch pools and the heap
	// reach steady state so short -benchtime runs measure the same regime as
	// long ones.
	if _, _, err := eng.Submit(context.Background(), plan, params); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Submit(context.Background(), plan, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGaiaQueryExpand is the expand-heavy shape: two full KNOWS hops with
// a projection, no selective predicate — the allocation hot path of EXPAND.
func BenchmarkGaiaQueryExpand(b *testing.B) {
	benchGaia(b, `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person)
RETURN g.firstName`, nil)
}

// BenchmarkGaiaQueryExpandFilter adds a per-row predicate over the expanded
// stream, stressing expression evaluation.
func BenchmarkGaiaQueryExpandFilter(b *testing.B) {
	benchGaia(b, `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person)
WHERE g.creationDate > 20 AND f.creationDate > 10
RETURN g.firstName`, nil)
}

// BenchmarkGaiaQueryAggregate groups the two-hop expansion, stressing
// group-key construction.
func BenchmarkGaiaQueryAggregate(b *testing.B) {
	benchGaia(b, `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person)
WITH f, COUNT(g) AS c
RETURN f.firstName, c
ORDER BY c DESC
LIMIT 10`, nil)
}

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
	st := benchSNB(b)
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

// BenchmarkGaiaQueryOrderLimit sorts a full expansion and keeps the top rows —
// the ORDER BY ... LIMIT path.
func BenchmarkGaiaQueryOrderLimit(b *testing.B) {
	benchGaia(b, `MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post)
RETURN f.firstName, m.creationDate
ORDER BY m.creationDate DESC
LIMIT 20`, nil)
}

// BenchmarkHiActorThroughput measures the OLTP design point: many small
// parameterized point queries in flight across shards.
func BenchmarkHiActorThroughput(b *testing.B) {
	st := benchSNB(b)
	plan, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post)
WHERE id(p) = $pid
RETURN f.firstName, m.creationDate`, dataset.SNBSchema())
	if err != nil {
		b.Fatal(err)
	}
	he := hiactor.NewEngine(func() grin.Graph { return st }, hiactor.Options{Shards: 4})
	defer he.Close()
	if err := he.Install("q", plan); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pid := int64(0)
		for pb.Next() {
			pid = (pid + 7) % 300
			if _, err := he.Call(context.Background(), "q", map[string]graph.Value{"pid": graph.IntValue(pid)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHiActorMixedParallel is the OLTP serving shape in miniature: more
// closed-loop clients than actors (4 on 2 shards) issuing 70 % short point
// reads and 30 % heavy three-hop reads against GART. With a work-conserving
// run queue the short reads flow past a heavy one instead of queueing behind
// it; ops/s is the headline, -benchmem shows the arena's effect.
func BenchmarkHiActorMixedParallel(b *testing.B) {
	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(dataset.SNB(dataset.SNBOptions{Persons: 300, Seed: 17})); err != nil {
		b.Fatal(err)
	}
	he := hiactor.NewEngine(func() grin.Graph { return gs.Latest() }, hiactor.Options{Shards: 2})
	defer he.Close()
	for name, q := range map[string]string{
		"short": `MATCH (p:Person)-[:KNOWS]->(f:Person)
WHERE id(p) = $pid RETURN id(f), f.firstName`,
		"heavy": `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person)<-[:HAS_CREATOR]-(m:Post)
WHERE id(p) = $pid RETURN g.firstName, m.creationDate
ORDER BY m.creationDate DESC LIMIT 20`,
	} {
		plan, err := cypher.Parse(q, dataset.SNBSchema())
		if err != nil {
			b.Fatal(err)
		}
		if err := he.Install(name, plan); err != nil {
			b.Fatal(err)
		}
	}
	call := func(i int64) error {
		name := "short"
		if i%10 >= 7 {
			name = "heavy"
		}
		_, err := he.Call(context.Background(), name, map[string]graph.Value{"pid": graph.IntValue((i * 7) % 300)})
		return err
	}
	// Untimed warmup: every actor grows its arena on both shapes.
	for i := int64(0); i < 40; i++ {
		if err := call(i); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.SetParallelism(2) // 2 × GOMAXPROCS clients
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := call(next.Add(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
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
