// Package storagebench micro-benchmarks the batched GRIN storage paths
// against their scalar (per-vertex / per-value) equivalents on every
// backend. CI runs these once per build, so storage-layer regressions can
// be looked for independently of the query runtime.
package storagebench

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/storage/gart"
	"repro/internal/storage/graphar"
	"repro/internal/storage/livegraph"
	"repro/internal/storage/vineyard"
)

// benchData is the shared topology (Datagen power-law, 5000 vertices,
// ~40k edges) and property batch (SNB, 500 persons) behind all benchmarks.
var benchData = struct {
	once   sync.Once
	simple *dataset.Simple
	batch  *graph.Batch // simple graph as a property batch
	snb    *graph.Batch
}{}

func data() {
	benchData.once.Do(func() {
		benchData.simple = dataset.Datagen("bench", 5000, 8, 42)
		benchData.batch = benchData.simple.ToBatch()
		benchData.snb = dataset.SNB(dataset.SNBOptions{Persons: 500, Seed: 17})
	})
}

// topologyStores loads the benchmark topology into every backend.
func topologyStores(b *testing.B) map[string]grin.Graph {
	b.Helper()
	data()
	stores := map[string]grin.Graph{}

	vy, err := vineyard.Load(benchData.batch)
	if err != nil {
		b.Fatal(err)
	}
	stores["vineyard"] = vy

	gs := gart.NewStore(benchData.batch.Schema, 0)
	if err := gs.LoadBatch(benchData.batch); err != nil {
		b.Fatal(err)
	}
	stores["gart"] = gs.Latest()

	cg, err := benchData.simple.ToCSR(true)
	if err != nil {
		b.Fatal(err)
	}
	stores["csr"] = cg

	lg := livegraph.NewStore(benchData.simple.N)
	for i := range benchData.simple.Src {
		if err := lg.AddEdge(benchData.simple.Src[i], benchData.simple.Dst[i], 1); err != nil {
			b.Fatal(err)
		}
	}
	stores["livegraph"] = lg

	stores["graphar"] = openGraphar(b, benchData.batch)
	return stores
}

func openGraphar(b *testing.B, batch *graph.Batch) grin.Graph {
	b.Helper()
	dir := b.TempDir()
	if err := graphar.Write(dir, batch, graphar.Options{ChunkSize: 256}); err != nil {
		b.Fatal(err)
	}
	ga, err := graphar.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ga.Close() })
	return ga
}

// frontier is every vertex in chunks of 1024 — the runtime's default batch
// shape.
const frontierChunk = 1024

// BenchmarkBatchExpand measures one full-graph frontier expansion (Out) in
// 1024-vertex batches: the batched trait (or its generic fallback) against
// the scalar per-vertex callback walk it replaces.
func BenchmarkBatchExpand(b *testing.B) {
	for name, g := range topologyStores(b) {
		n := g.NumVertices()
		b.Run(name+"/batched", func(b *testing.B) {
			var adj grin.AdjBatch
			frontier := make([]graph.VID, 0, frontierChunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total := 0
				for lo := 0; lo < n; lo += frontierChunk {
					hi := lo + frontierChunk
					if hi > n {
						hi = n
					}
					frontier = frontier[:0]
					for v := lo; v < hi; v++ {
						frontier = append(frontier, graph.VID(v))
					}
					grin.ExpandBatch(g, frontier, graph.Out, &adj)
					total += len(adj.Nbrs)
				}
				if total != g.NumEdges() {
					b.Fatalf("expanded %d edges, want %d", total, g.NumEdges())
				}
			}
		})
		b.Run(name+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total := 0
				for v := 0; v < n; v++ {
					grin.ForEachNeighbor(g, graph.VID(v), graph.Out, func(graph.VID, graph.EID) bool {
						total++
						return true
					})
				}
				if total != g.NumEdges() {
					b.Fatalf("expanded %d edges, want %d", total, g.NumEdges())
				}
			}
		})
	}
}

// propStores loads the SNB batch into the property-bearing backends.
func propStores(b *testing.B) map[string]grin.Graph {
	b.Helper()
	data()
	stores := map[string]grin.Graph{}

	vy, err := vineyard.Load(benchData.snb)
	if err != nil {
		b.Fatal(err)
	}
	stores["vineyard"] = vy

	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(benchData.snb); err != nil {
		b.Fatal(err)
	}
	stores["gart"] = gs.Latest()

	stores["graphar"] = openGraphar(b, benchData.snb)
	return stores
}

// BenchmarkBatchGather measures gathering one int property for every Person
// vertex in 1024-element columns: the batched property trait (or fallback)
// against the scalar label-probe + boxed per-value path.
func BenchmarkBatchGather(b *testing.B) {
	for name, g := range propStores(b) {
		var persons []graph.VID
		grin.ScanLabel(g, dataset.SNBPerson, func(v graph.VID) bool {
			persons = append(persons, v)
			return true
		})
		pr := g.(grin.PropertyReader)
		b.Run(name+"/batched", func(b *testing.B) {
			out := make([]graph.Value, frontierChunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < len(persons); lo += frontierChunk {
					hi := lo + frontierChunk
					if hi > len(persons) {
						hi = len(persons)
					}
					if err := grin.GatherVertexProp(g, persons[lo:hi], "creationDate", out[:hi-lo]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(name+"/scalar", func(b *testing.B) {
			out := make([]graph.Value, frontierChunk)
			schema := pr.Schema()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, v := range persons {
					label := pr.VertexLabel(v)
					pid := schema.VertexPropID(label, "creationDate")
					if pid == graph.NoProp {
						out[j%frontierChunk] = graph.NullValue
						continue
					}
					out[j%frontierChunk], _ = pr.VertexProp(v, pid)
				}
			}
		})
	}
}
