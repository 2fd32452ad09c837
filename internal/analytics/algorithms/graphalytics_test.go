package algorithms

import (
	"fmt"
	"testing"

	"repro/internal/analytics/grape"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/storage/csr"
)

// The benchmark workload `graphalytics` cycles PageRank (20 iterations), BFS
// from vertex 0 and WCC over Datagen 20 000 × 16 on two fragments. The
// benchmarks below run the same three programs on the same graph shape next
// to the sequential loop the benchmark's oracle checks them against, so
// "engine ÷ loop" is one command:
//
//	go test -run '^$' -bench Graphalytics -benchmem ./internal/analytics/algorithms

// graphalyticsGraph is the benchmark's graph shape, on a seed where vertex 0
// reaches the whole graph (on some it reaches two vertices).
func graphalyticsGraph(tb testing.TB) *csr.Graph {
	tb.Helper()
	g, err := dataset.Datagen("benchmark", 20_000, 16, 1).ToCSR(true)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// loopPageRank is the oracle's recurrence: uniform start, damping, no
// dangling redistribution, two dense arrays.
func loopPageRank(g *csr.Graph, damping float64, iterations int) []float64 {
	n := g.NumVertices()
	rank, next := make([]float64, n), make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		for v := range next {
			next[v] = (1 - damping) / float64(n)
		}
		for v := 0; v < n; v++ {
			out := g.AdjSlice(graph.VID(v), graph.Out)
			if len(out) == 0 {
				continue
			}
			share := damping * rank[v] / float64(len(out))
			for _, t := range out {
				next[t.Nbr] += share
			}
		}
		rank, next = next, rank
	}
	return rank
}

// loopBFS is a queue BFS over out-edges.
func loopBFS(g *csr.Graph, root graph.VID) []float64 {
	levels := make([]float64, g.NumVertices())
	for v := range levels {
		levels[v] = Unreached
	}
	levels[root] = 0
	for queue := []graph.VID{root}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		for _, t := range g.AdjSlice(v, graph.Out) {
			if levels[t.Nbr] == Unreached {
				levels[t.Nbr] = levels[v] + 1
				queue = append(queue, t.Nbr)
			}
		}
	}
	return levels
}

// loopWCC is union-find by smaller root, so a root is its component's
// minimum.
func loopWCC(g *csr.Graph) []float64 {
	n := g.NumVertices()
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for v := 0; v < n; v++ {
		for _, t := range g.AdjSlice(graph.VID(v), graph.Out) {
			if x, y := find(int32(v)), find(int32(t.Nbr)); x < y {
				parent[y] = x
			} else {
				parent[x] = y
			}
		}
	}
	comps := make([]float64, n)
	for v := range comps {
		comps[v] = float64(find(int32(v)))
	}
	return comps
}

// benchGraphalytics runs the loop, then the engine on one and two fragments,
// checking every engine result against the loop's once.
func benchGraphalytics(b *testing.B, exact bool, loop func(*csr.Graph) []float64, engine func(g *csr.Graph, frags int) ([]float64, error)) {
	g := graphalyticsGraph(b)
	var want []float64
	b.Run("Reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			want = loop(g)
		}
	})
	for _, frags := range []int{1, 2} {
		b.Run(fmt.Sprintf("fragments=%d", frags), func(b *testing.B) {
			b.ReportAllocs()
			var got []float64
			for i := 0; i < b.N; i++ {
				var err error
				if got, err = engine(g, frags); err != nil {
					b.Fatal(err)
				}
			}
			if want == nil {
				want = loop(g) // -bench filtered the Reference out
			}
			if err := sameFloats(got, want, exact); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkGraphalyticsPageRank(b *testing.B) {
	benchGraphalytics(b, false,
		func(g *csr.Graph) []float64 { return loopPageRank(g, 0.85, 20) },
		func(g *csr.Graph, frags int) ([]float64, error) {
			return PageRank(g, PageRankOptions{Damping: 0.85, Iterations: 20, Fragments: frags})
		})
}

func BenchmarkGraphalyticsBFS(b *testing.B) {
	benchGraphalytics(b, true,
		func(g *csr.Graph) []float64 { return loopBFS(g, 0) },
		func(g *csr.Graph, frags int) ([]float64, error) { return BFS(g, 0, frags) })
}

func BenchmarkGraphalyticsWCC(b *testing.B) {
	benchGraphalytics(b, true, loopWCC,
		func(g *csr.Graph, frags int) ([]float64, error) { return WCC(g, frags) })
}

// TestGraphalyticsRunStatsRepeat: what a graphalytics program does — its
// supersteps, the sends it folds, the messages delivered after combining —
// is a property of the program and the graph: bit-identical at 1, 2 and 3
// fragments and from run to run.
func TestGraphalyticsRunStatsRepeat(t *testing.T) {
	g, err := dataset.Datagen("t", 2_000, 8, 1).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		comb grape.Combiner
		prog func() grape.Program
	}{
		{"PageRank", grape.Sum, func() grape.Program {
			return newPageRankPIE(g, PageRankOptions{Damping: 0.85, Iterations: 20})
		}},
		{"BFS", grape.Min, func() grape.Program { return newBFSPIE(g, 0) }},
		{"WCC", grape.Min, func() grape.Program { return newWCCPIE(g) }},
	} {
		var want grape.RunStats
		for _, frags := range []int{1, 2, 3} {
			for rep := 0; rep < 3; rep++ {
				eng, err := grape.NewEngine(g, grape.Options{Fragments: frags, Combine: tc.comb})
				if err != nil {
					t.Fatal(err)
				}
				var got grape.RunStats
				eng.CollectStats(&got)
				if _, err := eng.Run(tc.prog()); err != nil {
					t.Fatal(err)
				}
				if want.Supersteps == 0 {
					want = got
					t.Logf("%s: %d supersteps, %d sends folded, %d messages delivered",
						tc.name, got.Supersteps, got.Folded, got.Delivered)
				}
				if got.Supersteps != want.Supersteps || got.Folded != want.Folded || got.Delivered != want.Delivered {
					t.Errorf("%s frags=%d rep=%d: %d/%d/%d, want %d/%d/%d", tc.name, frags, rep,
						got.Supersteps, got.Folded, got.Delivered, want.Supersteps, want.Folded, want.Delivered)
				}
			}
		}
		if want.Folded == 0 || want.Delivered == 0 || want.Delivered > want.Folded {
			t.Errorf("%s: implausible counters %+v", tc.name, want)
		}
	}
}

// TestGraphalyticsSteadyStateAllocations keeps the per-vertex closure, the
// per-message append and the per-superstep copy from coming back: one run of
// each graphalytics program at two fragments allocates its result, its
// engine (accumulators, inboxes, goroutines) and nothing per edge, per
// message or per superstep, at any GOMAXPROCS. Measured 30–40; the parent of
// this guard allocated 151 838 / 103 / 162 762 on the largest of these inputs.
func TestGraphalyticsSteadyStateAllocations(t *testing.T) {
	const bound = 64
	small, err := dataset.Datagen("t", 2_000, 4, 1).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	large := graphalyticsGraph(t) // 40× the edges
	for _, tc := range []struct {
		name string
		run  func(g *csr.Graph) error
	}{
		{"PageRank/5", func(g *csr.Graph) error {
			_, err := PageRank(g, PageRankOptions{Iterations: 5, Fragments: 2})
			return err
		}},
		{"PageRank/40", func(g *csr.Graph) error { // 8× the supersteps
			_, err := PageRank(g, PageRankOptions{Iterations: 40, Fragments: 2})
			return err
		}},
		{"BFS", func(g *csr.Graph) error { _, err := BFS(g, 0, 2); return err }},
		{"WCC", func(g *csr.Graph) error { _, err := WCC(g, 2); return err }},
	} {
		for name, g := range map[string]*csr.Graph{"small": small, "large": large} {
			allocs := testing.AllocsPerRun(3, func() {
				if err := tc.run(g); err != nil {
					t.Error(err)
				}
			})
			t.Logf("%s/%s: %.0f allocations per run", tc.name, name, allocs)
			if allocs > bound {
				t.Errorf("%s/%s: %.0f allocations per run, bound %d", tc.name, name, allocs, bound)
			}
		}
	}
}
