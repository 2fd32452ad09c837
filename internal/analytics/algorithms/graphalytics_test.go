package algorithms

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/analytics/grape"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/partition"
	"repro/internal/storage/chaos"
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
// checking every engine result against the loop's once. Each engine row also
// reports, from one more run of the program with RunStats, its supersteps
// and the sends it folded.
func benchGraphalytics(b *testing.B, exact bool, loop func(*csr.Graph) []float64, engine func(g *csr.Graph, frags int) ([]float64, error),
	prog func(g *csr.Graph) grape.Program) {
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
			b.StopTimer()
			if want == nil {
				want = loop(g) // -bench filtered the Reference out
			}
			if err := sameFloats(got, want, exact); err != nil {
				b.Fatal(err)
			}
			st := runStats(b, g, frags, prog(g))
			b.ReportMetric(float64(st.Supersteps), "supersteps/op")
			b.ReportMetric(float64(st.Folded), "folded/op")
		})
	}
}

func BenchmarkGraphalyticsPageRank(b *testing.B) {
	benchGraphalytics(b, true,
		func(g *csr.Graph) []float64 { return loopPageRank(g, 0.85, 20) },
		func(g *csr.Graph, frags int) ([]float64, error) {
			return PageRank(g, PageRankOptions{Damping: 0.85, Iterations: 20, Fragments: frags})
		},
		func(g *csr.Graph) grape.Program {
			return newPageRankPIE(g, PageRankOptions{Damping: 0.85, Iterations: 20})
		})
}

func BenchmarkGraphalyticsBFS(b *testing.B) {
	benchGraphalytics(b, true,
		func(g *csr.Graph) []float64 { return loopBFS(g, 0) },
		func(g *csr.Graph, frags int) ([]float64, error) { return BFS(g, 0, frags) },
		func(g *csr.Graph) grape.Program { return newBFSPIE(g, 0) })
}

func BenchmarkGraphalyticsWCC(b *testing.B) {
	benchGraphalytics(b, true, loopWCC,
		func(g *csr.Graph, frags int) ([]float64, error) { return WCC(g, frags) },
		func(g *csr.Graph) grape.Program { return newWCCPIE(g) })
}

// TestGraphalyticsRunStatsRepeat: what a graphalytics program does — its
// supersteps, the sends it folds, the messages delivered after combining —
// is a property of the program and the graph: BFS's messages follow edges,
// not cuts, and PageRank sends none, so their counters are bit-identical at
// 1, 2 and 3 fragments and from run to run. PageRank pulls: it runs its 20
// iterations in 21 supersteps and folds and delivers nothing. WCC's counters
// depend on the cut (TestWCCRunStatsRepeat).
func TestGraphalyticsRunStatsRepeat(t *testing.T) {
	g, err := dataset.Datagen("t", 2_000, 8, 1).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prog func() grape.Program
	}{
		{"PageRank", func() grape.Program {
			return newPageRankPIE(g, PageRankOptions{Damping: 0.85, Iterations: 20})
		}},
		{"BFS", func() grape.Program { return newBFSPIE(g, 0) }},
	} {
		var want grape.RunStats
		for _, frags := range []int{1, 2, 3} {
			for rep := 0; rep < 3; rep++ {
				got := runStats(t, g, frags, tc.prog())
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
		switch {
		case tc.name == "PageRank" && (want.Supersteps != 21 || want.Folded != 0 || want.Delivered != 0):
			t.Errorf("PageRank: counters %+v, want 21 supersteps and no message", want)
		case tc.name != "PageRank" && (want.Folded == 0 || want.Delivered == 0 || want.Delivered > want.Folded):
			t.Errorf("%s: implausible counters %+v", tc.name, want)
		}
	}
}

// runStats runs prog at frags fragments and returns what the run did.
func runStats(tb testing.TB, g *csr.Graph, frags int, prog grape.Program) grape.RunStats {
	tb.Helper()
	eng, err := grape.NewEngine(g, grape.Options{Fragments: frags})
	if err != nil {
		tb.Fatal(err)
	}
	var st grape.RunStats
	eng.CollectStats(&st)
	if _, err := eng.Run(prog); err != nil {
		tb.Fatal(err)
	}
	return st
}

// wccStats runs WCC at frags fragments, checks its result against the
// union-find loop and returns what the run did.
func wccStats(t *testing.T, g *csr.Graph, frags int) grape.RunStats {
	t.Helper()
	prog := newWCCPIE(g)
	st := runStats(t, g, frags, prog)
	if err := sameFloats(prog.label, loopWCC(g), true); err != nil {
		t.Fatalf("frags=%d: %v", frags, err)
	}
	return st
}

// TestWCCRunStatsRepeat: WCC is a PIE program — PEval joins each fragment's
// inner edges without a message, so its messages cross the cut, and its
// counters depend on the fragment count. At a fixed count they are exact:
// identical from run to run and at GOMAXPROCS 1, 2 and 8 (CI also runs the
// package under -cpu 1,2,8). One fragment is the sequential union-find: one
// superstep, no send. On the graphalytics graph at two fragments WCC folds at
// most half the sends of the min-label propagation it replaced, which took 6
// supersteps, folded 2 455 290 sends and delivered 83 899 messages.
func TestWCCRunStatsRepeat(t *testing.T) {
	g, err := dataset.Datagen("t", 2_000, 8, 1).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, frags := range []int{1, 2, 3} {
		var want grape.RunStats
		for _, procs := range []int{1, 2, 8} {
			for rep := 0; rep < 3; rep++ {
				var got grape.RunStats
				withGOMAXPROCS(t, procs, func() { got = wccStats(t, g, frags) })
				if want.Supersteps == 0 {
					want = got
					t.Logf("frags=%d: %d supersteps, %d sends folded, %d messages delivered",
						frags, got.Supersteps, got.Folded, got.Delivered)
				}
				if got.Supersteps != want.Supersteps || got.Folded != want.Folded || got.Delivered != want.Delivered {
					t.Errorf("frags=%d procs=%d rep=%d: %d/%d/%d, want %d/%d/%d", frags, procs, rep,
						got.Supersteps, got.Folded, got.Delivered, want.Supersteps, want.Folded, want.Delivered)
				}
			}
		}
		if frags == 1 && (want.Supersteps != 1 || want.Folded != 0) {
			t.Errorf("one fragment: %+v, want one superstep and no send", want)
		}
		if frags > 1 && (want.Folded == 0 || want.Delivered == 0 || want.Delivered > want.Folded) {
			t.Errorf("frags=%d: implausible counters %+v", frags, want)
		}
	}
	const labelPropagationFolded = 2_455_290
	st := wccStats(t, graphalyticsGraph(t), 2)
	t.Logf("graphalytics graph, 2 fragments: %d supersteps, %d sends folded, %d messages delivered",
		st.Supersteps, st.Folded, st.Delivered)
	if st.Folded > labelPropagationFolded/2 {
		t.Errorf("graphalytics graph: %d sends folded, want at most %d", st.Folded, labelPropagationFolded/2)
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

// cutProbe runs no program: it declares ex and records the bounds of every
// fragment the engine cut for it.
type cutProbe struct {
	ex     grape.Exchange
	bounds [][2]graph.VID
}

func (p *cutProbe) Exchange() grape.Exchange { return p.ex }

func (p *cutProbe) PEval(f *grape.Fragment, _ *grape.Context) {
	id, _ := f.Fragment()
	lo, hi := f.Bounds()
	p.bounds[id] = [2]graph.VID{lo, hi}
}

func (p *cutProbe) IncEval(*grape.Fragment, *grape.Context, []grape.Message) {}

// cutOf returns the fragment bounds the engine cuts at frags fragments for a
// program declaring ex.
func cutOf(tb testing.TB, g grin.Graph, frags int, ex grape.Exchange) [][2]graph.VID {
	tb.Helper()
	eng, err := grape.NewEngine(g, grape.Options{Fragments: frags})
	if err != nil {
		tb.Fatal(err)
	}
	p := &cutProbe{ex: ex, bounds: make([][2]graph.VID, eng.Fragments())}
	if _, err := eng.Run(p); err != nil {
		tb.Fatal(err)
	}
	return p.bounds
}

// hubInGraph has one vertex whose in-degree outweighs several shares of a
// pull's cut, so that at 3 and 7 fragments some fragments are empty.
func hubInGraph(tb testing.TB) *csr.Graph {
	tb.Helper()
	s := &dataset.Simple{N: 40}
	for k := 0; k < 2000; k++ {
		s.Src, s.Dst = append(s.Src, graph.VID(k%40)), append(s.Dst, 5)
	}
	for v := 0; v < 40; v += 3 {
		s.Src, s.Dst = append(s.Src, 5), append(s.Dst, graph.VID(v))
	}
	g, err := s.ToCSR(true)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestPageRankMatchesLoopExactly: PageRank pulls over the CSR's in-edges,
// which list sources in ascending order, so every rank is the same sum in the
// same order as the benchmark oracle's push loop: bit-identical at 1, 2, 3 and
// 7 fragments and at GOMAXPROCS 1, 2 and 8, on the graphalytics graph shape
// and on a hub graph that leaves some fragments empty. On the masked store,
// which pulls through Neighbors, it agrees to 1e-12.
func TestPageRankMatchesLoopExactly(t *testing.T) {
	for name, g := range map[string]*csr.Graph{"graphalytics": graphalyticsGraph(t), "hub": hubInGraph(t)} {
		want := loopPageRank(g, 0.85, 20)
		if name == "hub" {
			pull := newPageRankPIE(g, PageRankOptions{}).Exchange()
			for _, frags := range []int{3, 7} {
				b := cutOf(t, g, frags, pull)
				if !slices.ContainsFunc(b, func(r [2]graph.VID) bool { return r[0] == r[1] }) {
					t.Fatalf("hub frags=%d: no empty fragment among %v", frags, b)
				}
			}
		}
		masked := chaos.Wrap(topologyOnly{g, g}, chaos.Options{})
		for _, frags := range []int{1, 2, 3, 7} {
			for _, procs := range []int{1, 2, 8} {
				withGOMAXPROCS(t, procs, func() {
					got, err := PageRank(g, PageRankOptions{Damping: 0.85, Iterations: 20, Fragments: frags})
					if err == nil {
						err = sameFloats(got, want, true)
					}
					if err != nil {
						t.Errorf("%s frags=%d procs=%d: %v", name, frags, procs, err)
					}
				})
			}
			got, err := PageRank(masked, PageRankOptions{Damping: 0.85, Iterations: 20, Fragments: frags})
			if err != nil {
				t.Fatal(err)
			}
			for v := range got {
				if math.Abs(got[v]-want[v]) > 1e-12*math.Abs(want[v]) {
					t.Errorf("%s masked frags=%d: vertex %d: got %v want %v", name, frags, v, got[v], want[v])
					break
				}
			}
		}
	}
}

// TestFragmentBoundsMatchParentCuts: the programs that send declare what
// reproduces the cuts the engine made before programs declared their
// exchange — Σ(10 + outdeg) for the min-combined traversals, Σ(1 + outdeg +
// indeg) for the uncombined label programs — bound for bound.
func TestFragmentBoundsMatchParentCuts(t *testing.T) {
	fwd := dataset.Datagen("benchmark", 20_000, 16, 1)
	rev, err := (&dataset.Simple{N: fwd.N, Src: fwd.Dst, Dst: fwd.Src}).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range []*csr.Graph{graphalyticsGraph(t), rev, hubInGraph(t)} {
		combined := func(v graph.VID) int { return 10 + g.Degree(v, graph.Out) }
		uncombined := func(v graph.VID) int { return 1 + g.Degree(v, graph.Out) + g.Degree(v, graph.In) }
		for _, tc := range []struct {
			name   string
			prog   grape.Program
			weight func(graph.VID) int
		}{
			{"BFS", newBFSPIE(g, 0), combined},
			{"SSSP", &ssspPIE{g: g}, combined},
			{"WCC", newWCCPIE(g), combined},
			{"CDLP", &cdlpPIE{}, uncombined},
			{"Equity", &equityPIE{g: g}, uncombined},
		} {
			for _, frags := range []int{1, 2, 3, 4, 7} {
				part, err := partition.NewRange(g.NumVertices(), frags, tc.weight)
				if err != nil {
					t.Fatal(err)
				}
				for f, b := range cutOf(t, g, frags, tc.prog.Exchange()) {
					if lo, hi := part.Bounds(f); b != [2]graph.VID{lo, hi} {
						t.Fatalf("graph %d %s frags=%d: fragment %d is %v, the parent's cut [%d, %d)", gi, tc.name, frags, f, b, lo, hi)
					}
				}
			}
		}
	}
}
