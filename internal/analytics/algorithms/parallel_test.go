package algorithms

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
)

// withGOMAXPROCS sets GOMAXPROCS for fn, then restores it.
func withGOMAXPROCS(t *testing.T, n int, fn func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// TestAlgorithmsMatchReferenceWithIntraParallelism runs every PIE program of
// the library at two fragments on a "wide machine" (GOMAXPROCS 8). Fragments
// are the engine's only parallelism, so the results must match the sequential
// references and be bit-identical to the same calls at GOMAXPROCS 2.
func TestAlgorithmsMatchReferenceWithIntraParallelism(t *testing.T) {
	g, err := dataset.Datagen("t", 500, 6, 42).Weighted(15).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	wg, err := dataset.Datagen("t", 400, 1, 9).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		run  func() (any, error)
	}{
		{"PageRank", func() (any, error) { return PageRank(g, PageRankOptions{Iterations: 10, Fragments: 2}) }},
		{"BFS", func() (any, error) { return BFS(g, 0, 2) }},
		{"SSSP", func() (any, error) { return SSSP(g, 0, 2) }},
		{"WCC", func() (any, error) { return WCC(wg, 2) }},
		{"CDLP", func() (any, error) { return CDLP(g, 5, 2) }},
		{"KCore", func() (any, error) { return KCore(g, 4, 2) }},
		{"Equity", func() (any, error) {
			return Equity(g, 0, 125, EquityOptions{Epsilon: 0.3, MaxDepth: 4, Fragments: 2})
		}},
	}
	results := func(procs int) map[string]any {
		out := map[string]any{}
		withGOMAXPROCS(t, procs, func() {
			for _, r := range runs {
				res, err := r.run()
				if err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				out[r.name] = res
			}
		})
		return out
	}
	narrow, wide := results(2), results(8)
	for _, r := range runs {
		if !reflect.DeepEqual(wide[r.name], narrow[r.name]) {
			t.Errorf("%s: results at GOMAXPROCS 8 differ from GOMAXPROCS 2", r.name)
		}
	}

	if d := maxAbsDiff(wide["PageRank"].([]float64), refPageRank(g, 0.85, 10)); d > 1e-9 {
		t.Errorf("PageRank: max diff %v", d)
	}
	if err := sameFloats(wide["BFS"].([]float64), refBFS(g, 0), true); err != nil {
		t.Errorf("BFS: %v", err)
	}
	if err := sameFloats(wide["WCC"].([]float64), refWCC(wg), true); err != nil {
		t.Errorf("WCC: %v", err)
	}
	kc, want := wide["KCore"].([]bool), refKCore(g, 4)
	for v := range kc {
		if kc[v] != want[v] {
			t.Fatalf("KCore: vertex %d got %v want %v", v, kc[v], want[v])
		}
	}
}

// refTriangles is a brute-force O(n^3) triangle counter over the undirected
// deduplicated view.
func refTriangles(g grin.Graph) int64 {
	n := g.NumVertices()
	has := make(map[[2]graph.VID]bool)
	for v := 0; v < n; v++ {
		grin.ForEachNeighbor(g, graph.VID(v), graph.Both, func(u graph.VID, _ graph.EID) bool {
			a, b := graph.VID(v), u
			if a > b {
				a, b = b, a
			}
			if a != b {
				has[[2]graph.VID{a, b}] = true
			}
			return true
		})
	}
	var c int64
	for u := graph.VID(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			if !has[[2]graph.VID{u, v}] {
				continue
			}
			for w := v + 1; int(w) < n; w++ {
				if has[[2]graph.VID{u, w}] && has[[2]graph.VID{v, w}] {
					c++
				}
			}
		}
	}
	return c
}

// TestTriangleCountWorkersAgree: every worker count must produce the exact
// reference count on a random power-law graph.
func TestTriangleCountWorkersAgree(t *testing.T) {
	g, err := dataset.Datagen("t", 150, 8, 77).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	want := refTriangles(g)
	if want == 0 {
		t.Fatal("degenerate test graph: no triangles")
	}
	for _, workers := range []int{0, 1, 2, 3, 16} {
		if got := TriangleCount(g, workers); got != want {
			t.Fatalf("workers=%d: %d triangles, want %d", workers, got, want)
		}
	}
}

// BenchmarkTriangleCount measures workers=1 vs workers=NumCPU; the
// acceptance gate for the parallel runtime on the analytics path.
func BenchmarkTriangleCount(b *testing.B) {
	g, err := dataset.Datagen("bench", 20_000, 12, 5).ToCSR(true)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				TriangleCount(g, workers)
			}
		})
	}
}

// BenchmarkPageRankFragments measures the PIE PageRank across fragment
// counts; fragments are the engine's only parallelism, so fewer fragments
// than GOMAXPROCS leave cores idle.
func BenchmarkPageRankFragments(b *testing.B) {
	g, err := dataset.Datagen("bench", 20_000, 12, 6).ToCSR(true)
	if err != nil {
		b.Fatal(err)
	}
	for _, frags := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("fragments=%d", frags), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PageRank(g, PageRankOptions{Iterations: 5, Fragments: frags}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
