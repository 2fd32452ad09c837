package algorithms

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
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
// references and be bit-identical to the same calls at GOMAXPROCS 2. Equity
// runs on the graph with its weights made share fractions (asShares).
func TestAlgorithmsMatchReferenceWithIntraParallelism(t *testing.T) {
	g, err := dataset.Datagen("t", 500, 6, 42).Weighted(15).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	eg := asShares(t, g)
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
		{"Equity", func() (any, error) {
			return Equity(eg, 0, 125, EquityOptions{Epsilon: 0.3, MaxDepth: 4, Fragments: 2})
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
