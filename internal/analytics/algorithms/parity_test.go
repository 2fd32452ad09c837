package algorithms

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/storage/chaos"
	"repro/internal/storage/csr"
)

// topologyOnly narrows a store to the iterator and weight traits. Wrapped in
// chaos it yields a grin.TraitMasker whose method set still has AdjSlice but
// whose HasTrait says the array trait is gone — and whose AdjSlice would
// dereference nil, so an engine that ignores the mask crashes the test.
type topologyOnly struct {
	grin.Graph
	grin.WeightReader
}

// parityGraphs are the generated inputs of TestGeneratedParity: the shapes
// that broke, or could break, a fragment-centric engine.
func parityGraphs(t *testing.T) map[string]*csr.Graph {
	t.Helper()
	star := &dataset.Simple{N: 50}
	for v := 1; v < 50; v++ { // hub 0 outweighs any share
		star.Src = append(star.Src, 0, graph.VID(v))
		star.Dst = append(star.Dst, graph.VID(v), 0)
	}
	graphs := map[string]*csr.Graph{}
	for name, s := range map[string]*dataset.Simple{
		// Datagen hands out its out-edges in ID order until the edge target
		// is met: every out-edge starts in the first half of the ID range.
		"datagen":  dataset.Datagen("t", 200, 6, 13),
		"rmat":     dataset.RMAT("t", 7, 4, 14),
		"star":     star,
		"isolated": {N: 20},
		"single":   {N: 1},
	} {
		g, err := s.Weighted(15).ToCSR(true)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	return graphs
}

// refCDLP is synchronous label propagation over both edge directions.
func refCDLP(g grin.Graph, rounds int) []float64 {
	n := g.NumVertices()
	label := make([]float64, n)
	for v := range label {
		label[v] = float64(v)
	}
	for r := 0; r < rounds; r++ {
		next := append([]float64(nil), label...)
		for v := 0; v < n; v++ {
			var in []float64
			g.Neighbors(graph.VID(v), graph.Both, func(u graph.VID, _ graph.EID) bool {
				in = append(in, label[u])
				return true
			})
			if len(in) > 0 {
				next[v] = modeLabel(in)
			}
		}
		label = next
	}
	return label
}

// refEquity propagates (holder, share) pairs level by level, as Equity's
// supersteps do: PEval is the first of maxDepth supersteps, and each level's
// shares are summed per (company, holder) before eps prunes them.
func refEquity(g grin.Graph, lo, hi graph.VID, eps float64, maxDepth int) []map[uint32]float64 {
	type holding struct {
		v      graph.VID
		holder uint32
		share  float64
	}
	var cur []holding
	for v := lo; v < hi; v++ {
		g.Neighbors(v, graph.Out, func(c graph.VID, e graph.EID) bool {
			cur = append(cur, holding{c, uint32(v), grin.Weight(g, e)})
			return true
		})
	}
	acc := make([]map[uint32]float64, g.NumVertices())
	for step := 1; len(cur) > 0 && step < maxDepth; step++ {
		var next []holding
		slices.SortStableFunc(cur, func(a, b holding) int {
			return cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.holder, b.holder))
		})
		for i := 0; i < len(cur); {
			h := cur[i]
			for i++; i < len(cur) && cur[i].v == h.v && cur[i].holder == h.holder; i++ {
				h.share += cur[i].share
			}
			if acc[h.v] == nil {
				acc[h.v] = map[uint32]float64{}
			}
			acc[h.v][h.holder] += h.share
			if h.share < eps {
				continue
			}
			g.Neighbors(h.v, graph.Out, func(c graph.VID, e graph.EID) bool {
				next = append(next, holding{c, h.holder, h.share * grin.Weight(g, e)})
				return true
			})
		}
		cur = next
	}
	return acc
}

func closeTo(got, want float64) bool {
	return got == want || math.Abs(got-want) <= 1e-9*math.Abs(want)
}

// sameFloats compares exactly, or to 1e-9 relative for programs that sum.
func sameFloats(got, want []float64, exact bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] && (exact || !closeTo(got[v], want[v])) {
			return fmt.Errorf("vertex %d: got %v want %v", v, got[v], want[v])
		}
	}
	return nil
}

// TestGeneratedParity runs every PIE program of the library against a
// sequential reference over generated graphs × fragment counts × GOMAXPROCS
// × (the CSR itself, the CSR with its array trait masked): exact for the
// min/label programs, 1e-9 for the sums.
func TestGeneratedParity(t *testing.T) {
	const (
		prIters   = 5
		cdlpRound = 4
		eqEps     = 0.3
		eqDepth   = 4
	)
	for name, g := range parityGraphs(t) {
		n := g.NumVertices()
		holders := graph.VID(max(n/4, 1))
		wantPR := refPageRank(g, 0.85, prIters)
		wantBFS, wantSSSP, wantWCC := refBFS(g, 0), refSSSP(g, 0), refWCC(g)
		wantCDLP := refCDLP(g, cdlpRound)
		wantEq := refEquity(g, 0, holders, eqEps, eqDepth)

		stores := map[string]grin.Graph{
			"csr":    g,
			"masked": chaos.Wrap(topologyOnly{g, g}, chaos.Options{}),
		}
		if _, ok := grin.AsAdjArray(stores["masked"]); ok {
			t.Fatal("masked store still offers the array trait")
		}
		for storeName, store := range stores {
			for _, frags := range []int{1, 2, 3, 7, n + 1} {
				for _, intra := range []int{1, 3} {
					// intra=N sets GOMAXPROCS to N Ps per fragment (fragments
					// clamped to n), skipping cells above 64 Ps. Fragments
					// are the engine's only parallelism, so the Ps must not
					// move a result.
					procs := min(frags, n) * intra
					if procs > 64 {
						continue
					}
					t.Run(fmt.Sprintf("%s/%s/frags=%d/intra=%d", name, storeName, frags, intra), func(t *testing.T) {
						withGOMAXPROCS(t, procs, func() {
							pr, err := PageRank(store, PageRankOptions{Iterations: prIters, Fragments: frags})
							if err == nil {
								err = sameFloats(pr, wantPR, false)
							}
							if err != nil {
								t.Errorf("PageRank: %v", err)
							}
							for _, alg := range []struct {
								name string
								run  func() ([]float64, error)
								want []float64
							}{
								{"BFS", func() ([]float64, error) { return BFS(store, 0, frags) }, wantBFS},
								{"SSSP", func() ([]float64, error) { return SSSP(store, 0, frags) }, wantSSSP},
								{"WCC", func() ([]float64, error) { return WCC(store, frags) }, wantWCC},
								{"CDLP", func() ([]float64, error) { return CDLP(store, cdlpRound, frags) }, wantCDLP},
							} {
								got, err := alg.run()
								if err == nil {
									err = sameFloats(got, alg.want, true)
								}
								if err != nil {
									t.Errorf("%s: %v", alg.name, err)
								}
							}
							eq, err := Equity(store, 0, holders, EquityOptions{Epsilon: eqEps, MaxDepth: eqDepth, Fragments: frags})
							if err != nil {
								t.Fatalf("Equity: %v", err)
							}
							for v := range wantEq {
								if len(eq.Shares[v]) != len(wantEq[v]) {
									t.Errorf("Equity: vertex %d: %d holders, want %d", v, len(eq.Shares[v]), len(wantEq[v]))
									break
								}
								for h, s := range wantEq[v] {
									if !closeTo(eq.Shares[v][h], s) {
										t.Errorf("Equity: vertex %d holder %d: got %v want %v", v, h, eq.Shares[v][h], s)
									}
								}
							}
						})
					})
				}
			}
		}
	}
}
