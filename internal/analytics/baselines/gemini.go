package baselines

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/partition"
)

// geminiChunk is Gemini's mirror-synchronization granularity: raw message
// structs shipped in fixed-size chunks (one channel op per chunk, no
// compaction or sender-side combining).
const geminiChunk = 1024

// Gemini is a push/pull dual-mode engine over range-partitioned vertices.
// Computation is chunk-parallel within a worker's range; after each
// iteration every worker broadcasts its updated inner values to all peers.
type Gemini struct {
	g       grin.Graph
	workers int
	n       int
	parts   *partition.Range
}

// NewGemini range-partitions the graph across workers: equal vertex counts,
// stride ⌈n/workers⌉.
func NewGemini(g grin.Graph, workers int) *Gemini {
	workers = defaultWorkers(workers)
	parts, err := partition.NewRange(g.NumVertices(), workers, nil)
	if err != nil {
		panic(err) // workers >= 1 and n >= 0: NewRange cannot refuse them
	}
	return &Gemini{g: g, workers: workers, n: g.NumVertices(), parts: parts}
}

// PageRank runs fixed-iteration PageRank in pull (dense) mode: each worker
// pulls in-neighbor contributions from its mirror array, then broadcasts its
// updated range in chunks.
func (ge *Gemini) PageRank(damping float64, iters int) []float64 {
	n := ge.n
	mirror := make([]float64, n) // rank/deg contributions visible locally
	rank := make([]float64, n)
	outDeg := make([]float64, n)
	for v := 0; v < n; v++ {
		rank[v] = 1 / float64(n)
		outDeg[v] = float64(ge.g.Degree(graph.VID(v), graph.Out))
	}
	router := newRouter(ge.workers, geminiChunk)
	var mirMu sync.Mutex

	for it := 0; it <= iters; it++ {
		// Broadcast contributions of the inner range to every peer (and
		// apply locally); one message per (vertex, peer).
		router.exchange(func(w int, s *sender) {
			lo, hi := ge.parts.Bounds(w)
			for v := lo; v < hi; v++ {
				c := 0.0
				if outDeg[v] > 0 {
					c = rank[v] / outDeg[v]
				}
				// Broadcast to every worker including self (loopback), so
				// all mirror writes happen on the consume side under the
				// lock.
				for peer := 0; peer < ge.workers; peer++ {
					s.send(peer, msg{target: v, value: c})
				}
			}
		}, func(w int, batch []msg) {
			// Apply mirror updates of remote ranges. Every peer receives the
			// same values, so writes are idempotent; the shared lock
			// serializes them for the race detector and models the
			// per-chunk application cost.
			mirMu.Lock()
			for _, m := range batch {
				mirror[m.target] = m.value
			}
			mirMu.Unlock()
		})
		if it == iters {
			break
		}
		// PULL: new rank from in-neighbor contributions.
		var wg sync.WaitGroup
		for w := 0; w < ge.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo, hi := ge.parts.Bounds(w)
				for v := lo; v < hi; v++ {
					sum := 0.0
					grin.ForEachNeighbor(ge.g, v, graph.In, func(u graph.VID, _ graph.EID) bool {
						sum += mirror[u]
						return true
					})
					rank[v] = (1-damping)/float64(n) + damping*sum
				}
			}(w)
		}
		wg.Wait()
	}
	return rank
}

// BFS runs push-mode frontier BFS with chunked frontier broadcast.
func (ge *Gemini) BFS(root graph.VID) []float64 {
	n := ge.n
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = unreached
	}
	dist[root] = 0
	frontier := []graph.VID{root}
	router := newRouter(ge.workers, geminiChunk)
	var mu sync.Mutex
	level := 1.0
	for len(frontier) > 0 {
		var next []graph.VID
		router.exchange(func(w int, s *sender) {
			lo, hi := ge.parts.Bounds(w)
			for _, v := range frontier {
				if v < lo || v >= hi {
					continue // each worker expands its own frontier slice
				}
				grin.ForEachNeighbor(ge.g, v, graph.Out, func(u graph.VID, _ graph.EID) bool {
					s.send(ge.parts.Owner(u), msg{target: u, value: level})
					return true
				})
			}
		}, func(w int, batch []msg) {
			mu.Lock()
			for _, m := range batch {
				if dist[m.target] == unreached {
					dist[m.target] = m.value
					next = append(next, m.target)
				}
			}
			mu.Unlock()
		})
		frontier = next
		level++
	}
	return dist
}
