package flash

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/grin"
)

// BFS expresses breadth-first search in FLASH primitives: the host loop
// drives EdgeMap over the frontier with a CAS-claimed visit condition.
func BFS(g grin.Graph, root graph.VID, workers int) []float64 {
	e := NewEngine(g, workers)
	n := e.N()
	dist := make([]int64, n)
	for v := range dist {
		dist[v] = -1
	}
	dist[root] = 0
	frontier := NewVertexSet(n)
	frontier.Add(root)
	level := int64(1)
	for frontier.Size() > 0 {
		lvl := level
		frontier = e.EdgeMap(frontier, graph.Out, nil, func(_, dst graph.VID, _ graph.EID) bool {
			return atomic.CompareAndSwapInt64(&dist[dst], -1, lvl)
		})
		level++
	}
	out := make([]float64, n)
	for v := range out {
		if dist[v] < 0 {
			out[v] = 1.7976931348623157e308
		} else {
			out[v] = float64(dist[v])
		}
	}
	return out
}

// CC computes weakly connected components via FLASH min-label rounds:
// non-fixed-point host control (loop until the frontier dries up).
func CC(g grin.Graph, workers int) []float64 {
	e := NewEngine(g, workers)
	n := e.N()
	label := make([]uint64, n)
	for v := range label {
		label[v] = uint64(v)
	}
	frontier := Full(n)
	for frontier.Size() > 0 {
		frontier = e.EdgeMap(frontier, graph.Both, nil, func(src, dst graph.VID, _ graph.EID) bool {
			// Atomically lower dst's label to src's if smaller.
			for {
				l := atomic.LoadUint64(&label[src])
				old := atomic.LoadUint64(&label[dst])
				if l >= old {
					return false
				}
				if atomic.CompareAndSwapUint64(&label[dst], old, l) {
					return true
				}
			}
		})
	}
	out := make([]float64, n)
	for v := range out {
		out[v] = float64(label[v])
	}
	return out
}

// KCore peels vertices below degree k using FLASH's beyond-neighborhood
// control flow: the removal frontier shrinks degrees and re-seeds itself.
func KCore(g grin.Graph, k, workers int) []bool {
	e := NewEngine(g, workers)
	n := e.N()
	deg := make([]int64, n)
	removed := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = int64(g.Degree(graph.VID(v), graph.Both))
	}
	// Seed: all vertices below k.
	frontier := e.VertexMap(Full(n), func(v graph.VID) bool {
		if deg[v] < int64(k) {
			removed[v] = 1
			return true
		}
		return false
	})
	notRemoved := func(u graph.VID) bool { return atomic.LoadInt32(&removed[u]) == 0 }
	for frontier.Size() > 0 {
		frontier = e.EdgeMap(frontier, graph.Both, notRemoved, func(_, u graph.VID, _ graph.EID) bool {
			// u just dropped below k: claim removal exactly once.
			return atomic.AddInt64(&deg[u], -1) == int64(k)-1 &&
				atomic.CompareAndSwapInt32(&removed[u], 0, 1)
		})
	}
	in := make([]bool, n)
	for v := range in {
		in[v] = removed[v] == 0
	}
	return in
}
