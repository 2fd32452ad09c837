// Package flash implements the FLASH programming model of §6: a flexible
// control-flow API over vertex subsets that expresses algorithms beyond
// fixed-point vertex-centric computation ([58] in the paper). Programs chain
// VertexMap / EdgeMap primitives over frontiers under arbitrary host control
// flow, with parallel execution inside each primitive.
package flash

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/parallel"
)

// VertexSet is a dense subset of vertices.
type VertexSet struct {
	bits  []uint64
	count int
}

// NewVertexSet returns an empty set over n vertices.
func NewVertexSet(n int) *VertexSet {
	return &VertexSet{bits: make([]uint64, (n+63)/64)}
}

// Full returns the set of all n vertices.
func Full(n int) *VertexSet {
	s := NewVertexSet(n)
	for v := 0; v < n; v++ {
		s.Add(graph.VID(v))
	}
	return s
}

// Add inserts v.
func (s *VertexSet) Add(v graph.VID) {
	w, b := v/64, v%64
	if s.bits[w]&(1<<b) == 0 {
		s.bits[w] |= 1 << b
		s.count++
	}
}

// Contains reports membership.
func (s *VertexSet) Contains(v graph.VID) bool {
	return s.bits[v/64]&(1<<(v%64)) != 0
}

// Size returns the cardinality.
func (s *VertexSet) Size() int { return s.count }

// ForEach visits members in ascending order.
func (s *VertexSet) ForEach(f func(v graph.VID)) { s.forEachIn(0, len(s.bits), f) }

// forEachIn visits the members held in bitmap words [lo, hi), ascending.
func (s *VertexSet) forEachIn(lo, hi int, f func(v graph.VID)) {
	for w := lo; w < hi; w++ {
		for m := s.bits[w]; m != 0; m &= m - 1 {
			f(graph.VID(w<<6 | bits.TrailingZeros64(m)))
		}
	}
}

// Engine executes FLASH primitives in parallel over a GRIN graph.
type Engine struct {
	g       grin.Graph
	workers int
	n       int
}

// NewEngine wraps a graph for FLASH execution.
func NewEngine(g grin.Graph, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{g: g, workers: workers, n: g.NumVertices()}
}

// Graph returns the underlying graph.
func (e *Engine) Graph() grin.Graph { return e.g }

// N returns the vertex count.
func (e *Engine) N() int { return e.n }

// parallelOver runs f on every member of U and returns the sum of what f
// returned. Workers of the shared runtime take chunks of U's bitmap words
// from a cursor, since frontiers are skewed; a worker owns every member of
// the words it takes.
func (e *Engine) parallelOver(u *VertexSet, f func(v graph.VID) int) int {
	return parallel.ReduceDynamic(len(u.bits), e.workers, 0, 0, func(lo, hi, n int) int {
		u.forEachIn(lo, hi, func(v graph.VID) { n += f(v) })
		return n
	}, func(a, b int) int { return a + b })
}

// VertexMap returns the subset of U where f returns true. f may update
// per-vertex state; it must only write state owned by v.
func (e *Engine) VertexMap(u *VertexSet, f func(v graph.VID) bool) *VertexSet {
	out := NewVertexSet(e.n)
	out.count = e.parallelOver(u, func(v graph.VID) int {
		if !f(v) {
			return 0
		}
		out.bits[v>>6] |= 1 << (v & 63) // v's word belongs to this worker
		return 1
	})
	return out
}

// EdgeMap applies h to every edge (u, v) with u ∈ U and cond(v); vertices
// for which h returns true join the result frontier. Unlike Pregel, h may
// target non-neighbor state via the returned frontier and host control flow
// — FLASH's distinguishing capability.
func (e *Engine) EdgeMap(u *VertexSet, dir graph.Direction, cond func(v graph.VID) bool, h func(src, dst graph.VID, eid graph.EID) bool) *VertexSet {
	out := NewVertexSet(e.n)
	out.count = e.parallelOver(u, func(src graph.VID) int {
		added := 0
		grin.ForEachNeighbor(e.g, src, dir, func(dst graph.VID, eid graph.EID) bool {
			if (cond == nil || cond(dst)) && h(src, dst, eid) {
				// dst's word may belong to any worker.
				bit := uint64(1) << (dst & 63)
				if atomic.OrUint64(&out.bits[dst>>6], bit)&bit == 0 {
					added++
				}
			}
			return true
		})
		return added
	})
	return out
}
