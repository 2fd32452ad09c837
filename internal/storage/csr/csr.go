// Package csr implements a plain static Compressed Sparse Row graph. It is
// both the internal adjacency building block reused by richer stores and the
// immutable upper-bound baseline of Exp-1c (Fig 7c): a dynamic store's scan
// throughput is measured against this.
package csr

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/parallel"
)

// Graph is an immutable CSR (+ optional CSC) adjacency with optional edge
// weights. It implements the GRIN topology, array, weight and predicate
// traits; it has no labels or properties (simple/weighted graph model).
type Graph struct {
	n int
	m int

	outOff []uint64
	out    []grin.Target
	inOff  []uint64
	in     []grin.Target // nil unless built with CSC

	weights []float64 // indexed by EID; nil for unweighted
}

var (
	_ grin.Graph         = (*Graph)(nil)
	_ grin.AdjArray      = (*Graph)(nil)
	_ grin.WeightReader  = (*Graph)(nil)
	_ grin.PredicatePush = (*Graph)(nil)
	_ grin.Named         = (*Graph)(nil)
)

// Edge is one input edge for the builder.
type Edge struct {
	Src, Dst graph.VID
	Weight   float64
}

// Options configures Build.
type Options struct {
	// BuildCSC also materializes the in-adjacency. Analytics that pull along
	// in-edges (PageRank pull mode, BFS from destinations) need it.
	BuildCSC bool
	// Weighted stores per-edge weights.
	Weighted bool
	// Workers bounds Build's parallelism: 0 selects GOMAXPROCS, 1 forces the
	// sequential path. The resulting layout is identical for every worker
	// count (parallel counting sort preserves input edge order per vertex).
	Workers int
}

// buildAdj is one parallel counting-sort pass: it groups m items keyed by
// key(i) into per-vertex segments, returning the n+1 offset array and calling
// place(i, slot) once per item with its destination slot. Items keep their
// input order within each vertex segment — each worker owns a contiguous item
// chunk and chunk-relative cursors are pre-offset by the items earlier chunks
// contribute, so the layout is identical to a sequential stable pass.
func buildAdj(n, m, workers int, key func(i int) graph.VID, place func(i int, slot uint64)) []uint64 {
	if m == 0 {
		return make([]uint64, n+1)
	}
	counts := make([][]uint32, parallel.Workers(workers, m))
	parallel.For(m, workers, func(w, lo, hi int) {
		c := make([]uint32, n)
		for i := lo; i < hi; i++ {
			c[key(i)]++
		}
		counts[w] = c
	})
	// Per vertex: rewrite chunk counts into chunk-relative start cursors and
	// collect the total degree.
	off := make([]uint64, n+1)
	parallel.For(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			var run uint32
			for w := range counts {
				cw := counts[w][v]
				counts[w][v] = run
				run += cw
			}
			off[v+1] = uint64(run)
		}
	})
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	parallel.For(m, workers, func(w, lo, hi int) {
		c := counts[w]
		for i := lo; i < hi; i++ {
			v := key(i)
			slot := off[v] + uint64(c[v])
			c[v]++
			place(i, slot)
		}
	})
	return off
}

// Build constructs a CSR graph over n vertices from an edge list. Edge IDs
// are assigned in out-CSR order: the EID of the k-th slot of the out
// adjacency is k, and the CSC mirrors reference the same IDs. Construction
// runs on opt.Workers workers (degree counting, placement and the CSC pass
// are all parallel) and produces the same graph at every worker count.
func Build(n int, edges []Edge, opt Options) (*Graph, error) {
	g := &Graph{n: n, m: len(edges)}
	m := len(edges)

	// Validation: each worker reports the first bad edge of its chunk; the
	// merge keeps the lowest index so the error matches a sequential scan.
	bad := parallel.Reduce(m, opt.Workers, -1, func(_, lo, hi, acc int) int {
		for i := lo; i < hi; i++ {
			if int(edges[i].Src) >= n || int(edges[i].Dst) >= n {
				return i
			}
		}
		return acc
	}, func(a, b int) int {
		switch {
		case a == -1:
			return b
		case b == -1 || a < b:
			return a
		default:
			return b
		}
	})
	if bad >= 0 {
		e := edges[bad]
		return nil, fmt.Errorf("csr: edge %d (%d->%d) out of range n=%d", bad, e.Src, e.Dst, n)
	}

	g.out = make([]grin.Target, m)
	if opt.Weighted {
		g.weights = make([]float64, m)
	}
	g.outOff = buildAdj(n, m, opt.Workers, func(i int) graph.VID { return edges[i].Src },
		func(i int, slot uint64) {
			g.out[slot] = grin.Target{Nbr: edges[i].Dst, Edge: graph.EID(slot)}
			if opt.Weighted {
				g.weights[slot] = edges[i].Weight
			}
		})

	if opt.BuildCSC {
		// Source vertex of every out slot, for the slot-chunked CSC pass.
		srcOf := make([]graph.VID, m)
		parallel.For(n, opt.Workers, func(_, vlo, vhi int) {
			for v := vlo; v < vhi; v++ {
				for s := g.outOff[v]; s < g.outOff[v+1]; s++ {
					srcOf[s] = graph.VID(v)
				}
			}
		})
		g.in = make([]grin.Target, m)
		g.inOff = buildAdj(n, m, opt.Workers, func(i int) graph.VID { return g.out[i].Nbr },
			func(i int, slot uint64) {
				g.in[slot] = grin.Target{Nbr: srcOf[i], Edge: g.out[i].Edge}
			})
	}
	return g, nil
}

// BackendName implements grin.Named.
func (g *Graph) BackendName() string { return "csr" }

// NumVertices implements grin.Graph.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges implements grin.Graph.
func (g *Graph) NumEdges() int { return g.m }

// Degree implements grin.Graph.
func (g *Graph) Degree(v graph.VID, dir graph.Direction) int {
	switch dir {
	case graph.Out:
		return int(g.outOff[v+1] - g.outOff[v])
	case graph.In:
		if g.in == nil {
			return 0
		}
		return int(g.inOff[v+1] - g.inOff[v])
	default:
		return g.Degree(v, graph.Out) + g.Degree(v, graph.In)
	}
}

// AdjSlice implements grin.AdjArray. For Both it returns only the out
// adjacency; callers needing both directions iterate each separately.
func (g *Graph) AdjSlice(v graph.VID, dir graph.Direction) []grin.Target {
	switch dir {
	case graph.Out:
		return g.out[g.outOff[v]:g.outOff[v+1]]
	case graph.In:
		if g.in == nil {
			return nil
		}
		return g.in[g.inOff[v]:g.inOff[v+1]]
	default:
		return g.out[g.outOff[v]:g.outOff[v+1]]
	}
}

// Neighbors implements grin.Graph.
func (g *Graph) Neighbors(v graph.VID, dir graph.Direction, yield func(graph.VID, graph.EID) bool) {
	if dir != graph.In {
		for _, t := range g.AdjSlice(v, graph.Out) {
			if !yield(t.Nbr, t.Edge) {
				return
			}
		}
	}
	if dir != graph.Out {
		for _, t := range g.AdjSlice(v, graph.In) {
			if !yield(t.Nbr, t.Edge) {
				return
			}
		}
	}
}

// EdgeWeight implements grin.WeightReader.
func (g *Graph) EdgeWeight(e graph.EID) float64 {
	if g.weights == nil {
		return 1.0
	}
	return g.weights[e]
}

// ScanVertices implements grin.PredicatePush; simple graphs ignore label.
func (g *Graph) ScanVertices(_ graph.LabelID, pred func(graph.VID) bool, yield func(graph.VID) bool) {
	for v := graph.VID(0); int(v) < g.n; v++ {
		if pred != nil && !pred(v) {
			continue
		}
		if !yield(v) {
			return
		}
	}
}
