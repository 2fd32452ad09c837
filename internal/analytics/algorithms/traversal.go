package algorithms

import (
	"errors"
	"math"

	"repro/internal/analytics/grape"
	"repro/internal/graph"
	"repro/internal/grin"
)

// Unreached marks vertices not reached by BFS/SSSP.
const Unreached = math.MaxFloat64

// errRootNotVertex rejects a traversal root that is not a vertex of the
// graph: no fragment owns it, so the run would report every vertex
// Unreached.
var errRootNotVertex = errors.New("algorithms: root is not a vertex of the graph")

// BFS computes level-synchronous breadth-first levels from root over
// out-edges. Unreached vertices get Unreached.
func BFS(g grin.Graph, root graph.VID, fragments int) ([]float64, error) {
	if int(root) >= g.NumVertices() {
		return nil, errRootNotVertex
	}
	prog := newBFSPIE(g, root)
	eng, err := grape.NewEngine(g, grape.Options{
		Fragments: fragments,
		Combine:   grape.Min,
	})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(prog); err != nil {
		return nil, err
	}
	return prog.dist, nil
}

type bfsPIE struct {
	root graph.VID
	dist []float64
}

func newBFSPIE(g grin.Graph, root graph.VID) *bfsPIE {
	return &bfsPIE{root: root, dist: make([]float64, g.NumVertices())}
}

// PEval seeds the frontier at the root's fragment.
func (p *bfsPIE) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		p.dist[v] = Unreached
	}
	if f.IsInner(p.root) {
		p.dist[p.root] = 0
		ctx.SendToNeighbors(p.root, graph.Out, 1)
	}
}

// IncEval settles newly discovered vertices and expands the frontier.
func (p *bfsPIE) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	for _, m := range msgs {
		if m.Value < p.dist[m.Target] {
			p.dist[m.Target] = m.Value
			// Do not peek at p.dist of a neighbor: it may be owned by another
			// fragment whose state is being written concurrently. The
			// receiver discards stale levels.
			ctx.SendToNeighbors(m.Target, graph.Out, m.Value+1)
		}
	}
}

// SSSP computes single-source shortest paths over weighted out-edges
// (Bellman-Ford style label correcting with min-combined messages).
func SSSP(g grin.Graph, root graph.VID, fragments int) ([]float64, error) {
	if int(root) >= g.NumVertices() {
		return nil, errRootNotVertex
	}
	prog := &ssspPIE{g: g, root: root, dist: make([]float64, g.NumVertices())}
	eng, err := grape.NewEngine(g, grape.Options{
		Fragments: fragments,
		Combine:   grape.Min,
	})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(prog); err != nil {
		return nil, err
	}
	return prog.dist, nil
}

type ssspPIE struct {
	g    grin.Graph
	root graph.VID
	dist []float64
}

// PEval seeds and relaxes the root.
func (p *ssspPIE) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		p.dist[v] = Unreached
	}
	if f.IsInner(p.root) {
		p.dist[p.root] = 0
		p.relax(ctx, p.root, 0)
	}
}

// IncEval applies improved distances and relaxes outward.
func (p *ssspPIE) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	for _, m := range msgs {
		if m.Value < p.dist[m.Target] {
			p.dist[m.Target] = m.Value
			p.relax(ctx, m.Target, m.Value)
		}
	}
}

func (p *ssspPIE) relax(ctx *grape.Context, v graph.VID, dv float64) {
	g := p.g
	// No remote-state peeking (see bfsPIE.IncEval); the min combiner and
	// the receiver-side check keep the message volume bounded.
	grin.ForEachNeighbor(g, v, graph.Out, func(n graph.VID, e graph.EID) bool {
		ctx.Send(n, dv+grin.Weight(g, e))
		return true
	})
}

// WCC computes weakly connected components by min-label propagation over
// both edge directions; the result maps each vertex to its component's
// minimum vertex ID.
func WCC(g grin.Graph, fragments int) ([]float64, error) {
	prog := newWCCPIE(g)
	eng, err := grape.NewEngine(g, grape.Options{
		Fragments: fragments,
		Combine:   grape.Min,
	})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(prog); err != nil {
		return nil, err
	}
	return prog.label, nil
}

type wccPIE struct {
	label []float64
}

func newWCCPIE(g grin.Graph) *wccPIE {
	return &wccPIE{label: make([]float64, g.NumVertices())}
}

// PEval assigns self-labels and broadcasts them.
func (p *wccPIE) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		p.label[v] = float64(v)
	}
	for v := lo; v < hi; v++ {
		ctx.SendToNeighbors(v, graph.Both, p.label[v])
	}
}

// IncEval adopts smaller labels and re-broadcasts.
func (p *wccPIE) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	for _, m := range msgs {
		if m.Value < p.label[m.Target] {
			p.label[m.Target] = m.Value
			// Sends are unconditional: neighbor labels may live on other
			// fragments (see bfsPIE.IncEval).
			ctx.SendToNeighbors(m.Target, graph.Both, m.Value)
		}
	}
}
