package algorithms

import (
	"math"

	"repro/internal/analytics/grape"
	"repro/internal/graph"
	"repro/internal/grin"
)

// Unreached marks vertices not reached by BFS/SSSP.
const Unreached = math.MaxFloat64

// BFS computes level-synchronous breadth-first levels from root over
// out-edges. Unreached vertices get Unreached.
func BFS(g grin.Graph, root graph.VID, fragments int) ([]float64, error) {
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
	// settleFn is the method value p.settle, bound once per run: binding it
	// inside IncEval would allocate per fragment per superstep.
	settleFn func(*grape.Sender, grape.Message)
}

func newBFSPIE(g grin.Graph, root graph.VID) *bfsPIE {
	p := &bfsPIE{root: root, dist: make([]float64, g.NumVertices())}
	p.settleFn = p.settle
	return p
}

// PEval seeds the frontier at the root's fragment.
func (p *bfsPIE) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	ctx.ParallelFor(lo, hi, func(_ *grape.Sender, v graph.VID) {
		p.dist[v] = Unreached
	})
	if f.IsInner(p.root) {
		p.dist[p.root] = 0
		ctx.SendToNeighbors(p.root, graph.Out, 1)
	}
}

// IncEval settles newly discovered vertices and expands the frontier. The
// min combiner delivers one message per target, so targets are distinct and
// the frontier expands in parallel.
func (p *bfsPIE) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	ctx.ParallelForMessages(msgs, p.settleFn)
}

func (p *bfsPIE) settle(s *grape.Sender, m grape.Message) {
	if m.Value < p.dist[m.Target] {
		p.dist[m.Target] = m.Value
		// Do not peek at p.dist of a neighbor: it may be owned by another
		// fragment whose state is being written concurrently. The receiver
		// discards stale levels.
		s.SendToNeighbors(m.Target, graph.Out, m.Value+1)
	}
}

// SSSP computes single-source shortest paths over weighted out-edges
// (Bellman-Ford style label correcting with min-combined messages).
func SSSP(g grin.Graph, root graph.VID, fragments int) ([]float64, error) {
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
	ctx.ParallelFor(lo, hi, func(_ *grape.Sender, v graph.VID) {
		p.dist[v] = Unreached
	})
	if f.IsInner(p.root) {
		p.dist[p.root] = 0
		p.relax(ctx, p.root, 0)
	}
}

// IncEval applies improved distances and relaxes outward (min-combined
// messages have distinct targets, so the loop is parallel).
func (p *ssspPIE) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	ctx.ParallelForMessages(msgs, func(s *grape.Sender, m grape.Message) {
		if m.Value < p.dist[m.Target] {
			p.dist[m.Target] = m.Value
			p.relax(s, m.Target, m.Value)
		}
	})
}

func (p *ssspPIE) relax(sink grape.Sink, v graph.VID, dv float64) {
	g := p.g
	// No remote-state peeking (see bfsPIE.settle); the min combiner and
	// the receiver-side check keep the message volume bounded.
	grin.ForEachNeighbor(g, v, graph.Out, func(n graph.VID, e graph.EID) bool {
		sink.Send(n, dv+grin.Weight(g, e))
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
	// adoptFn is p.adopt bound once per run (see bfsPIE.settleFn).
	adoptFn func(*grape.Sender, grape.Message)
}

func newWCCPIE(g grin.Graph) *wccPIE {
	p := &wccPIE{label: make([]float64, g.NumVertices())}
	p.adoptFn = p.adopt
	return p
}

// PEval assigns self-labels and broadcasts them.
func (p *wccPIE) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	ctx.ParallelFor(lo, hi, func(_ *grape.Sender, v graph.VID) {
		p.label[v] = float64(v)
	})
	ctx.ParallelFor(lo, hi, func(s *grape.Sender, v graph.VID) {
		s.SendToNeighbors(v, graph.Both, p.label[v])
	})
}

// IncEval adopts smaller labels and re-broadcasts (min-combined messages
// have distinct targets, so the loop is parallel).
func (p *wccPIE) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	ctx.ParallelForMessages(msgs, p.adoptFn)
}

func (p *wccPIE) adopt(s *grape.Sender, m grape.Message) {
	if m.Value < p.label[m.Target] {
		p.label[m.Target] = m.Value
		// Sends are unconditional: neighbor labels may live on other
		// fragments (see bfsPIE.settle).
		s.SendToNeighbors(m.Target, graph.Both, m.Value)
	}
}
