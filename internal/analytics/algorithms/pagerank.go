// Package algorithms provides the built-in graph analytics library of §6:
// PageRank, BFS, SSSP, WCC, CDLP and the equity propagation of the case
// studies, each a PIE program on the GRAPE engine. Most are vertex-centric
// programs in PIE form: PEval seeds, IncEval relaxes the messages that
// arrived. WCC is the PIE model proper (Fan et al., SIGMOD 2017): a
// sequential union-find is its PEval on each fragment, and an incremental
// relabelling of whole local components its IncEval. Tests cross-check
// PageRank against the same computation in the vertex-centric Pregel API.
package algorithms

import (
	"repro/internal/analytics/grape"
	"repro/internal/graph"
	"repro/internal/grin"
)

// PageRankOptions configures PageRank.
type PageRankOptions struct {
	Damping    float64 // default 0.85
	Iterations int     // default 20 (Graphalytics fixed-iteration PR)
	Fragments  int
}

func (o *PageRankOptions) defaults() {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.Iterations == 0 {
		o.Iterations = 20
	}
}

// PageRank runs fixed-iteration PageRank as a PIE program and returns the
// rank vector.
func PageRank(g grin.Graph, opt PageRankOptions) ([]float64, error) {
	opt.defaults()
	prog := newPageRankPIE(g, opt)
	eng, err := grape.NewEngine(g, grape.Options{Fragments: opt.Fragments, Combine: grape.Sum})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(prog); err != nil {
		return nil, err
	}
	return prog.ranks, nil
}

type pageRankPIE struct {
	g             grin.Graph
	ranks         []float64
	base, damping float64
	iterations    int
}

func newPageRankPIE(g grin.Graph, opt PageRankOptions) *pageRankPIE {
	n := g.NumVertices()
	return &pageRankPIE{g: g, ranks: make([]float64, n),
		base: (1 - opt.Damping) / float64(n), damping: opt.Damping, iterations: opt.Iterations}
}

// PEval initializes ranks and sends the first round of contributions.
func (p *pageRankPIE) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	init := 1.0 / float64(len(p.ranks))
	for v := lo; v < hi; v++ {
		p.ranks[v] = init
	}
	p.nextRound(f, ctx)
}

// IncEval applies the combined contribution sums and, while iterations
// remain, scatters the next round.
func (p *pageRankPIE) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		p.ranks[v] = p.base
	}
	for _, m := range msgs {
		p.ranks[m.Target] += p.damping * m.Value
	}
	p.nextRound(f, ctx)
}

// nextRound sends rank/outdeg along every out-edge while iterations remain.
// The Rerun vote keeps the iteration count fixed on inputs where no message
// flows (a graph, or a fragment, without edges): its ranks must still settle
// to the base.
func (p *pageRankPIE) nextRound(f *grape.Fragment, ctx *grape.Context) {
	if ctx.Superstep() < p.iterations {
		lo, hi := f.Bounds()
		for v := lo; v < hi; v++ {
			if d := p.g.Degree(v, graph.Out); d > 0 {
				ctx.SendToNeighbors(v, graph.Out, p.ranks[v]/float64(d))
			}
		}
		ctx.Rerun()
	}
}
