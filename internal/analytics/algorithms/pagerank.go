// Package algorithms provides the built-in graph analytics library of §6:
// PageRank, BFS, SSSP, WCC, CDLP and the equity propagation of the case
// studies, each a PIE program on the GRAPE engine that declares its exchange,
// so the engine cuts fragments by the adjacency the program walks. BFS, SSSP,
// CDLP and Equity are vertex-centric programs in PIE form: PEval seeds,
// IncEval relaxes the messages that arrived. PageRank is a pull program, as in
// libgrape-lite and Gemini's dense mode: it sends no message, and every
// vertex sums the shares its in-neighbours published in the previous
// superstep. WCC is the PIE model proper (Fan et al., SIGMOD 2017): a
// sequential union-find is its PEval on each fragment, and an incremental
// relabelling of whole local components its IncEval. Tests cross-check
// PageRank against the push form of the same computation in the
// vertex-centric Pregel API.
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

// PageRank runs fixed-iteration PageRank and returns the rank vector. It
// pulls over in-edges, so a store whose in-degrees do not sum to its edge
// count (a CSR built without in-adjacency) is errNoInEdges. On a CSR, whose
// in-adjacency lists sources in ascending order, each rank is summed in the
// order a sequential push loop over ascending sources adds to it, so the
// result is bit-identical to that loop at any fragment count.
func PageRank(g grin.Graph, opt PageRankOptions) ([]float64, error) {
	opt.defaults()
	if err := requireInEdges(g); err != nil {
		return nil, err
	}
	prog := newPageRankPIE(g, opt)
	eng, err := grape.NewEngine(g, grape.Options{Fragments: opt.Fragments})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(prog); err != nil {
		return nil, err
	}
	return prog.rank, nil
}

// pageRankPIE exchanges through share instead of messages: in superstep s a
// fragment writes share[s&1] of its inner vertices and reads share[(s−1)&1]
// of any vertex, which grape's barrier makes visible (see the grape package
// comment). rank and outdeg are written and read by the owner only.
type pageRankPIE struct {
	g    grin.Graph
	adj  grin.AdjArray // nil when the store lacks (or masks) the array trait
	rank []float64
	// outdeg[v] is v's out-degree, read once in PEval.
	outdeg []float64
	// share[p][v] is damping·rank[v]/outdeg[v], or 0 for a sink, as
	// published in the last superstep of parity p.
	share         [2][]float64
	base, damping float64
	iterations    int
}

func newPageRankPIE(g grin.Graph, opt PageRankOptions) *pageRankPIE {
	n := g.NumVertices()
	p := &pageRankPIE{g: g, rank: make([]float64, n), outdeg: make([]float64, n),
		share: [2][]float64{make([]float64, n), make([]float64, n)},
		base:  (1 - opt.Damping) / float64(n), damping: opt.Damping, iterations: opt.Iterations}
	p.adj, _ = grin.AsAdjArray(g)
	return p
}

// Exchange implements grape.Program: no message is sent, and a superstep
// walks each inner vertex's in-edges.
func (p *pageRankPIE) Exchange() grape.Exchange {
	return grape.Exchange{Combine: grape.NoCombine, Walk: graph.In}
}

// PEval initializes ranks and publishes the first shares.
func (p *pageRankPIE) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	init := 1.0 / float64(len(p.rank))
	for v := lo; v < hi; v++ {
		p.outdeg[v] = float64(p.g.Degree(v, graph.Out))
		p.rank[v] = init
		p.share[0][v] = p.shareOf(v, init)
	}
	p.vote(ctx)
}

// IncEval sets each inner vertex's rank to the base plus the shares its
// in-neighbours published in the previous superstep, summed in in-adjacency
// order, and publishes its own share while iterations remain.
func (p *pageRankPIE) IncEval(f *grape.Fragment, ctx *grape.Context, _ []grape.Message) {
	lo, hi := f.Bounds()
	s := ctx.Superstep()
	prev, next := p.share[(s-1)&1], p.share[s&1]
	publish := s < p.iterations
	if p.adj == nil {
		p.pullNeighbors(lo, hi, prev, next, publish)
	} else {
		for v := lo; v < hi; v++ {
			sum := p.base
			for _, t := range p.adj.AdjSlice(v, graph.In) {
				sum += prev[t.Nbr]
			}
			p.rank[v] = sum
			if publish {
				next[v] = p.shareOf(v, sum)
			}
		}
	}
	p.vote(ctx)
}

// pullNeighbors is IncEval's loop for stores without the array trait: the
// same sums, through Neighbors.
func (p *pageRankPIE) pullNeighbors(lo, hi graph.VID, prev, next []float64, publish bool) {
	var sum float64
	add := func(u graph.VID, _ graph.EID) bool {
		sum += prev[u]
		return true
	}
	for v := lo; v < hi; v++ {
		sum = p.base
		p.g.Neighbors(v, graph.In, add)
		p.rank[v] = sum
		if publish {
			next[v] = p.shareOf(v, sum)
		}
	}
}

func (p *pageRankPIE) shareOf(v graph.VID, rank float64) float64 {
	if d := p.outdeg[v]; d > 0 {
		return p.damping * rank / d
	}
	return 0
}

// vote keeps the run going while iterations remain. No message flows, so
// the Rerun vote alone fixes the superstep count at iterations + 1.
func (p *pageRankPIE) vote(ctx *grape.Context) {
	if ctx.Superstep() < p.iterations {
		ctx.Rerun()
	}
}
