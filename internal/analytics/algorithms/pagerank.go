// Package algorithms provides the built-in graph analytics library of §6:
// PageRank, BFS, SSSP, WCC, CDLP and the equity propagation of the case
// studies, each a PIE program on the GRAPE engine that declares its exchange,
// so the engine cuts fragments by the adjacency the program walks. BFS, SSSP,
// CDLP and Equity are vertex-centric programs in PIE form: PEval seeds, IncEval
// relaxes the messages that arrived. PageRank is a pull program, as in
// libgrape-lite and Gemini's dense mode: it sends no message, and a vertex sums
// the shares its in-neighbours published in the previous superstep. A pull
// recomputes only the vertices whose share some vertex reads — those with an
// out-edge — and pulls each sink once, in the last superstep. WCC is the PIE
// model proper (Fan et al., SIGMOD 2017) and sends no message either: its
// PEval on each fragment is a sequential union-find that reads every out-edge
// of the fragment once, its partial results are the pairs of roots that the
// outer vertices those edges reach join, found without walking an edge again,
// and every fragment assembles them into its own labels. Tests cross-check
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
// comment). rank and outdeg are written and read by the owner only. No vertex
// reads a sink's share, so a sink is pulled in the last superstep only, as
// the engine's cut for Walk: In assumes.
type pageRankPIE struct {
	g   grin.Graph
	adj grin.AdjArray // nil when the store lacks (or masks) the array trait
	// rank[v] is written in the last superstep (PEval's 1/n before it).
	rank []float64
	// outdeg[v] is v's out-degree, read once in PEval.
	outdeg []float64
	// share[p][v] is damping·rank[v]/outdeg[v] as published in the last
	// superstep of parity p; a sink's stays 0, as PEval and the allocation
	// left it.
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

// Exchange implements grape.Program: no message is sent, a superstep walks
// in-edges, and a sink walks them in the last superstep only.
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

// IncEval pulls: a vertex's rank is the base plus the shares its
// in-neighbours published in the previous superstep, summed in in-adjacency
// order. Only a vertex with an out-edge has a share that some vertex reads,
// so while iterations remain IncEval pulls those alone and publishes their
// shares; the last superstep pulls every vertex and keeps the ranks.
func (p *pageRankPIE) IncEval(f *grape.Fragment, ctx *grape.Context, _ []grape.Message) {
	lo, hi := f.Bounds()
	s := ctx.Superstep()
	prev, next := p.share[(s-1)&1], p.share[s&1]
	last := s >= p.iterations
	if p.adj == nil {
		p.pullNeighbors(lo, hi, prev, next, last)
	} else {
		for v := lo; v < hi; v++ {
			if !last && p.outdeg[v] == 0 {
				continue
			}
			sum := p.base
			for _, t := range p.adj.AdjSlice(v, graph.In) {
				sum += prev[t.Nbr]
			}
			p.publish(v, sum, next, last)
		}
	}
	p.vote(ctx)
}

// pullNeighbors is IncEval's loop for stores without the array trait: the
// same sums over the same vertices, through Neighbors.
func (p *pageRankPIE) pullNeighbors(lo, hi graph.VID, prev, next []float64, last bool) {
	var sum float64
	add := func(u graph.VID, _ graph.EID) bool {
		sum += prev[u]
		return true
	}
	for v := lo; v < hi; v++ {
		if !last && p.outdeg[v] == 0 {
			continue
		}
		sum = p.base
		p.g.Neighbors(v, graph.In, add)
		p.publish(v, sum, next, last)
	}
}

// publish keeps a pulled sum: as v's rank in the last superstep, otherwise
// as v's share for the next.
func (p *pageRankPIE) publish(v graph.VID, sum float64, next []float64, last bool) {
	if last {
		p.rank[v] = sum
	} else {
		next[v] = p.shareOf(v, sum)
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
