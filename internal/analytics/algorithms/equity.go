package algorithms

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/analytics/grape"
	"repro/internal/graph"
	"repro/internal/grin"
)

// EquityOptions configures equity (ultimate controller) propagation.
type EquityOptions struct {
	// Threshold is the cumulative share that makes a holder the controller
	// (0.51 in the paper's example).
	Threshold float64
	// Epsilon prunes propagation of negligible shares: a holder's share
	// of a company that arrives in one superstep, summed over the paths it
	// came by, is forwarded only if it reaches Epsilon.
	Epsilon float64
	// MaxDepth bounds propagation on (unexpected) cyclic ownership: the
	// run ends after at most MaxDepth supersteps, so a share reaches at most
	// MaxDepth-1 OWNS edges from its holder.
	MaxDepth  int
	Fragments int
}

func (o *EquityOptions) defaults() {
	if o.Threshold == 0 {
		o.Threshold = 0.51
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1e-4
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 64
	}
}

// EquityResult reports, per vertex, the controlling holder and its share.
type EquityResult struct {
	// Controller[v] is the internal VID of the holder cumulatively owning at
	// least Threshold of v, or graph.NilVID.
	Controller []graph.VID
	// Share[v] is the controlling holder's cumulative share.
	Share []float64
	// Shares[v] maps each reaching holder to its cumulative share of v.
	Shares []map[uint32]float64
}

// OverOwnedError rejects an Equity input in which a company's incoming
// ownership weights sum above 1: its holders' shares would not be fractions
// of it, and on cyclic ownership Epsilon would never prune them.
type OverOwnedError struct {
	Company graph.VID
	Sum     float64 // the company's incoming weights
}

func (e *OverOwnedError) Error() string {
	return fmt.Sprintf("algorithms: equity: the shares in company %d sum to %v, above 1", e.Company, e.Sum)
}

// Equity computes, for every vertex, the cumulative effective share of each
// ultimate holder (vertices in [holderLo, holderHi)) by propagating shares
// down weighted OWNS edges — the modified label propagation of the Exp-6
// case study. Edge weights are share fractions read through the GRIN weight
// trait: a vertex whose incoming weights sum above 1 + 1e-9 is an
// *OverOwnedError.
func Equity(g grin.Graph, holderLo, holderHi graph.VID, opt EquityOptions) (*EquityResult, error) {
	opt.defaults()
	if err := checkShares(g); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	prog := &equityPIE{
		g:        g,
		opt:      opt,
		holderLo: holderLo,
		holderHi: holderHi,
		acc:      make([]map[uint32]float64, n),
	}
	eng, err := grape.NewEngine(g, grape.Options{Fragments: opt.Fragments})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(prog); err != nil {
		return nil, err
	}
	res := &EquityResult{
		Controller: make([]graph.VID, n),
		Share:      make([]float64, n),
		Shares:     prog.acc,
	}
	for v := 0; v < n; v++ {
		res.Controller[v] = graph.NilVID
		best, bestShare := graph.NilVID, 0.0
		for p, s := range prog.acc[v] {
			if s > bestShare || (s == bestShare && graph.VID(p) < best) {
				best, bestShare = graph.VID(p), s
			}
		}
		if bestShare >= opt.Threshold {
			res.Controller[v] = best
			res.Share[v] = bestShare
		}
	}
	return res, nil
}

// checkShares sums each vertex's incoming weight in one pass over the
// out-edges and rejects the first vertex whose sum exceeds 1 + 1e-9.
func checkShares(g grin.Graph) error {
	in := make([]float64, g.NumVertices())
	for v := range g.NumVertices() {
		grin.ForEachNeighbor(g, graph.VID(v), graph.Out, func(c graph.VID, e graph.EID) bool {
			in[c] += grin.Weight(g, e)
			return true
		})
	}
	for c, sum := range in {
		if sum > 1+1e-9 {
			return &OverOwnedError{Company: graph.VID(c), Sum: sum}
		}
	}
	return nil
}

type equityPIE struct {
	g        grin.Graph
	opt      EquityOptions
	holderLo graph.VID
	holderHi graph.VID
	acc      []map[uint32]float64
}

// Exchange implements grape.Program.
func (p *equityPIE) Exchange() grape.Exchange { return uncombinedBoth }

// lastStep reports whether ctx's superstep is the last MaxDepth allows: it
// still accumulates what arrives but forwards nothing, so the run ends there.
func (p *equityPIE) lastStep(ctx *grape.Context) bool {
	return p.opt.MaxDepth > 0 && ctx.Superstep()+1 >= p.opt.MaxDepth
}

// PEval seeds direct holdings: every holder sends its share along OWNS
// edges.
func (p *equityPIE) PEval(f *grape.Fragment, ctx *grape.Context) {
	if p.lastStep(ctx) {
		return
	}
	lo, hi := f.Bounds()
	g := p.g
	for v := lo; v < hi; v++ {
		if v < p.holderLo || v >= p.holderHi {
			continue
		}
		grin.ForEachNeighbor(g, v, graph.Out, func(c graph.VID, e graph.EID) bool {
			ctx.SendAux(c, uint32(v), grin.Weight(g, e))
			return true
		})
	}
}

// IncEval accumulates incoming (holder, share) pairs and forwards diluted
// shares downstream. The engine runs without a combiner here (several
// holders message the same company, and Aux names the holder), so msgs is
// first grouped by (company, holder) in place — stably, so a group sums in
// arrival order — and each pair forwards its superstep's sum once: the work
// per superstep is bounded by the pairs, not by the ownership paths. Epsilon
// prunes that sum, and nothing is forwarded from the last step.
func (p *equityPIE) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	g, last := p.g, p.lastStep(ctx)
	slices.SortStableFunc(msgs, func(a, b grape.Message) int {
		return cmp.Or(cmp.Compare(a.Target, b.Target), cmp.Compare(a.Aux, b.Aux))
	})
	for i := 0; i < len(msgs); {
		v, holder := msgs[i].Target, msgs[i].Aux
		share := 0.0
		for ; i < len(msgs) && msgs[i].Target == v && msgs[i].Aux == holder; i++ {
			share += msgs[i].Value
		}
		if p.acc[v] == nil {
			p.acc[v] = make(map[uint32]float64, 4)
		}
		p.acc[v][holder] += share
		if last || share < p.opt.Epsilon {
			continue
		}
		grin.ForEachNeighbor(g, v, graph.Out, func(c graph.VID, e graph.EID) bool {
			ctx.SendAux(c, holder, share*grin.Weight(g, e))
			return true
		})
	}
}
