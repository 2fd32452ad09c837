package algorithms

import (
	"sort"

	"repro/internal/analytics/grape"
	"repro/internal/graph"
	"repro/internal/grin"
)

// CDLP runs community detection by synchronous label propagation (the
// Graphalytics CDLP definition): for a fixed number of rounds, every vertex
// adopts the most frequent label among its neighbors (both directions),
// breaking ties toward the smaller label. A store whose in-degrees do not sum
// to its edge count is errNoInEdges.
func CDLP(g grin.Graph, rounds, fragments int) ([]float64, error) {
	if rounds <= 0 {
		rounds = 10
	}
	if err := requireInEdges(g); err != nil {
		return nil, err
	}
	eng, err := grape.NewEngine(g, grape.Options{Fragments: fragments})
	if err != nil {
		return nil, err
	}
	prog := &cdlpPIE{label: make([]float64, g.NumVertices()), rounds: rounds,
		inbox: make([]grape.Grouper, eng.Fragments())}
	if _, err := eng.Run(prog); err != nil {
		return nil, err
	}
	return prog.label, nil
}

type cdlpPIE struct {
	label  []float64
	rounds int
	inbox  []grape.Grouper // per fragment
}

// uncombinedBoth is the exchange of CDLP and Equity: every message delivered
// on its own, sent along both directions (Equity's along out-edges, but a
// company receives one message per in-edge).
var uncombinedBoth = grape.Exchange{Combine: grape.NoCombine, Walk: graph.Both}

// Exchange implements grape.Program.
func (p *cdlpPIE) Exchange() grape.Exchange { return uncombinedBoth }

// PEval self-labels and broadcasts round 0.
func (p *cdlpPIE) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		p.label[v] = float64(v)
	}
	p.sendLabels(f, ctx)
}

// IncEval adopts the mode label among received messages per target.
func (p *cdlpPIE) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	// Messages carry raw neighbor labels (no combiner), so targets repeat:
	// group them per target first.
	lo, hi := f.Bounds()
	id, _ := f.Fragment()
	in := &p.inbox[id]
	in.Group(lo, hi, msgs)
	for v := lo; v < hi; v++ {
		if labels := in.Values(v); len(labels) > 0 {
			p.label[v] = modeLabel(labels)
		}
	}
	if ctx.Superstep() < p.rounds {
		p.sendLabels(f, ctx)
	}
}

func (p *cdlpPIE) sendLabels(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		ctx.SendToNeighbors(v, graph.Both, p.label[v])
	}
}

// modeLabel returns the most frequent label, ties toward the smallest.
func modeLabel(labels []float64) float64 {
	sort.Float64s(labels)
	best, bestCnt := labels[0], 0
	cur, cnt := labels[0], 0
	for _, l := range labels {
		if l == cur {
			cnt++
		} else {
			cur, cnt = l, 1
		}
		if cnt > bestCnt {
			best, bestCnt = cur, cnt
		}
	}
	return best
}
