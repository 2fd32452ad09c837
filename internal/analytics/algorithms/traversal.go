package algorithms

import (
	"errors"
	"math"
	"slices"

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

// errNegativeCycle reports that SSSP's root reaches a cycle of negative
// weight, so some distances have no minimum.
var errNegativeCycle = errors.New("algorithms: root reaches a negative cycle")

// BFS computes level-synchronous breadth-first levels from root over
// out-edges. Unreached vertices get Unreached.
func BFS(g grin.Graph, root graph.VID, fragments int) ([]float64, error) {
	if int(root) >= g.NumVertices() {
		return nil, errRootNotVertex
	}
	prog := newBFSPIE(g, root)
	eng, err := grape.NewEngine(g, grape.Options{Fragments: fragments})
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

// minOut is the exchange of the traversals: min-combined scatters along
// out-edges.
var minOut = grape.Exchange{Combine: grape.Min, Walk: graph.Out}

// Exchange implements grape.Program.
func (p *bfsPIE) Exchange() grape.Exchange { return minOut }

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
// (Bellman-Ford style label correcting with min-combined messages). Weights
// may be negative; a negative cycle the root reaches is errNegativeCycle, and
// so is a reached edge weighing −Inf.
func SSSP(g grin.Graph, root graph.VID, fragments int) ([]float64, error) {
	if int(root) >= g.NumVertices() {
		return nil, errRootNotVertex
	}
	prog := &ssspPIE{g: g, root: root, dist: make([]float64, g.NumVertices())}
	eng, err := grape.NewEngine(g, grape.Options{Fragments: fragments})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(prog); err != nil {
		return nil, err
	}
	if slices.Contains(prog.dist, math.Inf(-1)) {
		return nil, errNegativeCycle
	}
	return prog.dist, nil
}

type ssspPIE struct {
	g    grin.Graph
	root graph.VID
	dist []float64
}

// Exchange implements grape.Program.
func (p *ssspPIE) Exchange() grape.Exchange { return minOut }

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

// IncEval applies improved distances and relaxes outward. A value arriving
// in superstep s is the weight of a walk of s edges from the root. Without a
// negative cycle every distance is that of a path of fewer than n edges, so
// an improvement from superstep n on proves one: the target's distance is
// −∞, and nothing is sent, so the run ends.
func (p *ssspPIE) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	unbounded := ctx.Superstep() >= len(p.dist)
	for _, m := range msgs {
		if m.Value < p.dist[m.Target] {
			if unbounded {
				p.dist[m.Target] = math.Inf(-1)
				continue
			}
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

// WCC computes weakly connected components over both edge directions; the
// result maps each vertex to its component's minimum vertex ID. It is the PIE
// program of Fan et al. (SIGMOD 2017): PEval runs sequential union-find over
// each fragment's inner edges, and IncEval lowers a whole local component's
// label at once, so the supersteps count the rounds a label needs to cross
// the cuts, not the graph's diameter. A store whose in-degrees do not sum to
// its edge count (a CSR built without in-adjacency) is errNoInEdges.
func WCC(g grin.Graph, fragments int) ([]float64, error) {
	if err := requireInEdges(g); err != nil {
		return nil, err
	}
	prog := newWCCPIE(g)
	eng, err := grape.NewEngine(g, grape.Options{Fragments: fragments})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(prog); err != nil {
		return nil, err
	}
	return prog.label, nil
}

// errNoInEdges rejects a store that does not answer in-edges for a program
// that sends along them: its components or communities would silently miss
// every edge it sees only from the target's side.
var errNoInEdges = errors.New("algorithms: store does not answer in-edges (in-degrees do not sum to NumEdges)")

// requireInEdges checks that the store's in-degrees sum to NumEdges.
func requireInEdges(g grin.Graph) error {
	sum := 0
	for v := range g.NumVertices() {
		sum += g.Degree(graph.VID(v), graph.In)
	}
	if sum != g.NumEdges() {
		return errNoInEdges
	}
	return nil
}

// wccPIE keeps one union-find forest per fragment, inside its own range: a
// fragment writes parent, label and stamp only for its inner vertices, so
// fragments never race.
type wccPIE struct {
	g   grin.Graph
	adj grin.AdjArray // nil when the store lacks (or masks) the array trait
	// parent[v] ≤ v, so a root is its local component's minimum; after PEval
	// every vertex points straight at its root.
	parent []graph.VID
	label  []float64
	// stamp[r] is the superstep in which root r's label last fell.
	stamp []int32
}

func newWCCPIE(g grin.Graph) *wccPIE {
	n := g.NumVertices()
	p := &wccPIE{g: g, parent: make([]graph.VID, n), label: make([]float64, n), stamp: make([]int32, n)}
	p.adj, _ = grin.AsAdjArray(g)
	return p
}

// Exchange implements grape.Program. WCC sends its labels along both
// directions but declares Out: under a combiner an in-edge costs its
// receiver nothing, and at two fragments on the graphalytics graph shape (a
// 2-vCPU VM) the out-degree cut ran WCC in 4.99–5.35 ms against 5.48–6.14
// ms for one that also charged in-edges.
func (p *wccPIE) Exchange() grape.Exchange { return minOut }

// PEval joins the fragment's inner out-edges by union-find, labels every
// vertex with its local component's minimum and sends that label along both
// directions. A label of this fragment is at least lo, above every vertex of
// a lower fragment, so only a higher fragment can adopt it: the last
// fragment sends nothing, and one fragment is the sequential union-find.
func (p *wccPIE) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	parent := p.parent
	for v := lo; v < hi; v++ {
		parent[v] = v
	}
	for v := lo; v < hi; v++ {
		for _, t := range p.outEdges(v) {
			if t.Nbr >= lo && t.Nbr < hi {
				p.union(v, t.Nbr)
			}
		}
	}
	// A parent never exceeds its child, so in ascending order a vertex's
	// parent already points at its root.
	send := int(hi) < len(parent)
	for v := lo; v < hi; v++ {
		parent[v] = parent[parent[v]]
		p.label[v] = float64(parent[v])
		if send {
			ctx.SendToNeighbors(v, graph.Both, p.label[v])
		}
	}
}

// IncEval lowers the label of each message target's root, then copies every
// lowered label to the whole local component and re-sends it from there.
func (p *wccPIE) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	step := int32(ctx.Superstep())
	for _, m := range msgs {
		if r := p.parent[m.Target]; m.Value < p.label[r] {
			p.label[r], p.stamp[r] = m.Value, step
		}
	}
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		if r := p.parent[v]; p.stamp[r] == step {
			p.label[v] = p.label[r]
			ctx.SendToNeighbors(v, graph.Both, p.label[v])
		}
	}
}

// outEdges is v's out-adjacency: the store's own slice with the array trait,
// a copy from Neighbors without it.
func (p *wccPIE) outEdges(v graph.VID) []grin.Target {
	if p.adj != nil {
		return p.adj.AdjSlice(v, graph.Out)
	}
	return grin.CollectNeighbors(p.g, v, graph.Out)
}

// union joins the trees of a and b under the smaller root.
func (p *wccPIE) union(a, b graph.VID) {
	if x, y := p.find(a), p.find(b); x < y {
		p.parent[y] = x
	} else {
		p.parent[x] = y
	}
}

// find returns v's root, halving the path on the way.
func (p *wccPIE) find(v graph.VID) graph.VID {
	parent := p.parent
	for parent[v] != v {
		parent[v] = parent[parent[v]]
		v = parent[v]
	}
	return v
}
