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
// result maps each vertex to its component's minimum vertex ID. It is the
// PIE program of Fan et al. (SIGMOD 2017) and sends no message. PEval is the
// sequential union-find over every out-edge of the fragment's inner
// vertices, each edge read once, in a forest private to the fragment; it
// publishes every inner vertex's root, which may be an outer vertex.
// Superstep 1 walks no edge: for each outer vertex an edge reached it
// records the pair (its root here, the root its owner published), skipping
// equal ends and repeats. Superstep 2 is the Assemble step, run by every
// fragment so that none waits: each unions all fragments' pairs and labels
// its own vertices from them. Every edge is some vertex's out-edge, so WCC
// walks out-edges only and needs no in-adjacency; one fragment is the
// sequential union-find.
func WCC(g grin.Graph, fragments int) ([]float64, error) {
	eng, err := grape.NewEngine(g, grape.Options{Fragments: fragments})
	if err != nil {
		return nil, err
	}
	prog := newWCCPIE(g, eng.Fragments())
	if _, err := eng.Run(prog); err != nil {
		return nil, err
	}
	return prog.label, nil
}

// errNoInEdges rejects a store that does not answer in-edges for a program
// that walks them: its communities or ranks would silently miss every edge
// it sees only from the target's side.
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

// wccPIE exchanges through parent and cuts instead of messages: parent is
// written only in superstep 0 and cuts[f].pairs only by fragment f in
// superstep 1, and grape's barrier makes each readable by every fragment in
// the superstep after (see the grape package comment). A fragment writes
// parent and label only for its inner vertices, and cuts[f].forest is
// fragment f's alone from PEval to superstep 2, so fragments never race.
type wccPIE struct {
	g   grin.Graph
	adj grin.AdjArray // nil when the store lacks (or masks) the array trait
	// parent[v] is inner vertex v's root in its fragment's forest: the
	// minimum of v's tree there, so parent[v] ≤ v. It may be an outer vertex.
	parent []graph.VID
	label  []float64
	// cuts[f] is fragment f's state, one slot per fragment, made before Run
	// so that no fragment writes the slice itself.
	cuts []wccCut
}

type wccCut struct {
	// forest is PEval's union-find over all n vertices, then superstep 2's
	// over published roots. A cell never points above itself; an outer
	// cell no edge has reached holds untouched.
	forest []graph.VID
	// pairs lists the published roots that an outer vertex joins (a0, b0,
	// a1, b1, …).
	pairs []graph.VID
}

// untouched marks an outer cell of PEval's forest that no edge has reached.
// It is above every vertex ID, so find stops on it as on a root.
const untouched = ^graph.VID(0)

// newWCCPIE makes WCC's program for a run at the given fragment count.
func newWCCPIE(g grin.Graph, fragments int) *wccPIE {
	n := g.NumVertices()
	p := &wccPIE{g: g, parent: make([]graph.VID, n), label: make([]float64, n)}
	if fragments > 1 {
		p.cuts = make([]wccCut, fragments)
	}
	p.adj, _ = grin.AsAdjArray(g)
	return p
}

// Exchange implements grape.Program: no message is sent, and PEval walks
// each inner vertex's out-edges once.
func (p *wccPIE) Exchange() grape.Exchange {
	return grape.Exchange{Combine: grape.NoCombine, Walk: graph.Out}
}

// PEval unions every out-edge of the fragment's inner vertices, by smaller
// root so that a root is its tree's minimum, then points every inner vertex
// at its root and labels it with that root. One fragment owns every vertex
// and unions in parent itself; more union in a private forest over all n
// vertices, where an edge may join two inner vertices through an outer one.
func (p *wccPIE) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	id, total := f.Fragment()
	forest := p.parent
	if total > 1 {
		forest = make([]graph.VID, len(p.parent))
		for v := range forest {
			forest[v] = untouched
		}
		p.cuts[id].forest = forest
	}
	for v := lo; v < hi; v++ {
		forest[v] = v
	}
	for v := lo; v < hi; v++ {
		// a stays v's root: a link re-parents a root only, and when it
		// re-parents a the new root is carried.
		a := find(forest, v)
		for _, t := range p.outEdges(v) {
			if b := find(forest, t.Nbr); a < b {
				forest[b] = a
			} else if b < a {
				forest[a], forest[b] = b, b // b may be untouched until now
				a = b
			}
		}
	}
	for v := lo; v < hi; v++ {
		r := find(forest, v)
		p.parent[v], p.label[v] = r, float64(r)
	}
	if total > 1 {
		ctx.Rerun()
	}
}

// IncEval records the fragment's cut pairs in superstep 1 and assembles the
// components in superstep 2.
func (p *wccPIE) IncEval(f *grape.Fragment, ctx *grape.Context, _ []grape.Message) {
	id, _ := f.Fragment()
	if ctx.Superstep() == 1 {
		p.recordCut(f, &p.cuts[id])
		ctx.Rerun()
		return
	}
	p.assemble(f, p.cuts[id].forest)
}

// recordCut walks no edge: for each outer vertex o that an edge reached in
// PEval it appends (o's root in the fragment's forest, parent[o]). The
// first end is the root published for every inner vertex of o's tree, so a
// pair joins two published roots. It skips a pair whose ends are equal or
// that repeats the last one recorded.
func (p *wccPIE) recordCut(f *grape.Fragment, c *wccCut) {
	lo, hi := f.Bounds()
	forest := c.forest
	var pairs []graph.VID
	for _, span := range [2][2]graph.VID{{0, lo}, {hi, graph.VID(len(forest))}} {
		for o := span[0]; o < span[1]; o++ {
			if forest[o] == untouched {
				continue
			}
			a, b := find(forest, o), p.parent[o]
			if k := len(pairs); a == b || k > 0 && pairs[k-2] == a && pairs[k-1] == b {
				continue
			}
			pairs = append(pairs, a, b)
		}
	}
	c.pairs = pairs
}

// assemble resets forest to n singletons, unions every fragment's pairs in
// fragment order, then labels each inner vertex with its component's root,
// found from its published root. Union by smaller root keeps that root the
// component's minimum.
func (p *wccPIE) assemble(f *grape.Fragment, forest []graph.VID) {
	lo, hi := f.Bounds()
	for v := range forest {
		forest[v] = graph.VID(v)
	}
	for _, c := range p.cuts {
		for i := 0; i < len(c.pairs); i += 2 {
			union(forest, c.pairs[i], c.pairs[i+1])
		}
	}
	for v := lo; v < hi; v++ {
		p.label[v] = float64(find(forest, p.parent[v]))
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

// union joins the trees of a and b in forest under the smaller root.
func union(forest []graph.VID, a, b graph.VID) {
	if x, y := find(forest, a), find(forest, b); x < y {
		forest[y] = x
	} else {
		forest[x] = y
	}
}

// find returns v's root in forest, halving the path on the way. A parent is
// never above its child, so a cell that does not point below itself is a
// root.
func find(forest []graph.VID, v graph.VID) graph.VID {
	for forest[v] < v {
		forest[v] = forest[forest[v]]
		v = forest[v]
	}
	return v
}
