package algorithms

import (
	"sort"

	"repro/internal/analytics/grape"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/parallel"
)

// CDLP runs community detection by synchronous label propagation (the
// Graphalytics CDLP definition): for a fixed number of rounds, every vertex
// adopts the most frequent label among its neighbors (both directions),
// breaking ties toward the smaller label.
func CDLP(g grin.Graph, rounds, fragments int) ([]float64, error) {
	if rounds <= 0 {
		rounds = 10
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

// KCore returns whether each vertex belongs to the k-core of the undirected
// view of the graph (iterative peeling as a PIE program).
func KCore(g grin.Graph, k, fragments int) ([]bool, error) {
	n := g.NumVertices()
	prog := &kcorePIE{g: g, k: k, deg: make([]int, n), removed: make([]bool, n)}
	eng, err := grape.NewEngine(g, grape.Options{
		Fragments: fragments,
		Combine:   grape.Sum,
	})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(prog); err != nil {
		return nil, err
	}
	in := make([]bool, n)
	for v := range in {
		in[v] = !prog.removed[v]
	}
	return in, nil
}

type kcorePIE struct {
	g       grin.Graph
	k       int
	deg     []int
	removed []bool
}

// PEval computes undirected degrees and peels the first layer.
func (p *kcorePIE) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		p.deg[v] = p.g.Degree(v, graph.Both)
	}
	for v := lo; v < hi; v++ {
		if p.deg[v] < p.k {
			p.peel(ctx, v)
		}
	}
}

// IncEval decrements degrees by the combined removal counts and cascades.
func (p *kcorePIE) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	for _, m := range msgs {
		v := m.Target
		if p.removed[v] {
			continue
		}
		p.deg[v] -= int(m.Value)
		if p.deg[v] < p.k {
			p.peel(ctx, v)
		}
	}
}

func (p *kcorePIE) peel(ctx *grape.Context, v graph.VID) {
	p.removed[v] = true
	ctx.SendToNeighbors(v, graph.Both, 1)
}

// TriangleCount counts triangles in the undirected view by parallel sorted
// adjacency intersection (a FLASH-style non-message computation). Each
// triangle is counted once. workers <= 0 selects GOMAXPROCS; both phases run
// on the shared parallel runtime with dynamic chunking, since power-law
// degree skew load-imbalances static chunks.
func TriangleCount(g grin.Graph, workers int) int64 {
	workers = parallel.Workers(workers, g.NumVertices())
	n := g.NumVertices()
	// Build deduplicated undirected adjacency restricted to higher IDs:
	// counting (u < v < w) orientations counts each triangle once.
	adj := make([][]graph.VID, n)
	parallel.ForDynamic(n, workers, 0, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			var lst []graph.VID
			grin.ForEachNeighbor(g, graph.VID(v), graph.Both, func(u graph.VID, _ graph.EID) bool {
				if u > graph.VID(v) {
					lst = append(lst, u)
				}
				return true
			})
			sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
			// In-place dedup of the sorted list (parallel Both edges repeat).
			k := 0
			for i, u := range lst {
				if i == 0 || u != lst[k-1] {
					lst[k] = u
					k++
				}
			}
			adj[v] = lst[:k]
		}
	})

	return parallel.ReduceDynamic(n, workers, 0, int64(0),
		func(lo, hi int, acc int64) int64 {
			for v := lo; v < hi; v++ {
				av := adj[v]
				for _, u := range av {
					acc += int64(intersectCount(av, adj[u]))
				}
			}
			return acc
		}, func(a, b int64) int64 { return a + b })
}

// intersectCount counts common elements of two sorted slices.
func intersectCount(a, b []graph.VID) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
