// Package optimizer implements the IR-based optimizer of §5.2: rule-based
// optimization (EdgeVertexFusion, FilterPushIntoMatch) and cost-based pattern
// ordering backed by a GLogue-style catalog of pattern frequencies.
package optimizer

import (
	"repro/internal/graph"
	"repro/internal/grin"
)

// Catalog holds the statistics the CBO consults: label cardinalities and
// per-(edge label, direction) average degrees — the 1- and 2-vertex pattern
// frequencies of GLogue, which compose into cost estimates for larger
// patterns.
type Catalog struct {
	VertexCount map[graph.LabelID]float64
	EdgeCount   map[graph.LabelID]float64
	// AvgOutDeg[e] = |E_e| / |V_src(e)|; AvgInDeg[e] = |E_e| / |V_dst(e)|.
	AvgOutDeg map[graph.LabelID]float64
	AvgInDeg  map[graph.LabelID]float64
	Total     float64
}

// BuildCatalog reads store statistics. It requires the property trait;
// stores without it get a flat default catalog. A store that assigns
// per-label contiguous IDs and keeps label-segmented adjacency
// (grin.Index ranges, grin.LabelAdjacency) is asked for counts, not walked:
// a label's vertices are the width of its range and an edge label's edges
// the sum of its source range's labelled out-degrees. Any other store is
// walked, one callback per vertex and per edge.
func BuildCatalog(g grin.Graph) *Catalog {
	c := &Catalog{
		VertexCount: map[graph.LabelID]float64{},
		EdgeCount:   map[graph.LabelID]float64{},
		AvgOutDeg:   map[graph.LabelID]float64{},
		AvgInDeg:    map[graph.LabelID]float64{},
		Total:       float64(g.NumVertices()),
	}
	pr, ok := grin.AsPropertyReader(g)
	if !ok {
		return c
	}
	schema := pr.Schema()
	ranged := true
	first := make([]graph.VID, schema.NumVertexLabels())
	for l := range first {
		n, lo, ok := grin.CountLabel(g, graph.LabelID(l))
		c.VertexCount[graph.LabelID(l)] = float64(n)
		first[l], ranged = lo, ranged && ok
	}
	if la, ok := grin.AsLabelAdjacency(g); !ok || !ranged || !c.countEdges(la, schema, first) {
		// Edge counts per label via one pass over out-adjacencies.
		clear(c.EdgeCount)
		n := g.NumVertices()
		for v := 0; v < n; v++ {
			grin.ForEachNeighbor(g, graph.VID(v), graph.Out, func(_ graph.VID, e graph.EID) bool {
				c.EdgeCount[pr.EdgeLabel(e)]++
				return true
			})
		}
	}
	for l := 0; l < schema.NumEdgeLabels(); l++ {
		el := schema.Edges[l]
		ec := c.EdgeCount[graph.LabelID(l)]
		srcCount := c.labelCount(el.Src)
		dstCount := c.labelCount(el.Dst)
		if srcCount > 0 {
			c.AvgOutDeg[graph.LabelID(l)] = ec / srcCount
		}
		if dstCount > 0 {
			c.AvgInDeg[graph.LabelID(l)] = ec / dstCount
		}
	}
	return c
}

// countEdges fills EdgeCount from the store's label boundaries: each edge
// label's count is the labelled out-degree of its source label's vertices
// (every vertex's, when the schema leaves the source open), asked for a
// block of vertices at a time. It reports false if the store declined a call;
// labels without an edge get no entry, as in the walking pass.
func (c *Catalog) countEdges(la grin.LabelAdjacency, schema *graph.Schema, first []graph.VID) bool {
	const block = 4096
	vs, degs := make([]graph.VID, block), make([]int, block)
	for e, el := range schema.Edges {
		lo, hi := graph.VID(0), graph.VID(c.Total)
		if el.Src != graph.AnyLabel {
			lo = first[el.Src]
			hi = lo + graph.VID(c.VertexCount[el.Src])
		}
		count := 0
		for lo < hi {
			n, next := grin.FillRange(lo, hi, vs)
			if !la.LabelDegrees(vs[:n], graph.Out, graph.LabelID(e), degs[:n]) {
				return false
			}
			for _, d := range degs[:n] {
				count += d
			}
			lo = next // NilVID, past any hi, once the range is drained
		}
		if count > 0 {
			c.EdgeCount[graph.LabelID(e)] = float64(count)
		}
	}
	return true
}

func (c *Catalog) labelCount(l graph.LabelID) float64 {
	if l == graph.AnyLabel {
		return c.Total
	}
	return c.VertexCount[l]
}

// scanCard estimates the cardinality of scanning a vertex label.
func (c *Catalog) scanCard(l graph.LabelID) float64 {
	n := c.labelCount(l)
	if n == 0 {
		return 1
	}
	return n
}

// expandFactor estimates the fan-out of expanding an edge label in a
// direction.
func (c *Catalog) expandFactor(e graph.LabelID, dir graph.Direction) float64 {
	var f float64
	switch dir {
	case graph.Out:
		f = c.AvgOutDeg[e]
	case graph.In:
		f = c.AvgInDeg[e]
	default:
		f = c.AvgOutDeg[e] + c.AvgInDeg[e]
	}
	if f == 0 {
		f = 1
	}
	return f
}

// checkFactor estimates the selectivity of verifying an edge between two
// bound endpoints.
func (c *Catalog) checkFactor(e graph.LabelID, dstLabel graph.LabelID) float64 {
	n := c.labelCount(dstLabel)
	if n == 0 {
		return 1
	}
	f := c.expandFactor(e, graph.Out) / n
	if f > 1 {
		return 1
	}
	return f
}

// predSelectivity is the heuristic selectivity of a pushed predicate:
// id-equality pins one vertex; other equalities take a fixed factor; other
// predicates a weaker one.
func (c *Catalog) predSelectivity(label graph.LabelID, hasIDEq, hasEq, hasOther bool) float64 {
	s := 1.0
	n := c.labelCount(label)
	if hasIDEq && n > 0 {
		s *= 1 / n
	}
	if hasEq {
		s *= 0.05
	}
	if hasOther {
		s *= 0.5
	}
	return s
}
