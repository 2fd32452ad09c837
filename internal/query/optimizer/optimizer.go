package optimizer

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/query/expr"
	"repro/internal/query/ir"
)

// Options toggles optimizations individually so Fig 7(e) can measure each
// rule's contribution.
type Options struct {
	// EdgeVertexFusion fuses EXPAND_EDGE + GET_VERTEX pairs (§5.2 RBO).
	EdgeVertexFusion bool
	// FilterPushIntoMatch pushes SELECT conjuncts into scans/expansions.
	FilterPushIntoMatch bool
	// CBO orders pattern edges by estimated cardinality using the catalog.
	CBO bool
}

// All enables every optimization.
func All() Options {
	return Options{EdgeVertexFusion: true, FilterPushIntoMatch: true, CBO: true}
}

// None disables everything (the "Without OPT" arm).
func None() Options { return Options{} }

// Optimize lowers a logical plan into a physical plan: MATCH operators are
// ordered (CBO) and expanded into scans/expansions, predicates are pushed
// (FilterPushIntoMatch), expansion pairs are fused (EdgeVertexFusion), and a
// fused expansion whose neighbor is only counted becomes an EXPAND_DEGREE
// (countfold.go). The input plan is not modified.
func Optimize(p *ir.Plan, cat *Catalog, opt Options) (*ir.Plan, error) {
	if cat == nil {
		cat = &Catalog{
			VertexCount: map[graph.LabelID]float64{},
			EdgeCount:   map[graph.LabelID]float64{},
			AvgOutDeg:   map[graph.LabelID]float64{},
			AvgInDeg:    map[graph.LabelID]float64{},
		}
	}
	out := &ir.Plan{}
	// Pass 1: collect pushable SELECT conjuncts per single alias (only when
	// pushdown is on). Conjuncts referencing multiple aliases stay put, and
	// pushdown never crosses a Project/GroupBy boundary: conjuncts are
	// scoped to their plan segment, and only aliases bound by graph
	// operators in that segment receive predicates.
	type segAlias struct {
		seg   int
		alias string
	}
	segments := make([]int, len(p.Ops))
	seg := 0
	graphBound := map[segAlias]bool{}
	for i, op := range p.Ops {
		segments[i] = seg
		switch op.Kind {
		case ir.OpProject, ir.OpGroupBy:
			seg++
		case ir.OpScan:
			graphBound[segAlias{seg, op.Alias}] = true
		case ir.OpMatch:
			for _, pe := range op.Pattern {
				graphBound[segAlias{seg, pe.SrcAlias}] = true
				graphBound[segAlias{seg, pe.DstAlias}] = true
			}
		}
	}
	pushedBySeg := map[segAlias]*expr.Expr{}
	consumed := map[*expr.Expr]bool{}
	if opt.FilterPushIntoMatch {
		for i, op := range p.Ops {
			if op.Kind != ir.OpSelect {
				continue
			}
			for _, conj := range op.Pred.Conjuncts() {
				aliases := conj.Aliases()
				if len(aliases) == 1 {
					key := segAlias{segments[i], aliases[0]}
					if graphBound[key] {
						pushedBySeg[key] = expr.And(pushedBySeg[key], conj)
						consumed[conj] = true
					}
				}
			}
		}
	}
	// attached tracks which aliases' pushed predicates were consumed by a
	// graph operator.
	attached := map[string]bool{}

	bound := map[string]bool{}
	for i, op := range p.Ops {
		// pushed presents this segment's predicates under plain alias keys.
		pushed := map[string]*expr.Expr{}
		for key, pred := range pushedBySeg {
			if key.seg == segments[i] {
				pushed[key.alias] = pred
			}
		}
		switch op.Kind {
		case ir.OpMatch:
			leaf := ""
			if opt.EdgeVertexFusion {
				leaf = countedLeaf(p.Ops, i, pushed, bound)
			}
			ops, err := lowerMatch(op, cat, opt, pushed, attached, bound, leaf)
			if err != nil {
				return nil, err
			}
			out.Ops = append(out.Ops, ops...)
		case ir.OpScan:
			sc := *op
			if pred, ok := pushed[sc.Alias]; ok && !attached[sc.Alias] {
				sc.Pred = expr.And(sc.Pred, pred)
				attached[sc.Alias] = true
			}
			bound[sc.Alias] = true
			out.Ops = append(out.Ops, &sc)
		case ir.OpSelect:
			// Rebuild from non-consumed conjuncts.
			var rest *expr.Expr
			for _, conj := range op.Pred.Conjuncts() {
				if consumed[conj] {
					continue
				}
				rest = expr.And(rest, conj)
			}
			if rest != nil {
				out.Ops = append(out.Ops, &ir.Op{Kind: ir.OpSelect, Pred: rest})
			}
		case ir.OpProject:
			cp := *op
			out.Ops = append(out.Ops, &cp)
			bound = map[string]bool{}
			for _, it := range op.Items {
				bound[it.Alias] = true
			}
		case ir.OpGroupBy:
			cp := *op
			out.Ops = append(out.Ops, &cp)
			bound = map[string]bool{}
			for _, k := range op.GroupKeys {
				bound[k.Alias] = true
			}
			for _, a := range op.Aggs {
				bound[a.Alias] = true
			}
		default:
			cp := *op
			out.Ops = append(out.Ops, &cp)
		}
	}
	foldCountedExpansions(out)
	return out, nil
}

// lowerMatch orders and expands one MATCH operator. leaf, when non-empty, is
// the pattern vertex the plan only counts (countedLeaf).
func lowerMatch(m *ir.Op, cat *Catalog, opt Options, pushed map[string]*expr.Expr, attached map[string]bool, bound map[string]bool, leaf string) ([]*ir.Op, error) {
	if len(m.Pattern) == 0 {
		return nil, fmt.Errorf("optimizer: empty MATCH")
	}
	order := m.Pattern
	start := m.Pattern[0].SrcAlias
	startLabel := m.Pattern[0].SrcLabel
	if opt.CBO {
		var cboStart string
		var cboLabel graph.LabelID
		order, cboStart, cboLabel = orderPattern(m.Pattern, cat, pushed, bound, leaf)
		if cboStart != "" {
			start, startLabel = cboStart, cboLabel
		}
	}

	var ops []*ir.Op
	// Starting vertex: if nothing is bound yet, emit a SCAN for the chosen
	// start alias.
	if len(bound) == 0 {
		sc := &ir.Op{Kind: ir.OpScan, Alias: start, Label: startLabel}
		if pred, ok := pushed[start]; ok && !attached[start] {
			sc.Pred = pred
			attached[start] = true
		}
		ops = append(ops, sc)
		bound[start] = true
	}

	for _, pe := range order {
		srcB, dstB := bound[pe.SrcAlias], bound[pe.DstAlias]
		var from, to string
		var toLabel graph.LabelID
		dir := pe.Dir
		switch {
		case srcB && dstB:
			// Adjacency verification between bound endpoints: keep as an
			// ExpandEdge+GetVertex? The exec layer has a dedicated check in
			// the Match path; here we emit a fused expansion into a fresh
			// alias plus a select (v = bound) — simplest correct lowering.
			ops = append(ops, adjacencyCheckOps(pe)...)
			continue
		case srcB:
			from, to, toLabel = pe.SrcAlias, pe.DstAlias, pe.DstLabel
		case dstB:
			from, to, toLabel = pe.DstAlias, pe.SrcAlias, pe.SrcLabel
			dir = dir.Reverse()
		default:
			return nil, fmt.Errorf("optimizer: disconnected pattern at %s-%s", pe.SrcAlias, pe.DstAlias)
		}
		var pushPred *expr.Expr
		if pred, ok := pushed[to]; ok && !attached[to] {
			pushPred = pred
			attached[to] = true
		}
		if opt.EdgeVertexFusion {
			ops = append(ops, &ir.Op{
				Kind: ir.OpExpandFused, FromAlias: from, EdgeLabel: pe.EdgeLabel,
				Dir: dir, Alias: to, Label: toLabel, EdgeAlias: pe.EdgeAlias, Pred: pushPred,
			})
		} else {
			ealias := pe.EdgeAlias
			if ealias == "" {
				ealias = "#e:" + from + ":" + to
			}
			ops = append(ops,
				&ir.Op{Kind: ir.OpExpandEdge, FromAlias: from, EdgeLabel: pe.EdgeLabel, Dir: dir, EdgeAlias: ealias},
				&ir.Op{Kind: ir.OpGetVertex, EdgeAlias: ealias, Alias: to, Label: toLabel, Pred: pushPred},
			)
		}
		bound[to] = true
	}
	return ops, nil
}

// adjacencyCheckOps verifies an edge between two bound aliases by expanding
// into a shadow alias and filtering on identity.
func adjacencyCheckOps(pe ir.PatternEdge) []*ir.Op {
	shadow := "#chk:" + pe.SrcAlias + ":" + pe.DstAlias
	eq := expr.Binary(expr.OpEq, expr.Var(shadow, ""), expr.Var(pe.DstAlias, ""))
	return []*ir.Op{
		{Kind: ir.OpExpandFused, FromAlias: pe.SrcAlias, EdgeLabel: pe.EdgeLabel,
			Dir: pe.Dir, Alias: shadow, Label: pe.DstLabel, EdgeAlias: pe.EdgeAlias, Pred: eq},
	}
}

// orderPattern greedily orders pattern edges by estimated intermediate
// cardinality, starting from the most selective vertex. It returns the
// ordered edges plus the chosen start alias and its label ("" when vertices
// were already bound). A counted leaf is never the start and its edge goes
// last: as an EXPAND_DEGREE it costs one lookup per row instead of the
// fan-out, so deferring it is never worse under this cost model — and only
// an expansion *into* the leaf can fold.
func orderPattern(pattern []ir.PatternEdge, cat *Catalog, pushed map[string]*expr.Expr, alreadyBound map[string]bool, leaf string) ([]ir.PatternEdge, string, graph.LabelID) {
	type aliasInfo struct {
		label graph.LabelID
	}
	aliases := map[string]aliasInfo{}
	for _, pe := range pattern {
		if _, ok := aliases[pe.SrcAlias]; !ok {
			aliases[pe.SrcAlias] = aliasInfo{label: pe.SrcLabel}
		}
		if _, ok := aliases[pe.DstAlias]; !ok {
			aliases[pe.DstAlias] = aliasInfo{label: pe.DstLabel}
		}
	}
	selectivity := func(alias string, label graph.LabelID) float64 {
		pred, ok := pushed[alias]
		if !ok {
			return 1
		}
		hasID, hasEq, hasOther := false, false, false
		for _, conj := range pred.Conjuncts() {
			if prop, _, isEq := conj.IsEqualityOn(alias); isEq && prop != "" {
				hasEq = true
			} else if isIDEq(conj, alias) {
				hasID = true
			} else {
				hasOther = true
			}
		}
		return cat.predSelectivity(label, hasID, hasEq, hasOther)
	}

	bound := map[string]bool{}
	for a := range alreadyBound {
		bound[a] = true
	}
	var card float64 = 1
	startAlias := ""
	var startLabel graph.LabelID
	if len(bound) == 0 {
		// Pick the cheapest starting alias (deterministically: ties break
		// on name).
		bestCost := 0.0
		for a, info := range aliases {
			if a == leaf {
				continue
			}
			cost := cat.scanCard(info.label) * selectivity(a, info.label)
			if startAlias == "" || cost < bestCost || (cost == bestCost && a < startAlias) {
				startAlias, bestCost, startLabel = a, cost, info.label
			}
		}
		bound[startAlias] = true
		card = bestCost
		if card < 1 {
			card = 1
		}
	}

	remaining := append([]ir.PatternEdge(nil), pattern...)
	var order []ir.PatternEdge
	for len(remaining) > 0 {
		bestIdx, bestCost := -1, 0.0
		for i, pe := range remaining {
			srcB, dstB := bound[pe.SrcAlias], bound[pe.DstAlias]
			if !srcB && !dstB {
				continue
			}
			if len(remaining) > 1 && leaf != "" && (pe.SrcAlias == leaf || pe.DstAlias == leaf) {
				continue
			}
			var cost float64
			switch {
			case srcB && dstB:
				cost = card * cat.checkFactor(pe.EdgeLabel, pe.DstLabel)
			case srcB:
				cost = card * cat.expandFactor(pe.EdgeLabel, pe.Dir) * selectivity(pe.DstAlias, pe.DstLabel)
			default:
				cost = card * cat.expandFactor(pe.EdgeLabel, pe.Dir.Reverse()) * selectivity(pe.SrcAlias, pe.SrcLabel)
			}
			if bestIdx < 0 || cost < bestCost {
				bestIdx, bestCost = i, cost
			}
		}
		if bestIdx < 0 {
			// Disconnected remainder: emit in written order; lowerMatch
			// reports the error.
			order = append(order, remaining...)
			break
		}
		pe := remaining[bestIdx]
		order = append(order, pe)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		bound[pe.SrcAlias] = true
		bound[pe.DstAlias] = true
		card = bestCost
		if card < 1 {
			card = 1
		}
	}

	return order, startAlias, startLabel
}

func isIDEq(e *expr.Expr, alias string) bool {
	if e.Kind != expr.KindBinary || e.Op != expr.OpEq {
		return false
	}
	idCall := func(x *expr.Expr) bool {
		return x.Kind == expr.KindCall && x.Fn == "id" && len(x.Args) == 1 &&
			x.Args[0].Kind == expr.KindVar && x.Args[0].Alias == alias
	}
	return idCall(e.Left) || idCall(e.Right)
}
