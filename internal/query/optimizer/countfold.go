package optimizer

import (
	"repro/internal/query/expr"
	"repro/internal/query/ir"
)

// This file is the EXPAND_DEGREE rule (GIE's ExpandOpt = DEGREE): "expand,
// then count" never produces the rows it counts. A fused expansion whose
// neighbor is referenced by nothing but the COUNTs of the GROUP it feeds
// becomes an EXPAND_DEGREE — one int column of matching-slot counts, rows
// with count 0 dropped — and the GROUP adds that column instead of 1. The
// rule has two halves: a hint that keeps the pattern order from starting at
// the counted neighbor (countedLeaf, consulted by lowerMatch), and the
// rewrite itself over the physical plan (foldCountedExpansions), which alone
// decides eligibility. The rewrite then extends inward (absorbHops): a fused
// expansion whose neighbor exists only to be expanded into the counted one
// becomes a hop of the EXPAND_DEGREE's Via path, so a count-only chain such
// as BI14's (p1)-[:KNOWS]->(p2)<-[:HAS_CREATOR]-(m) counted per p1 is one
// EXPAND_DEGREE(p1->p2->m) that sums degrees over the paths and never builds
// a (p1, p2) row — factorized counting, exact in int64. It only ever matches
// EXPAND_FUSED, so it rides on EdgeVertexFusion and needs no toggle of its
// own.

// countTarget reports what a GROUP's aggregates count. ok is false unless
// every aggregate is COUNT(*) or COUNT over one bare alias — the same one
// throughout; alias is "" when all of them are COUNT(*).
func countTarget(g *ir.Op) (alias string, ok bool) {
	for _, a := range g.Aggs {
		if a.Fn != "count" {
			return "", false
		}
		if a.Arg == nil {
			continue
		}
		if a.Arg.Kind != expr.KindVar || a.Arg.Prop != "" || (alias != "" && alias != a.Arg.Alias) {
			return "", false
		}
		alias = a.Arg.Alias
	}
	return alias, len(g.Aggs) > 0
}

// mentions reports whether e references any of the aliases ("" never
// matches).
func mentions(e *expr.Expr, aliases ...string) bool {
	for _, got := range e.Aliases() {
		for _, a := range aliases {
			if a != "" && got == a {
				return true
			}
		}
	}
	return false
}

// keysMention reports whether a GROUP's keys reference any of the aliases.
func keysMention(g *ir.Op, aliases ...string) bool {
	for _, k := range g.GroupKeys {
		if mentions(k.Expr, aliases...) {
			return true
		}
	}
	return false
}

// countedLeaf names the pattern vertex of the MATCH at ops[mi] that the plan
// only counts, or "": a vertex on exactly one pattern edge, not yet bound,
// with no pushed predicate, referenced — like its edge's alias — by nothing
// between the MATCH and the GROUP that follows it except that GROUP's COUNTs.
// Under COUNT(*) alone the last such vertex in written order is taken.
func countedLeaf(ops []*ir.Op, mi int, pushed map[string]*expr.Expr, bound map[string]bool) string {
	g := mi + 1
	for g < len(ops) && ops[g].Kind == ir.OpSelect {
		g++
	}
	if g == len(ops) || ops[g].Kind != ir.OpGroupBy {
		return ""
	}
	target, ok := countTarget(ops[g])
	if !ok {
		return ""
	}
	pattern := ops[mi].Pattern
	degree := map[string]int{}
	for _, pe := range pattern {
		degree[pe.SrcAlias]++
		degree[pe.DstAlias]++
	}
	eligible := func(v string, pe ir.PatternEdge) bool {
		if degree[v] != 1 || bound[v] || (target != "" && v != target) || keysMention(ops[g], v, pe.EdgeAlias) {
			return false
		}
		if _, has := pushed[v]; has {
			return false
		}
		for _, sel := range ops[mi+1 : g] {
			if mentions(sel.Pred, v, pe.EdgeAlias) {
				return false
			}
		}
		return true
	}
	for i := len(pattern) - 1; i >= 0; i-- {
		pe := pattern[i]
		for _, v := range []string{pe.DstAlias, pe.SrcAlias} {
			if eligible(v, pe) {
				return v
			}
		}
	}
	return ""
}

// foldCountedExpansions rewrites, for every GROUP whose aggregates are all
// COUNTs of one target, the nearest eligible EXPAND_FUSED feeding it into an
// EXPAND_DEGREE and the GROUP into a weighted count. Eligible means: the
// expansion binds the target (any expansion under COUNT(*)), carries no
// pushed predicate, and neither its neighbor nor its edge alias is
// referenced by a group key or by any operator in between — which may only
// be SELECTs and further fused expansions (they carry the weight column
// along; anything else ends the search). The EXPAND_DEGREE then absorbs the
// hops before it (absorbHops).
func foldCountedExpansions(p *ir.Plan) {
	for g := 0; g < len(p.Ops); g++ {
		gop := p.Ops[g]
		if gop.Kind != ir.OpGroupBy {
			continue
		}
		target, ok := countTarget(gop)
		if !ok {
			continue
		}
	search:
		for i := g - 1; i >= 0; i-- {
			x := p.Ops[i]
			switch x.Kind {
			case ir.OpSelect:
				continue
			case ir.OpExpandFused:
			default:
				break search
			}
			if x.Pred != nil || (target != "" && x.Alias != target) || keysMention(gop, x.Alias, x.EdgeAlias) {
				continue
			}
			if referenced(p.Ops[i+1:g], nil, x) {
				continue
			}
			deg := &ir.Op{Kind: ir.OpExpandDegree, FromAlias: x.FromAlias, EdgeLabel: x.EdgeLabel,
				Dir: x.Dir, Alias: x.Alias, Label: x.Label}
			p.Ops[i] = deg
			folded := *gop
			folded.CountWeight = ir.DegreeAlias(x.Alias)
			folded.Aggs = append([]ir.Aggregate(nil), gop.Aggs...)
			for j := range folded.Aggs {
				folded.Aggs[j].Arg = nil // the neighbor is never NULL: COUNT(leaf) = COUNT(*)
			}
			p.Ops[g] = &folded
			g -= absorbHops(p, i, g)
			break
		}
	}
}

// absorbHops folds into the EXPAND_DEGREE at ops[d] the chain of fused
// expansions that leads to it, nearest first, and returns how many it
// deleted. The nearest EXPAND_FUSED y before it (past SELECTs only) is
// absorbed while it binds the degree's start, carries no pushed predicate,
// and neither its neighbor nor its edge alias is a key of the GROUP at
// ops[g] or referenced by any operator up to that GROUP but the degree: its
// rows exist only to be counted, so the degree walks its hop instead —
// prepended to Via, the start moved to y's — and y goes.
func absorbHops(p *ir.Plan, d, g int) int {
	deg, removed := p.Ops[d], 0
	for {
		i := d - 1
		for i >= 0 && p.Ops[i].Kind == ir.OpSelect {
			i--
		}
		if i < 0 {
			return removed
		}
		y := p.Ops[i]
		if y.Kind != ir.OpExpandFused || y.Alias != deg.FromAlias || y.Pred != nil ||
			keysMention(p.Ops[g], y.Alias, y.EdgeAlias) || referenced(p.Ops[i+1:g], deg, y) {
			return removed
		}
		deg.Via = append([]ir.Hop{{Alias: y.Alias, EdgeLabel: y.EdgeLabel, Dir: y.Dir, Label: y.Label}}, deg.Via...)
		deg.FromAlias = y.FromAlias
		p.Ops = append(p.Ops[:i], p.Ops[i+1:]...)
		d, g, removed = d-1, g-1, removed+1
	}
}

// referenced reports whether any of ops but skip expands from x's neighbor or
// mentions it or x's edge alias in a predicate.
func referenced(ops []*ir.Op, skip, x *ir.Op) bool {
	for _, op := range ops {
		if op != skip && (op.FromAlias == x.Alias || mentions(op.Pred, x.Alias, x.EdgeAlias)) {
			return true
		}
	}
	return false
}
