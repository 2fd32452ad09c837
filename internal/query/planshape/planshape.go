// Package planshape statically verifies ir.Plan wiring: the same column
// layout, width chaining and alias-binding rules exec.Compile applies while
// lowering — plus the stricter shape invariants the runtime silently
// tolerates (duplicate PROJECT aliases that merge columns, ORDER with no
// keys, unknown functions that only fail at eval time). It simulates the
// compiler's stage construction without building any closures, so a plan
// can be rejected before a graph or an engine exists: `flexlint -plans`
// runs it over a checked-in query corpus, and exec.Compile calls Verify on
// every plan in `-tags lintcheck` test builds.
//
// Verify also derives the plan's trait demands against the GRIN capability
// matrix (backend.go): traits the plan needs for correct answers
// (Requires), and traits it merely degrades without (Optional) — label
// filters skipped on property-less stores, id() falling back to internal
// IDs without the index trait. planshape deliberately never imports exec;
// the tagged hook points the other way.
package planshape

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/expr"
	"repro/internal/query/ir"
)

// StageShape is the statically predicted shape of one compiled stage.
type StageShape struct {
	Name     string
	InWidth  int // 0 for the source stage
	OutWidth int
	Blocking bool
}

// Info is the verified static shape of a plan.
type Info struct {
	Stages []StageShape
	// Cols is the final alias → column layout (hidden "#" columns included).
	Cols map[string]int
	// Width is the final row width.
	Width int
	// Out is the visible output column order, by column index.
	Out []string
	// Requires lists traits the plan needs for correct execution.
	Requires []grin.Trait
	// Optional lists traits the plan exploits but degrades gracefully
	// without (label filters, index point-lookups).
	Optional []grin.Trait
}

// Verify checks a plan's static shape, returning its stage/column layout or
// the first wiring defect found.
func Verify(p *ir.Plan) (*Info, error) {
	if p == nil || len(p.Ops) == 0 {
		return nil, fmt.Errorf("planshape: empty plan")
	}
	v := &verifier{
		cols: map[string]int{},
		req:  map[grin.Trait]bool{grin.TraitTopology: true},
		opt:  map[grin.Trait]bool{},
	}
	for i, op := range p.Ops {
		if err := v.checkOp(op, i == 0); err != nil {
			return nil, fmt.Errorf("planshape: op %d (%s): %w", i, op.Kind, err)
		}
	}
	if v.weight != "" {
		return nil, fmt.Errorf("planshape: EXPAND_DEGREE column %q is never consumed by a GROUP", v.weight)
	}
	// Width chaining: the exact invariant exec.Compile re-checks after
	// lowering, asserted here over the simulated stages.
	if len(v.stages) == 0 || v.stages[0].InWidth != 0 {
		return nil, fmt.Errorf("planshape: plan has no source stage")
	}
	w := v.stages[0].OutWidth
	for _, st := range v.stages[1:] {
		if st.InWidth != w {
			return nil, fmt.Errorf("planshape: stage %q consumes width %d, predecessor produces %d",
				st.Name, st.InWidth, w)
		}
		w = st.OutWidth
	}
	return v.info(), nil
}

type verifier struct {
	cols    map[string]int
	numCols int
	stages  []StageShape
	req     map[grin.Trait]bool
	opt     map[grin.Trait]bool
	// weight is the int column of an EXPAND_DEGREE no GROUP has consumed
	// yet: until one does, every row stands for that many rows, so only
	// row-wise operators (SELECT, EXPAND_FUSED) may sit in between.
	weight string
}

func (v *verifier) addCol(alias string) int {
	if idx, ok := v.cols[alias]; ok {
		return idx
	}
	idx := v.numCols
	v.cols[alias] = idx
	v.numCols++
	return idx
}

func (v *verifier) pushSource(name string) {
	v.stages = append(v.stages, StageShape{Name: name, OutWidth: v.numCols})
}

func (v *verifier) pushMap(name string, in int) {
	v.stages = append(v.stages, StageShape{Name: name, InWidth: in, OutWidth: v.numCols})
}

func (v *verifier) pushBlocking(name string, in int) {
	v.stages = append(v.stages, StageShape{Name: name, InWidth: in, OutWidth: v.numCols, Blocking: true})
}

func (v *verifier) info() *Info {
	info := &Info{Stages: v.stages, Cols: v.cols, Width: v.numCols}
	type ca struct {
		alias string
		idx   int
	}
	var cas []ca
	//lint:allow determinism order-independent: the pairs are sorted by column index before use
	for a, i := range v.cols {
		if strings.HasPrefix(a, "#") {
			continue
		}
		cas = append(cas, ca{a, i})
	}
	sort.Slice(cas, func(i, j int) bool { return cas[i].idx < cas[j].idx })
	for _, x := range cas {
		info.Out = append(info.Out, x.alias)
	}
	info.Requires = sortedTraits(v.req)
	for _, t := range sortedTraits(v.opt) {
		if !v.req[t] {
			info.Optional = append(info.Optional, t)
		}
	}
	return info
}

func sortedTraits(m map[grin.Trait]bool) []grin.Trait {
	var ts []grin.Trait
	//lint:allow determinism order-independent: sorted immediately below
	for t := range m {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

func (v *verifier) checkOp(op *ir.Op, first bool) error {
	if v.weight != "" {
		switch op.Kind {
		case ir.OpSelect, ir.OpExpandFused, ir.OpGroupBy:
		default:
			return fmt.Errorf("%s between EXPAND_DEGREE and the GROUP that consumes %q would lose the row weights", op.Kind, v.weight)
		}
	}
	switch op.Kind {
	case ir.OpScan:
		if !first {
			return fmt.Errorf("SCAN must be the first operator")
		}
		v.addCol(op.Alias)
		v.labelFilter(op.Label)
		if err := v.checkExpr(op.Pred, v.cols, v.numCols, "scan predicate"); err != nil {
			return err
		}
		v.pushSource("SCAN(" + op.Alias + ")")
		return nil
	case ir.OpExpandFused:
		return v.checkExpandFused(op.FromAlias, op.Alias, op.EdgeAlias, op.EdgeLabel, op.Label, op.Pred)
	case ir.OpExpandDegree:
		in := v.numCols
		if _, ok := v.cols[op.FromAlias]; !ok {
			return fmt.Errorf("EXPAND_DEGREE from unbound alias %q", op.FromAlias)
		}
		if _, ok := v.cols[op.Alias]; ok || op.Alias == "" {
			return fmt.Errorf("EXPAND_DEGREE counts %q, which must be a neighbor no operator binds", op.Alias)
		}
		// The neighbor stays unbound — any later reference to it fails alias
		// resolution — and the count column is int by construction.
		v.weight = ir.DegreeAlias(op.Alias)
		v.addCol(v.weight)
		v.labelFilter(op.EdgeLabel)
		v.labelFilter(op.Label)
		v.pushMap("EXPAND_DEGREE("+op.FromAlias+"->"+op.Alias+")", in)
		return nil
	case ir.OpExpandEdge:
		if op.EdgeAlias == "" {
			return fmt.Errorf("EXPAND_EDGE with no edge alias (the edge column would be unnamed)")
		}
		in := v.numCols
		if _, ok := v.cols[op.FromAlias]; !ok {
			return fmt.Errorf("EXPAND_EDGE from unbound alias %q", op.FromAlias)
		}
		v.addCol(op.EdgeAlias)
		v.addCol("#nbr:" + op.EdgeAlias)
		v.labelFilter(op.EdgeLabel)
		v.pushMap("EXPAND_EDGE("+op.FromAlias+")", in)
		return nil
	case ir.OpGetVertex:
		in := v.numCols
		if _, ok := v.cols["#nbr:"+op.EdgeAlias]; !ok {
			return fmt.Errorf("GET_VERTEX on unexpanded edge %q", op.EdgeAlias)
		}
		v.addCol(op.Alias)
		v.labelFilter(op.Label)
		if err := v.checkExpr(op.Pred, v.cols, v.numCols, "GET_VERTEX predicate"); err != nil {
			return err
		}
		v.pushMap("GET_VERTEX("+op.Alias+")", in)
		return nil
	case ir.OpMatch:
		return v.checkMatch(op, first)
	case ir.OpSelect:
		if op.Pred == nil {
			return fmt.Errorf("SELECT with no predicate is a no-op; drop the operator")
		}
		if err := v.checkExpr(op.Pred, v.cols, v.numCols, "SELECT predicate"); err != nil {
			return err
		}
		v.pushMap("SELECT", v.numCols)
		return nil
	case ir.OpProject:
		return v.checkProject(op)
	case ir.OpOrderBy:
		if len(op.Keys) == 0 {
			return fmt.Errorf("ORDER with no sort keys")
		}
		if op.Limit < 0 {
			return fmt.Errorf("ORDER with negative limit %d", op.Limit)
		}
		for _, k := range op.Keys {
			if err := v.checkExpr(k.Expr, v.cols, v.numCols, "sort key"); err != nil {
				return err
			}
		}
		v.pushBlocking("ORDER", v.numCols)
		return nil
	case ir.OpLimit:
		if op.Limit <= 0 {
			return fmt.Errorf("LIMIT %d (must be positive)", op.Limit)
		}
		v.pushBlocking("LIMIT", v.numCols)
		return nil
	case ir.OpGroupBy:
		return v.checkGroupBy(op)
	case ir.OpDedup:
		if len(op.DedupAliases) == 0 {
			return fmt.Errorf("DEDUP with no key aliases collapses the stream to one row")
		}
		for _, a := range op.DedupAliases {
			if _, ok := v.cols[a]; !ok {
				return fmt.Errorf("DEDUP on unbound alias %q", a)
			}
		}
		v.pushBlocking("DEDUP", v.numCols)
		return nil
	}
	return fmt.Errorf("cannot verify operator kind %v", op.Kind)
}

func (v *verifier) checkExpandFused(from, alias, edgeAlias string, elabel, vlabel graph.LabelID, pred *expr.Expr) error {
	in := v.numCols
	if _, ok := v.cols[from]; !ok {
		return fmt.Errorf("EXPAND_FUSED from unbound alias %q", from)
	}
	v.addCol(alias)
	if edgeAlias != "" {
		v.addCol(edgeAlias)
	}
	v.labelFilter(elabel)
	v.labelFilter(vlabel)
	if err := v.checkExpr(pred, v.cols, v.numCols, "expansion predicate"); err != nil {
		return err
	}
	v.pushMap("EXPAND_FUSED("+from+"->"+alias+")", in)
	return nil
}

// checkMatch mirrors the naive MATCH lowering: scan the first source when
// the pattern opens the plan, then one stage per pattern edge in written
// order — fused expansion toward the unbound endpoint, or an adjacency
// check when both endpoints are bound.
func (v *verifier) checkMatch(op *ir.Op, first bool) error {
	if len(op.Pattern) == 0 {
		return fmt.Errorf("empty MATCH pattern")
	}
	if first {
		start := op.Pattern[0].SrcAlias
		v.addCol(start)
		v.labelFilter(op.Pattern[0].SrcLabel)
		v.pushSource("MATCH_SCAN(" + start + ")")
	} else if _, ok := v.cols[op.Pattern[0].SrcAlias]; !ok {
		return fmt.Errorf("MATCH continuation from unbound alias %q", op.Pattern[0].SrcAlias)
	}
	for _, pe := range op.Pattern {
		_, srcBound := v.cols[pe.SrcAlias]
		_, dstBound := v.cols[pe.DstAlias]
		switch {
		case srcBound && !dstBound:
			if err := v.checkExpandFused(pe.SrcAlias, pe.DstAlias, pe.EdgeAlias, pe.EdgeLabel, pe.DstLabel, nil); err != nil {
				return err
			}
		case !srcBound && dstBound:
			if err := v.checkExpandFused(pe.DstAlias, pe.SrcAlias, pe.EdgeAlias, pe.EdgeLabel, pe.SrcLabel, nil); err != nil {
				return err
			}
		case srcBound && dstBound:
			in := v.numCols
			if pe.EdgeAlias != "" {
				v.addCol(pe.EdgeAlias)
			}
			v.labelFilter(pe.EdgeLabel)
			v.pushMap("ADJ_CHECK("+pe.SrcAlias+","+pe.DstAlias+")", in)
		default:
			return fmt.Errorf("disconnected pattern edge %s-%s", pe.SrcAlias, pe.DstAlias)
		}
	}
	return nil
}

func (v *verifier) checkProject(op *ir.Op) error {
	if len(op.Items) == 0 {
		return fmt.Errorf("PROJECT with no items produces zero-width rows")
	}
	inCols, inWidth := v.cols, v.numCols
	seen := map[string]bool{}
	for _, it := range op.Items {
		if seen[it.Alias] {
			return fmt.Errorf("PROJECT duplicate output alias %q (the columns would silently merge)", it.Alias)
		}
		seen[it.Alias] = true
		if err := v.checkExpr(it.Expr, inCols, inWidth, "PROJECT item "+it.Alias); err != nil {
			return err
		}
	}
	v.cols = map[string]int{}
	v.numCols = 0
	for _, it := range op.Items {
		v.addCol(it.Alias)
	}
	v.pushMap("PROJECT", inWidth)
	return nil
}

func (v *verifier) checkGroupBy(op *ir.Op) error {
	if len(op.GroupKeys)+len(op.Aggs) == 0 {
		return fmt.Errorf("GROUP with no keys and no aggregates")
	}
	if op.CountWeight != v.weight {
		return fmt.Errorf("GROUP weight %q, but the pending EXPAND_DEGREE column is %q", op.CountWeight, v.weight)
	}
	if v.weight != "" {
		for _, a := range op.Aggs {
			if a.Fn != "count" || a.Arg != nil {
				return fmt.Errorf("weighted GROUP supports COUNT(*) only, got %s(%s) AS %s", a.Fn, a.Arg, a.Alias)
			}
		}
		v.weight = ""
	}
	inCols, inWidth := v.cols, v.numCols
	seen := map[string]bool{}
	for _, k := range op.GroupKeys {
		if seen[k.Alias] {
			return fmt.Errorf("GROUP duplicate output alias %q", k.Alias)
		}
		seen[k.Alias] = true
		if err := v.checkExpr(k.Expr, inCols, inWidth, "group key "+k.Alias); err != nil {
			return err
		}
	}
	for _, a := range op.Aggs {
		if seen[a.Alias] {
			return fmt.Errorf("GROUP aggregate alias %q collides with another output column (the columns would silently merge)", a.Alias)
		}
		seen[a.Alias] = true
		switch a.Fn {
		case "count":
		case "sum", "avg", "min", "max", "collect":
			if a.Arg == nil {
				return fmt.Errorf("aggregate %s(%s) needs an argument", a.Fn, a.Alias)
			}
		default:
			return fmt.Errorf("unknown aggregate %q", a.Fn)
		}
		if err := v.checkExpr(a.Arg, inCols, inWidth, "aggregate "+a.Alias); err != nil {
			return err
		}
	}
	v.cols = map[string]int{}
	v.numCols = 0
	for _, k := range op.GroupKeys {
		v.addCol(k.Alias)
	}
	for _, a := range op.Aggs {
		v.addCol(a.Alias)
	}
	v.pushBlocking("GROUP", inWidth)
	return nil
}

// labelFilter records that the plan filters by a concrete label: correct on
// property-bearing stores, silently skipped on stores without the property
// trait (the documented graceful degradation) — hence Optional, not
// Required.
func (v *verifier) labelFilter(l graph.LabelID) {
	if l != graph.AnyLabel {
		v.opt[grin.TraitProperty] = true
	}
}

// checkExpr validates one expression against a column layout: every alias
// reference must resolve (alias column, or the "alias.prop" output-column
// fallback after projection), every resolved column index must be inside
// the layout's width, and every called function must exist in the runtime.
// Property reads and label() raise the property-trait requirement; id()
// records the index trait as exploited-but-optional.
func (v *verifier) checkExpr(e *expr.Expr, cols map[string]int, width int, where string) error {
	if e == nil {
		return nil
	}
	switch e.Kind {
	case expr.KindVar:
		idx, ok := cols[e.Alias]
		if !ok && e.Prop != "" {
			idx, ok = cols[e.Alias+"."+e.Prop]
			if !ok {
				return fmt.Errorf("%s references unbound alias %q", where, e.Alias)
			}
		} else if !ok {
			return fmt.Errorf("%s references unbound alias %q", where, e.Alias)
		} else if e.Prop != "" {
			v.req[grin.TraitProperty] = true
		}
		if idx < 0 || idx >= width {
			return fmt.Errorf("%s binds %q to column %d, outside the row width %d", where, e.Alias, idx, width)
		}
		return nil
	case expr.KindCall:
		switch e.Fn {
		case "id":
			v.opt[grin.TraitIndex] = true
			if len(e.Args) != 1 {
				return fmt.Errorf("%s: id() takes one argument, got %d", where, len(e.Args))
			}
		case "label":
			v.req[grin.TraitProperty] = true
			if len(e.Args) != 1 {
				return fmt.Errorf("%s: label() takes one argument, got %d", where, len(e.Args))
			}
		case "abs", "size":
			if len(e.Args) != 1 {
				return fmt.Errorf("%s: %s() takes one argument, got %d", where, e.Fn, len(e.Args))
			}
		case "coalesce":
		default:
			return fmt.Errorf("%s calls unknown function %q", where, e.Fn)
		}
	case expr.KindLiteral, expr.KindParam, expr.KindBinary, expr.KindUnary, expr.KindList:
	default:
		return fmt.Errorf("%s has unknown expression kind %d", where, e.Kind)
	}
	if err := v.checkExpr(e.Left, cols, width, where); err != nil {
		return err
	}
	if err := v.checkExpr(e.Right, cols, width, where); err != nil {
		return err
	}
	for _, a := range e.Args {
		if err := v.checkExpr(a, cols, width, where); err != nil {
			return err
		}
	}
	return nil
}
