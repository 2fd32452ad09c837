// Package gremlin parses a Gremlin-subset traversal into GraphIR (§5.1).
// Supported steps cover the paper's examples and benchmarks:
//
//	g.V().hasLabel('L').has('p', v).has('p', gt(v)).out('E').in('E').both('E')
//	 .as('a').where(expr("...")).filter(expr("..."))
//	 .match(as('a').out('E').as('b'), ...)
//	 .select('a','b').by('p').by('q').values('p').valueMap('p','q')
//	 .count().dedup().order().by('p', desc).limit(n)
//
// Both Gremlin and Cypher lower to the same IR, so one optimizer and both
// execution engines serve the two languages — the central claim of §5.
package gremlin

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/query/expr"
	"repro/internal/query/ir"
)

// Parse compiles a Gremlin traversal into a logical plan.
func Parse(src string, schema *graph.Schema) (*ir.Plan, error) {
	steps, err := splitSteps(src)
	if err != nil {
		return nil, err
	}
	if len(steps) == 0 || steps[0].name != "g" {
		return nil, fmt.Errorf("gremlin: traversal must start with g")
	}
	p := &builder{schema: schema, plan: &ir.Plan{}}
	return p.build(steps[1:])
}

// step is one chained method call.
type step struct {
	name string
	args []string // raw argument source text
}

// splitSteps tokenizes "g.V().has('a', 1).out('E')" into steps.
func splitSteps(src string) ([]step, error) {
	var steps []step
	i := 0
	for i < len(src) {
		// Skip separators.
		for i < len(src) && (src[i] == '.' || src[i] == ' ' || src[i] == '\n' || src[i] == '\t') {
			i++
		}
		if i >= len(src) {
			break
		}
		j := i
		for j < len(src) && (isIdentByte(src[j])) {
			j++
		}
		name := src[i:j]
		if name == "" {
			return nil, fmt.Errorf("gremlin: unexpected %q at %d", src[i], i)
		}
		st := step{name: name}
		if j < len(src) && src[j] == '(' {
			end := matchParen(src, j)
			if end < 0 {
				return nil, fmt.Errorf("gremlin: unbalanced ( after %s", name)
			}
			st.args = splitArgs(src[j+1 : end])
			j = end + 1
		}
		steps = append(steps, st)
		i = j
	}
	return steps, nil
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func matchParen(s string, i int) int {
	depth := 0
	inStr := byte(0)
	for ; i < len(s); i++ {
		c := s[i]
		if inStr != 0 {
			if c == inStr {
				inStr = 0
			}
			continue
		}
		switch c {
		case '\'', '"':
			inStr = c
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	inStr := byte(0)
	last := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr != 0 {
			if c == inStr {
				inStr = 0
			}
			continue
		}
		switch c {
		case '\'', '"':
			inStr = c
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[last:i]))
				last = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[last:]))
	return out
}

type builder struct {
	schema *graph.Schema
	plan   *ir.Plan

	curAlias  string
	curLabel  graph.LabelID
	anonCount int
	// pendingSelect receives select() aliases awaiting by() modulators.
	pendingSelect []string
	pendingBys    []string
	pendingOrder  *ir.Op
	started       bool
	matchEmitted  bool
}

func (b *builder) freshAlias() string {
	b.anonCount++
	return fmt.Sprintf("#g%d", b.anonCount)
}

// build walks the steps, accumulating IR operators.
func (b *builder) build(steps []step) (*ir.Plan, error) {
	for i := 0; i < len(steps); i++ {
		st := steps[i]
		if err := b.step(st); err != nil {
			return nil, fmt.Errorf("gremlin: step %s: %w", st.name, err)
		}
	}
	if err := b.flushSelect(); err != nil {
		return nil, err
	}
	if b.pendingOrder != nil {
		b.plan.Ops = append(b.plan.Ops, b.pendingOrder)
		b.pendingOrder = nil
	}
	return b.plan, nil
}

func (b *builder) step(st step) error {
	switch st.name {
	case "V":
		b.curAlias = b.freshAlias()
		b.curLabel = graph.AnyLabel
		b.plan.Ops = append(b.plan.Ops, &ir.Op{Kind: ir.OpScan, Alias: b.curAlias, Label: graph.AnyLabel})
		b.started = true
		return nil
	case "hasLabel":
		name, err := stringArg(st, 0)
		if err != nil {
			return err
		}
		id, ok := b.schema.VertexLabelID(name)
		if !ok {
			return fmt.Errorf("unknown label %q", name)
		}
		b.curLabel = id
		// Attach to the producing op.
		if last := b.lastProducer(); last != nil {
			last.Label = id
		}
		return nil
	case "has":
		return b.stepHas(st)
	case "out", "in", "both":
		return b.stepExpand(st)
	case "as":
		name, err := stringArg(st, 0)
		if err != nil {
			return err
		}
		// Rename the current alias in the producing op.
		if last := b.lastProducer(); last != nil && (last.Alias == b.curAlias) {
			last.Alias = name
		}
		b.curAlias = name
		return nil
	case "where", "filter":
		if len(st.args) != 1 {
			return fmt.Errorf("want one expr argument")
		}
		pred, err := parseExprArg(st.args[0])
		if err != nil {
			return err
		}
		b.plan.Ops = append(b.plan.Ops, &ir.Op{Kind: ir.OpSelect, Pred: pred})
		return nil
	case "match":
		return b.stepMatch(st)
	case "select":
		for i := range st.args {
			a, err := stringArg(st, i)
			if err != nil {
				return err
			}
			b.pendingSelect = append(b.pendingSelect, a)
		}
		return nil
	case "by":
		if len(st.args) == 0 {
			b.pendingBys = append(b.pendingBys, "")
			return nil
		}
		arg := st.args[0]
		if b.pendingOrder != nil {
			return b.orderBy(st)
		}
		prop, err := unquote(arg)
		if err != nil {
			return err
		}
		b.pendingBys = append(b.pendingBys, prop)
		return nil
	case "values":
		prop, err := stringArg(st, 0)
		if err != nil {
			return err
		}
		b.plan.Ops = append(b.plan.Ops, &ir.Op{Kind: ir.OpProject, Items: []ir.ProjItem{
			{Expr: expr.Var(b.curAlias, prop), Alias: prop},
		}})
		return nil
	case "valueMap":
		var items []ir.ProjItem
		for i := range st.args {
			prop, err := stringArg(st, i)
			if err != nil {
				return err
			}
			items = append(items, ir.ProjItem{Expr: expr.Var(b.curAlias, prop), Alias: prop})
		}
		b.plan.Ops = append(b.plan.Ops, &ir.Op{Kind: ir.OpProject, Items: items})
		return nil
	case "count":
		b.plan.Ops = append(b.plan.Ops, &ir.Op{Kind: ir.OpGroupBy, Aggs: []ir.Aggregate{
			{Fn: "count", Alias: "count"},
		}})
		return nil
	case "dedup":
		aliases := []string{b.curAlias}
		if len(st.args) > 0 {
			aliases = nil
			for i := range st.args {
				a, err := stringArg(st, i)
				if err != nil {
					return err
				}
				aliases = append(aliases, a)
			}
		}
		b.plan.Ops = append(b.plan.Ops, &ir.Op{Kind: ir.OpDedup, DedupAliases: aliases})
		return nil
	case "order":
		b.pendingOrder = &ir.Op{Kind: ir.OpOrderBy}
		return nil
	case "limit":
		if len(st.args) != 1 {
			return fmt.Errorf("want one count")
		}
		n, err := strconv.Atoi(st.args[0])
		if err != nil {
			return err
		}
		// A positive count merges into the pending ORDER (top-k). ORDER's
		// Limit 0 means "no limit", so limit(0) — and a negative count, for
		// the compiler to reject — stays an operator after it.
		if order := b.pendingOrder; order != nil {
			b.pendingOrder = nil
			b.plan.Ops = append(b.plan.Ops, order)
			if n > 0 {
				order.Limit = n
				return nil
			}
		}
		b.plan.Ops = append(b.plan.Ops, &ir.Op{Kind: ir.OpLimit, Limit: n})
		return nil
	}
	return fmt.Errorf("unsupported step")
}

// lastProducer returns the last op that binds a vertex alias.
func (b *builder) lastProducer() *ir.Op {
	for i := len(b.plan.Ops) - 1; i >= 0; i-- {
		op := b.plan.Ops[i]
		switch op.Kind {
		case ir.OpScan, ir.OpExpandFused, ir.OpGetVertex:
			return op
		case ir.OpMatch:
			return nil
		}
	}
	return nil
}

// stepHas lowers has('prop', value) and has('prop', gt(value)) into a SELECT
// on the current alias (the optimizer pushes it down).
func (b *builder) stepHas(st step) error {
	if len(st.args) != 2 {
		return fmt.Errorf("has wants (prop, value)")
	}
	prop, err := unquote(st.args[0])
	if err != nil {
		return err
	}
	ref := expr.Var(b.curAlias, prop)
	if prop == "id" {
		ref = &expr.Expr{Kind: expr.KindCall, Fn: "id", Args: []*expr.Expr{expr.Var(b.curAlias, "")}}
	}
	op, valSrc := expr.OpEq, st.args[1]
	if i := strings.IndexByte(st.args[1], '('); i > 0 && strings.HasSuffix(st.args[1], ")") {
		fn := st.args[1][:i]
		inner := st.args[1][i+1 : len(st.args[1])-1]
		switch fn {
		case "eq":
			op = expr.OpEq
		case "neq":
			op = expr.OpNe
		case "gt":
			op = expr.OpGt
		case "gte":
			op = expr.OpGe
		case "lt":
			op = expr.OpLt
		case "lte":
			op = expr.OpLe
		case "within":
			lst, err := expr.Parse("[" + inner + "]")
			if err != nil {
				return err
			}
			b.plan.Ops = append(b.plan.Ops, &ir.Op{Kind: ir.OpSelect, Pred: expr.Binary(expr.OpIn, ref, lst)})
			return nil
		default:
			return fmt.Errorf("unsupported predicate %q", fn)
		}
		valSrc = inner
	}
	val, err := expr.Parse(valSrc)
	if err != nil {
		return err
	}
	b.plan.Ops = append(b.plan.Ops, &ir.Op{Kind: ir.OpSelect, Pred: expr.Binary(op, ref, val)})
	return nil
}

// stepExpand lowers out/in/both('E') into a MATCH pattern edge so the
// optimizer can fuse and reorder it together with explicit match() patterns.
func (b *builder) stepExpand(st step) error {
	elabel := graph.AnyLabel
	if len(st.args) > 0 {
		name, err := stringArg(st, 0)
		if err != nil {
			return err
		}
		id, ok := b.schema.EdgeLabelID(name)
		if !ok {
			return fmt.Errorf("unknown edge label %q", name)
		}
		elabel = id
	}
	dir := graph.Out
	switch st.name {
	case "in":
		dir = graph.In
	case "both":
		dir = graph.Both
	}
	next := b.freshAlias()
	pe := ir.PatternEdge{
		SrcAlias: b.curAlias, SrcLabel: b.curLabel,
		EdgeLabel: elabel, Dir: dir,
		DstAlias: next, DstLabel: graph.AnyLabel,
	}
	// Append to an existing trailing MATCH, or start one.
	if n := len(b.plan.Ops); n > 0 && b.plan.Ops[n-1].Kind == ir.OpMatch {
		b.plan.Ops[n-1].Pattern = append(b.plan.Ops[n-1].Pattern, pe)
	} else {
		b.plan.Ops = append(b.plan.Ops, &ir.Op{Kind: ir.OpMatch, Pattern: []ir.PatternEdge{pe}})
	}
	b.curAlias = next
	b.curLabel = graph.AnyLabel
	return nil
}

// stepMatch lowers match(as('a').out('E').as('b'), ...) fragments into one
// MATCH operator. The label constraint of the traversal source (e.g.
// hasLabel before match) attaches to the first fragment's first alias.
func (b *builder) stepMatch(st step) error {
	m := &ir.Op{Kind: ir.OpMatch}
	firstAlias := ""
	for fi, frag := range st.args {
		steps, err := splitSteps(frag)
		if err != nil {
			return err
		}
		cur := ""
		curLabel := graph.AnyLabel
		for si := 0; si < len(steps); si++ {
			fs := steps[si]
			switch fs.name {
			case "as":
				name, err := stringArg(fs, 0)
				if err != nil {
					return err
				}
				if cur == "" {
					cur = name
					if fi == 0 && firstAlias == "" {
						firstAlias = name
						curLabel = b.curLabel
					}
				} else {
					// Rename the last pattern edge's destination.
					if len(m.Pattern) > 0 && m.Pattern[len(m.Pattern)-1].DstAlias == cur {
						m.Pattern[len(m.Pattern)-1].DstAlias = name
					}
					cur = name
				}
			case "out", "in", "both":
				elabel := graph.AnyLabel
				if len(fs.args) > 0 {
					name, err := stringArg(fs, 0)
					if err != nil {
						return err
					}
					id, ok := b.schema.EdgeLabelID(name)
					if !ok {
						return fmt.Errorf("unknown edge label %q", name)
					}
					elabel = id
				}
				dir := graph.Out
				if fs.name == "in" {
					dir = graph.In
				} else if fs.name == "both" {
					dir = graph.Both
				}
				next := b.freshAlias()
				m.Pattern = append(m.Pattern, ir.PatternEdge{
					SrcAlias: cur, SrcLabel: curLabel,
					EdgeLabel: elabel, Dir: dir,
					DstAlias: next, DstLabel: graph.AnyLabel,
				})
				cur = next
				curLabel = graph.AnyLabel
			default:
				return fmt.Errorf("unsupported match fragment step %q", fs.name)
			}
		}
	}
	// The traversal's incoming elements become the first fragment's source:
	// rename the anonymous scan alias to the match's first alias.
	if firstAlias != "" {
		if last := b.lastProducer(); last != nil && last.Alias == b.curAlias && strings.HasPrefix(b.curAlias, "#g") {
			last.Alias = firstAlias
		}
		b.curAlias = firstAlias
	}
	b.plan.Ops = append(b.plan.Ops, m)
	b.matchEmitted = true
	return nil
}

// flushSelect materializes a pending select(...).by(...).by(...) chain.
func (b *builder) flushSelect() error {
	if len(b.pendingSelect) == 0 {
		return nil
	}
	var items []ir.ProjItem
	for i, alias := range b.pendingSelect {
		prop := ""
		if i < len(b.pendingBys) {
			prop = b.pendingBys[i]
		}
		aliasOut := alias
		if prop != "" {
			aliasOut = alias + "." + prop
		}
		items = append(items, ir.ProjItem{Expr: expr.Var(alias, prop), Alias: aliasOut})
	}
	b.plan.Ops = append(b.plan.Ops, &ir.Op{Kind: ir.OpProject, Items: items})
	b.pendingSelect, b.pendingBys = nil, nil
	return nil
}

// orderBy handles by('prop') / by('prop', desc) under order().
func (b *builder) orderBy(st step) error {
	prop, err := unquote(st.args[0])
	if err != nil {
		return err
	}
	desc := len(st.args) > 1 && strings.EqualFold(strings.TrimSpace(st.args[1]), "desc")
	b.pendingOrder.Keys = append(b.pendingOrder.Keys, ir.SortKey{
		Expr: expr.Var(b.curAlias, prop), Desc: desc,
	})
	return nil
}

func stringArg(st step, i int) (string, error) {
	if i >= len(st.args) {
		return "", fmt.Errorf("missing argument %d", i)
	}
	return unquote(st.args[i])
}

func unquote(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') && s[len(s)-1] == s[0] {
		return s[1 : len(s)-1], nil
	}
	return "", fmt.Errorf("expected string literal, got %q", s)
}

// parseExprArg handles expr("...") wrappers and bare expressions.
func parseExprArg(s string) (*expr.Expr, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "expr(") && strings.HasSuffix(s, ")") {
		inner := s[len("expr(") : len(s)-1]
		unq, err := unquote(inner)
		if err != nil {
			return nil, err
		}
		return expr.Parse(unq)
	}
	return expr.Parse(s)
}
