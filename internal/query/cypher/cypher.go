// Package cypher parses a Cypher subset into GraphIR (§5.1). The subset
// covers the constructs exercised by the paper's queries and benchmarks:
// multi-clause MATCH with node/relationship patterns, WHERE, WITH (projection
// and aggregation), RETURN with aggregates, ORDER BY, LIMIT.
package cypher

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/query/expr"
	"repro/internal/query/ir"
)

// Parse compiles Cypher text into a logical plan against the schema.
func Parse(src string, schema *graph.Schema) (*ir.Plan, error) {
	p := &parser{src: src, schema: schema, anon: 0}
	return p.parse()
}

type parser struct {
	src    string
	schema *graph.Schema
	pos    int
	anon   int
}

var clauseKeywords = []string{"MATCH", "WHERE", "WITH", "RETURN", "ORDER", "LIMIT"}

// parse splits the query into clauses and lowers each.
func (p *parser) parse() (*ir.Plan, error) {
	plan := &ir.Plan{}
	clauses, err := p.splitClauses()
	if err != nil {
		return nil, err
	}
	if len(clauses) == 0 {
		return nil, fmt.Errorf("cypher: empty query")
	}
	for i := 0; i < len(clauses); i++ {
		cl := clauses[i]
		switch cl.kw {
		case "MATCH":
			ops, err := p.parsePatterns(cl.body)
			if err != nil {
				return nil, err
			}
			plan.Ops = append(plan.Ops, ops...)
		case "WHERE":
			pred, err := expr.Parse(cl.body)
			if err != nil {
				return nil, fmt.Errorf("cypher: WHERE: %w", err)
			}
			plan.Ops = append(plan.Ops, &ir.Op{Kind: ir.OpSelect, Pred: pred})
		case "WITH", "RETURN":
			ops, err := p.parseProjection(cl.body)
			if err != nil {
				return nil, fmt.Errorf("cypher: %s: %w", cl.kw, err)
			}
			plan.Ops = append(plan.Ops, ops...)
		case "ORDER":
			body := strings.TrimSpace(cl.body)
			up := strings.ToUpper(body)
			if !strings.HasPrefix(up, "BY ") {
				return nil, fmt.Errorf("cypher: expected ORDER BY")
			}
			keys, raws, err := p.parseSortKeys(body[3:])
			if err != nil {
				return nil, err
			}
			// Keys naming an output column of the preceding RETURN/WITH
			// (e.g. "id(f)", "cnt") reference that column directly. Keys
			// over non-returned expressions (Cypher permits ORDER BY on
			// them) are computed as hidden columns of the projection.
			if outs := outputAliasesOf(plan); outs != nil {
				last := plan.Ops[len(plan.Ops)-1]
				for i, raw := range raws {
					switch {
					case outs[raw]:
						keys[i].Expr = expr.Var(raw, "")
					case last.Kind == ir.OpProject:
						hidden := fmt.Sprintf("#sort%d", i)
						last.Items = append(last.Items, ir.ProjItem{Expr: keys[i].Expr, Alias: hidden})
						keys[i].Expr = expr.Var(hidden, "")
					}
				}
			}
			plan.Ops = append(plan.Ops, &ir.Op{Kind: ir.OpOrderBy, Keys: keys})
		case "LIMIT":
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(cl.body), "%d", &n); err != nil {
				return nil, fmt.Errorf("cypher: LIMIT: %w", err)
			}
			// Merge a positive count into a preceding ORDER when adjacent
			// (top-k). ORDER's Limit 0 means "no limit", so LIMIT 0 — and a
			// negative count, for the compiler to reject — stays an operator.
			if last := len(plan.Ops) - 1; n > 0 && last >= 0 && plan.Ops[last].Kind == ir.OpOrderBy && plan.Ops[last].Limit == 0 {
				plan.Ops[last].Limit = n
			} else {
				plan.Ops = append(plan.Ops, &ir.Op{Kind: ir.OpLimit, Limit: n})
			}
		}
	}
	return plan, nil
}

type clause struct {
	kw   string
	body string
}

// splitClauses cuts the source at top-level clause keywords.
func (p *parser) splitClauses() ([]clause, error) {
	src := p.src
	var out []clause
	i := 0
	cur := clause{}
	depth := 0
	inStr := byte(0)
	wordStart := -1
	flush := func(end int) {
		if cur.kw != "" {
			cur.body = strings.TrimSpace(src[wordStart:end])
			out = append(out, cur)
		}
	}
	for i < len(src) {
		c := src[i]
		if inStr != 0 {
			if c == inStr {
				inStr = 0
			}
			i++
			continue
		}
		switch c {
		case '\'', '"':
			inStr = c
			i++
			continue
		case '(', '[', '{':
			depth++
			i++
			continue
		case ')', ']', '}':
			depth--
			i++
			continue
		}
		if depth == 0 && isWordStart(src, i) {
			j := i
			for j < len(src) && isIdent(src[j]) {
				j++
			}
			word := strings.ToUpper(src[i:j])
			for _, kw := range clauseKeywords {
				if word == kw {
					flush(i)
					cur = clause{kw: kw}
					wordStart = j
					break
				}
			}
			i = j
			continue
		}
		i++
	}
	flush(len(src))
	if len(out) == 0 {
		return nil, fmt.Errorf("cypher: no clauses found")
	}
	return out, nil
}

func isWordStart(s string, i int) bool {
	if !isAlpha(s[i]) {
		return false
	}
	return i == 0 || !isIdent(s[i-1])
}

func isAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isIdent(c byte) bool { return isAlpha(c) || c >= '0' && c <= '9' || c == '_' }

// parsePatterns parses "pattern, pattern, ..." into a MATCH op (plus a
// SELECT for inline `{p: v}` property maps, which the optimizer pushes back
// down). A MATCH consisting of one single-node pattern becomes a SCAN.
func (p *parser) parsePatterns(body string) ([]*ir.Op, error) {
	op := &ir.Op{Kind: ir.OpMatch}
	var inlinePred *expr.Expr
	var singles []*nodeRef
	for _, pat := range splitTop(body, ',') {
		edges, single, pred, err := p.parsePattern(strings.TrimSpace(pat))
		if err != nil {
			return nil, err
		}
		op.Pattern = append(op.Pattern, edges...)
		if single != nil {
			singles = append(singles, single)
		}
		inlinePred = expr.And(inlinePred, pred)
	}
	var ops []*ir.Op
	if len(op.Pattern) > 0 {
		// Single-node patterns must be referenced by some edge (no
		// cartesian products).
		referenced := map[string]bool{}
		for _, pe := range op.Pattern {
			referenced[pe.SrcAlias] = true
			referenced[pe.DstAlias] = true
		}
		for _, sn := range singles {
			if !referenced[sn.alias] {
				return nil, fmt.Errorf("cypher: cartesian product with (%s) unsupported", sn.alias)
			}
		}
		ops = append(ops, op)
	} else {
		if len(singles) != 1 {
			return nil, fmt.Errorf("cypher: MATCH needs a connected pattern")
		}
		ops = append(ops, &ir.Op{Kind: ir.OpScan, Alias: singles[0].alias, Label: singles[0].label})
	}
	if inlinePred != nil {
		ops = append(ops, &ir.Op{Kind: ir.OpSelect, Pred: inlinePred})
	}
	return ops, nil
}

// splitTop splits on sep outside parens/brackets/strings.
func splitTop(s string, sep byte) []string {
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
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
		default:
			if c == sep && depth == 0 {
				out = append(out, s[last:i])
				last = i + 1
			}
		}
	}
	out = append(out, s[last:])
	return out
}

type nodeRef struct {
	alias string
	label graph.LabelID
	pred  *expr.Expr
}

// parsePattern parses "(a:L {p:v})-[:E]->(b)<-[:F]-(c)". For a single-node
// pattern it returns the node instead of edges.
func (p *parser) parsePattern(s string) ([]ir.PatternEdge, *nodeRef, *expr.Expr, error) {
	var edges []ir.PatternEdge
	var pred *expr.Expr
	i := 0
	var prev *nodeRef
	var pendingRel *relRef
	for i < len(s) {
		switch {
		case s[i] == '(':
			end := matching(s, i, '(', ')')
			if end < 0 {
				return nil, nil, nil, fmt.Errorf("cypher: unbalanced ( in %q", s)
			}
			node, err := p.parseNode(s[i+1 : end])
			if err != nil {
				return nil, nil, nil, err
			}
			pred = expr.And(pred, node.pred)
			if pendingRel != nil && prev != nil {
				pe := ir.PatternEdge{
					SrcAlias: prev.alias, SrcLabel: prev.label,
					EdgeLabel: pendingRel.label, EdgeAlias: pendingRel.alias,
					DstAlias: node.alias, DstLabel: node.label,
					Dir: graph.Out,
				}
				if pendingRel.left && !pendingRel.right {
					// (a)<-[:E]-(b): edge goes b->a.
					pe.SrcAlias, pe.SrcLabel, pe.DstAlias, pe.DstLabel =
						node.alias, node.label, prev.alias, prev.label
				} else if pendingRel.left == pendingRel.right {
					pe.Dir = graph.Both
				}
				edges = append(edges, pe)
				pendingRel = nil
			}
			prev = node
			i = end + 1
		case s[i] == '-' || s[i] == '<':
			rel, next, err := p.parseRel(s, i)
			if err != nil {
				return nil, nil, nil, err
			}
			pendingRel = rel
			i = next
		case s[i] == ' ' || s[i] == '\t' || s[i] == '\n':
			i++
		default:
			return nil, nil, nil, fmt.Errorf("cypher: unexpected %q in pattern %q", s[i], s)
		}
	}
	if len(edges) == 0 {
		return nil, prev, pred, nil
	}
	return edges, nil, pred, nil
}

type relRef struct {
	alias string
	label graph.LabelID
	left  bool // <- on the left side
	right bool // -> on the right side
}

// parseRel parses -[alias:LABEL]->, <-[...]-, -[...]-.
func (p *parser) parseRel(s string, i int) (*relRef, int, error) {
	rel := &relRef{label: graph.AnyLabel}
	if s[i] == '<' {
		rel.left = true
		i++
	}
	if i >= len(s) || s[i] != '-' {
		return nil, 0, fmt.Errorf("cypher: bad relationship at %d in %q", i, s)
	}
	i++
	if i < len(s) && s[i] == '[' {
		end := matching(s, i, '[', ']')
		if end < 0 {
			return nil, 0, fmt.Errorf("cypher: unbalanced [ in %q", s)
		}
		body := s[i+1 : end]
		if colon := strings.IndexByte(body, ':'); colon >= 0 {
			rel.alias = strings.TrimSpace(body[:colon])
			name := strings.TrimSpace(body[colon+1:])
			id, ok := p.schema.EdgeLabelID(name)
			if !ok {
				return nil, 0, fmt.Errorf("cypher: unknown relationship type %q", name)
			}
			rel.label = id
		} else if b := strings.TrimSpace(body); b != "" {
			rel.alias = b
		}
		i = end + 1
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '>' {
		rel.right = true
		i++
	}
	if rel.left && rel.right {
		return nil, 0, fmt.Errorf("cypher: bidirectional arrow in %q", s)
	}
	return rel, i, nil
}

// matching finds the index of the closing bracket for the opener at i.
func matching(s string, i int, open, close byte) int {
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
		case open:
			depth++
		case close:
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// parseNode parses "alias:Label {p: v, q: w}".
func (p *parser) parseNode(body string) (*nodeRef, error) {
	node := &nodeRef{label: graph.AnyLabel}
	body = strings.TrimSpace(body)
	// Property map suffix.
	if brace := strings.IndexByte(body, '{'); brace >= 0 {
		end := matching(body, brace, '{', '}')
		if end < 0 {
			return nil, fmt.Errorf("cypher: unbalanced { in node (%s)", body)
		}
		propMap := body[brace+1 : end]
		rest := strings.TrimSpace(body[:brace])
		node2, err := p.parseNode(rest)
		if err != nil {
			return nil, err
		}
		*node = *node2
		for _, kv := range splitTop(propMap, ',') {
			parts := strings.SplitN(kv, ":", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("cypher: bad property map entry %q", kv)
			}
			key := strings.TrimSpace(parts[0])
			valExpr, err := expr.Parse(strings.TrimSpace(parts[1]))
			if err != nil {
				return nil, err
			}
			var ref *expr.Expr
			if key == "id" {
				ref = &expr.Expr{Kind: expr.KindCall, Fn: "id", Args: []*expr.Expr{expr.Var(node.alias, "")}}
			} else {
				ref = expr.Var(node.alias, key)
			}
			node.pred = expr.And(node.pred, expr.Binary(expr.OpEq, ref, valExpr))
		}
		return node, nil
	}
	if colon := strings.IndexByte(body, ':'); colon >= 0 {
		node.alias = strings.TrimSpace(body[:colon])
		name := strings.TrimSpace(body[colon+1:])
		id, ok := p.schema.VertexLabelID(name)
		if !ok {
			return nil, fmt.Errorf("cypher: unknown label %q", name)
		}
		node.label = id
	} else {
		node.alias = body
	}
	if node.alias == "" {
		p.anon++
		node.alias = fmt.Sprintf("#anon%d", p.anon)
	}
	return node, nil
}

var aggFns = map[string]bool{"count": true, "sum": true, "avg": true, "min": true, "max": true, "collect": true}

// parseProjection lowers WITH/RETURN item lists: aggregates trigger GROUP BY
// on the remaining items, otherwise a plain PROJECT.
func (p *parser) parseProjection(body string) ([]*ir.Op, error) {
	items := splitTop(body, ',')
	var keys []ir.ProjItem
	var aggs []ir.Aggregate
	for _, raw := range items {
		raw = strings.TrimSpace(raw)
		alias := ""
		// "expr AS alias"
		if idx := lastIndexWord(raw, "AS"); idx >= 0 {
			alias = strings.TrimSpace(raw[idx+2:])
			raw = strings.TrimSpace(raw[:idx])
		}
		if strings.EqualFold(strings.Join(strings.Fields(raw), ""), "count(*)") {
			// The expression grammar has no bare `*`; COUNT(*) is the
			// argument-less count.
			if alias == "" {
				alias = raw
			}
			aggs = append(aggs, ir.Aggregate{Fn: "count", Alias: alias})
			continue
		}
		e, err := expr.Parse(raw)
		if err != nil {
			return nil, err
		}
		if alias == "" {
			alias = defaultAlias(e, raw)
		}
		if e.Kind == expr.KindCall && aggFns[e.Fn] {
			var arg *expr.Expr
			if len(e.Args) > 0 {
				arg = e.Args[0]
			}
			aggs = append(aggs, ir.Aggregate{Fn: e.Fn, Arg: arg, Alias: alias})
		} else {
			keys = append(keys, ir.ProjItem{Expr: e, Alias: alias})
		}
	}
	if len(aggs) > 0 {
		return []*ir.Op{{Kind: ir.OpGroupBy, GroupKeys: keys, Aggs: aggs}}, nil
	}
	return []*ir.Op{{Kind: ir.OpProject, Items: keys}}, nil
}

func defaultAlias(e *expr.Expr, raw string) string {
	if e.Kind == expr.KindVar {
		if e.Prop == "" {
			return e.Alias
		}
		return e.Alias + "." + e.Prop
	}
	return raw
}

// lastIndexWord finds the last occurrence of a keyword as a standalone word
// (case-insensitive, outside parens).
func lastIndexWord(s, word string) int {
	up := strings.ToUpper(s)
	word = strings.ToUpper(word)
	depth := 0
	for i := len(s) - len(word); i >= 0; i-- {
		switch s[i] {
		case ')', ']':
			depth++
		case '(', '[':
			depth--
		}
		if depth != 0 {
			continue
		}
		if up[i:i+len(word)] == word {
			before := i == 0 || !isIdent(s[i-1])
			after := i+len(word) >= len(s) || !isIdent(s[i+len(word)])
			if before && after {
				return i
			}
		}
	}
	return -1
}

// parseSortKeys parses "a.x DESC, b.y", returning the keys and their raw
// (direction-stripped) texts.
func (p *parser) parseSortKeys(body string) ([]ir.SortKey, []string, error) {
	var keys []ir.SortKey
	var raws []string
	for _, raw := range splitTop(body, ',') {
		raw = strings.TrimSpace(raw)
		desc := false
		up := strings.ToUpper(raw)
		if strings.HasSuffix(up, " DESC") {
			desc = true
			raw = strings.TrimSpace(raw[:len(raw)-5])
		} else if strings.HasSuffix(up, " ASC") {
			raw = strings.TrimSpace(raw[:len(raw)-4])
		}
		e, err := expr.Parse(raw)
		if err != nil {
			return nil, nil, err
		}
		keys = append(keys, ir.SortKey{Expr: e, Desc: desc})
		raws = append(raws, raw)
	}
	return keys, raws, nil
}

// outputAliasesOf returns the column aliases produced by the plan's last
// projection/aggregation, or nil if the last operator is not one.
func outputAliasesOf(plan *ir.Plan) map[string]bool {
	if len(plan.Ops) == 0 {
		return nil
	}
	last := plan.Ops[len(plan.Ops)-1]
	out := map[string]bool{}
	switch last.Kind {
	case ir.OpProject:
		for _, it := range last.Items {
			out[it.Alias] = true
		}
	case ir.OpGroupBy:
		for _, k := range last.GroupKeys {
			out[k.Alias] = true
		}
		for _, a := range last.Aggs {
			out[a.Alias] = true
		}
	default:
		return nil
	}
	return out
}
