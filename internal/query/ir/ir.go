// Package ir defines GraphIR (§5.1): the unified intermediate representation
// both Gremlin and Cypher lower to. A logical plan is a chain of operators
// over a stream of rows; each row binds aliases to graph-associated values
// (vertices, edges) or computed values. The MATCH operator holds a declarative
// pattern that the optimizer (package optimizer) orders and lowers into
// scans and expansions.
package ir

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/query/expr"
)

// OpKind enumerates the logical operators Ω.
type OpKind uint8

const (
	// OpScan is GET_VERTEX as a source: scan vertices of a label.
	OpScan OpKind = iota
	// OpExpandEdge expands adjacent edges from a bound vertex.
	OpExpandEdge
	// OpGetVertex retrieves an endpoint of a bound edge.
	OpGetVertex
	// OpExpandFused is the physical fusion of ExpandEdge+GetVertex
	// (EdgeVertexFusion, §5.2).
	OpExpandFused
	// OpMatch is declarative pattern matching (MATCH_START..MATCH_END).
	OpMatch
	// OpSelect filters rows by a predicate.
	OpSelect
	// OpProject computes output columns.
	OpProject
	// OpOrderBy sorts rows (optionally with a limit).
	OpOrderBy
	// OpLimit truncates the stream.
	OpLimit
	// OpGroupBy groups rows and computes aggregates.
	OpGroupBy
	// OpDedup removes duplicate rows over key aliases.
	OpDedup
	// OpExpandDegree is a fused expansion with ExpandOpt = DEGREE: instead
	// of binding the neighbor it appends one int column (DegreeAlias) holding
	// the number of adjacency slots that pass the label filters, and drops
	// input rows whose count is 0 (inner-join semantics). With Via it counts
	// over a hop path: it walks Via from FromAlias, binding none of the
	// vertices on the way, and the column holds the sum over every path of
	// the last hop's matching slots — the rows the unfolded chain would have
	// emitted, counted in int64. The optimizer emits it for an expansion
	// whose neighbor is only ever counted, and absorbs into Via the fused
	// expansions before it whose neighbors nothing else references; the
	// GROUP that consumes the column names it in CountWeight.
	OpExpandDegree
)

// String names the operator kind.
func (k OpKind) String() string {
	switch k {
	case OpScan:
		return "SCAN"
	case OpExpandEdge:
		return "EXPAND_EDGE"
	case OpGetVertex:
		return "GET_VERTEX"
	case OpExpandFused:
		return "EXPAND_FUSED"
	case OpMatch:
		return "MATCH"
	case OpSelect:
		return "SELECT"
	case OpProject:
		return "PROJECT"
	case OpOrderBy:
		return "ORDER"
	case OpLimit:
		return "LIMIT"
	case OpGroupBy:
		return "GROUP"
	case OpDedup:
		return "DEDUP"
	case OpExpandDegree:
		return "EXPAND_DEGREE"
	}
	return fmt.Sprintf("OP(%d)", uint8(k))
}

// EndOpt selects which endpoint GetVertex retrieves.
type EndOpt uint8

const (
	// EndDst is the edge's head (for Out expansion: the neighbor).
	EndDst EndOpt = iota
	// EndSrc is the edge's tail.
	EndSrc
)

// PatternEdge is one pattern-graph edge in a MATCH: (Src)-[:Label]->(Dst).
type PatternEdge struct {
	SrcAlias  string
	SrcLabel  graph.LabelID
	EdgeLabel graph.LabelID
	Dir       graph.Direction // Out: Src->Dst; In: Dst->Src; Both: either
	DstAlias  string
	DstLabel  graph.LabelID
	EdgeAlias string // "" if the edge itself is not referenced
}

// Aggregate describes one aggregation in GROUP BY.
type Aggregate struct {
	Fn    string // count, sum, avg, min, max, collect
	Arg   *expr.Expr
	Alias string
}

// Hop is one step of an ExpandDegree's Via path: the edges of EdgeLabel in
// Dir to a vertex of Label, which binds Alias in the unfolded plan.
type Hop struct {
	Alias     string
	EdgeLabel graph.LabelID
	Dir       graph.Direction
	Label     graph.LabelID
}

// ProjItem is one output column of PROJECT.
type ProjItem struct {
	Expr  *expr.Expr
	Alias string
}

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr *expr.Expr
	Desc bool
}

// Op is one logical operator node.
type Op struct {
	Kind OpKind

	// Scan / GetVertex / ExpandFused; ExpandDegree: the counted (never
	// bound) neighbor, which names the DegreeAlias column
	Alias string
	Label graph.LabelID
	Pred  *expr.Expr

	// ExpandEdge / ExpandFused / ExpandDegree
	FromAlias string
	EdgeLabel graph.LabelID
	Dir       graph.Direction
	EdgeAlias string

	// GetVertex
	End EndOpt

	// ExpandDegree: the hops walked from FromAlias before the counted one
	Via []Hop

	// Match
	Pattern []PatternEdge

	// Project
	Items []ProjItem

	// OrderBy
	Keys  []SortKey
	Limit int // OrderBy top-k; OpLimit count

	// GroupBy
	GroupKeys []ProjItem
	Aggs      []Aggregate
	// CountWeight, when set, names an int column (an ExpandDegree's
	// DegreeAlias): each input row stands for that many rows, so every
	// aggregate — all of them COUNT(*) by then — adds it instead of 1.
	CountWeight string

	// Dedup
	DedupAliases []string
}

// Path renders an ExpandDegree's aliases from FromAlias through Via to the
// counted neighbor, as in "p1->p2->m".
func (o *Op) Path() string {
	s := o.FromAlias
	for _, h := range o.Via {
		s += "->" + h.Alias
	}
	return s + "->" + o.Alias
}

// DegreeAlias names the hidden int column an ExpandDegree of the given
// neighbor alias appends.
func DegreeAlias(leaf string) string { return "#deg:" + leaf }

// Plan is a logical (or physical, after optimization) operator chain.
type Plan struct {
	Ops []*Op
}

// String renders the plan one operator per line (used by tests, EXPLAIN and
// the flexbuild docs).
func (p *Plan) String() string {
	var b strings.Builder
	for i, op := range p.Ops {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(op.String())
	}
	return b.String()
}

// String renders one operator.
func (o *Op) String() string {
	switch o.Kind {
	case OpScan:
		s := fmt.Sprintf("SCAN label=%d alias=%s", o.Label, o.Alias)
		if o.Pred != nil {
			s += " pred=" + o.Pred.String()
		}
		return s
	case OpExpandEdge:
		return fmt.Sprintf("EXPAND_EDGE from=%s label=%d dir=%s alias=%s", o.FromAlias, o.EdgeLabel, o.Dir, o.EdgeAlias)
	case OpGetVertex:
		s := fmt.Sprintf("GET_VERTEX edge=%s end=%d alias=%s label=%d", o.EdgeAlias, o.End, o.Alias, o.Label)
		if o.Pred != nil {
			s += " pred=" + o.Pred.String()
		}
		return s
	case OpExpandFused:
		s := fmt.Sprintf("EXPAND_FUSED from=%s elabel=%d dir=%s alias=%s vlabel=%d", o.FromAlias, o.EdgeLabel, o.Dir, o.Alias, o.Label)
		if o.EdgeAlias != "" {
			s += " ealias=" + o.EdgeAlias
		}
		if o.Pred != nil {
			s += " pred=" + o.Pred.String()
		}
		return s
	case OpMatch:
		parts := make([]string, len(o.Pattern))
		for i, pe := range o.Pattern {
			arrow := "->"
			if pe.Dir == graph.In {
				arrow = "<-"
			} else if pe.Dir == graph.Both {
				arrow = "--"
			}
			parts[i] = fmt.Sprintf("(%s:%d)-[%d]%s(%s:%d)", pe.SrcAlias, pe.SrcLabel, pe.EdgeLabel, arrow, pe.DstAlias, pe.DstLabel)
		}
		return "MATCH " + strings.Join(parts, ", ")
	case OpSelect:
		return "SELECT " + o.Pred.String()
	case OpProject:
		parts := make([]string, len(o.Items))
		for i, it := range o.Items {
			parts[i] = fmt.Sprintf("%s AS %s", it.Expr, it.Alias)
		}
		return "PROJECT " + strings.Join(parts, ", ")
	case OpOrderBy:
		parts := make([]string, len(o.Keys))
		for i, k := range o.Keys {
			d := "asc"
			if k.Desc {
				d = "desc"
			}
			parts[i] = k.Expr.String() + " " + d
		}
		s := "ORDER " + strings.Join(parts, ", ")
		if o.Limit > 0 {
			s += fmt.Sprintf(" limit=%d", o.Limit)
		}
		return s
	case OpLimit:
		return fmt.Sprintf("LIMIT %d", o.Limit)
	case OpGroupBy:
		var keys []string
		for _, k := range o.GroupKeys {
			keys = append(keys, k.Alias)
		}
		var aggs []string
		for _, a := range o.Aggs {
			arg := "*"
			if a.Arg != nil {
				arg = a.Arg.String()
			}
			aggs = append(aggs, fmt.Sprintf("%s(%s) AS %s", a.Fn, arg, a.Alias))
		}
		s := fmt.Sprintf("GROUP keys=[%s] aggs=[%s]", strings.Join(keys, ","), strings.Join(aggs, ","))
		if o.CountWeight != "" {
			s += " weight=" + o.CountWeight
		}
		return s
	case OpExpandDegree:
		s := "EXPAND_DEGREE from=" + o.FromAlias
		for _, h := range o.Via {
			s += fmt.Sprintf(" via=%s(elabel=%d dir=%s vlabel=%d)", h.Alias, h.EdgeLabel, h.Dir, h.Label)
		}
		return s + fmt.Sprintf(" elabel=%d dir=%s count=%s vlabel=%d", o.EdgeLabel, o.Dir, o.Alias, o.Label)
	case OpDedup:
		return "DEDUP " + strings.Join(o.DedupAliases, ",")
	}
	return o.Kind.String()
}
