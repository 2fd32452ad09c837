package exec

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/expr"
	"repro/internal/query/ir"
	"repro/internal/query/obsv"
	"repro/internal/storage/column"
)

// projItem is one compiled PROJECT output column with its fast paths (see
// compileProject).
type projItem struct {
	out      int
	prog     *expr.Bound
	copyCol  int // >= 0: bare column copy
	gathCol  int // >= 0: alias.prop columnar-gather candidate
	gathProp string
	elemKind graph.Kind // vertex/edge kind of gathCol
	idCol    int        // >= 0: id() of this vertex column
	mapLeaf  expr.MapLeaf
	hasMap   bool
}

// compileProject replaces the row with computed columns, each computed over
// the whole batch. Four shapes are typed, with a typed output column:
//   - a bare column reference copies the input vector, typed as its input;
//   - alias.prop over a vertex or edge column whose property kind the schema
//     knows gathers the store column straight into the output through
//     grin.GatherVertexPropCol/GatherEdgePropCol;
//   - id(v) over a vertex column resolves grin.Index once per batch and
//     appends each row's external ID (the internal ID on a store without the
//     index trait, as Bound.Eval does) into a KindInt column;
//   - an int-arithmetic leaf over an int column runs a map kernel.
//
// Each has runtime preconditions — a typed, null-free input vector of the
// expected kind, an output vector no earlier value demoted, a store that
// serves the gather — and when one fails the item falls back to evaluating
// its bound program row by row into the output vector, which demotes itself
// to boxed if a value disagrees with its kind. So a NULL vertex, a boxed input
// or an edge under id() costs speed, never a different result. Every other
// expression takes that boxed path, with a boxed output column.
func (c *Compiled) compileProject(op *ir.Op) error {
	if len(op.Items) == 0 {
		return fmt.Errorf("PROJECT with no items produces zero-width rows")
	}
	inCols := c.snapshotCols()
	inKinds := c.kindsSnapshot()
	inLabels := append([]graph.LabelID(nil), c.labels...)
	inWidth := c.numCols
	items := op.Items
	// Reset the column space: PROJECT defines the new schema.
	c.resetCols()
	pitems := make([]projItem, len(items))
	for i, it := range items {
		if _, dup := c.Cols[it.Alias]; dup {
			return fmt.Errorf("PROJECT duplicate output alias %q (the columns would silently merge)", it.Alias)
		}
		prog, err := c.bind(inCols, it.Expr)
		if err != nil {
			return err
		}
		pi := projItem{prog: prog, copyCol: -1, gathCol: -1, idCol: -1}
		outKind, outLabel := graph.KindNil, graph.AnyLabel
		if col, prop, ok := prog.PropRef(); ok {
			if prop == "" {
				pi.copyCol = col
				outKind, outLabel = inKinds[col], inLabels[col]
			} else if ek := inKinds[col]; ek == graph.KindVertex || ek == graph.KindEdge {
				if pk, ok := c.propKind(ek, inLabels[col], prop); ok {
					pi.gathCol, pi.gathProp, pi.elemKind = col, prop, ek
					outKind = pk
				}
			}
		} else if col, ok := prog.IDRef(); ok && inKinds[col] == graph.KindVertex {
			pi.idCol = col
			outKind = graph.KindInt
		} else if l, ok := prog.MapLeaf(); ok && l.Prop == "" && inKinds[l.Col] == graph.KindInt {
			pi.mapLeaf, pi.hasMap = l, true
			outKind = graph.KindInt
		}
		pi.out = c.addColK(it.Alias, outKind, outLabel)
		pitems[i] = pi
	}
	width := c.numCols
	c.Stages = append(c.Stages, Stage{
		Name:    "PROJECT",
		InWidth: inWidth, OutWidth: width,
		OutKinds: c.kindsSnapshot(),
		Map: func(env *Env, in, out *Batch) error {
			n := in.Len()
			if n == 0 {
				return nil
			}
			sel := in.Sel()
			benv := env.boundEnv()
			s := &env.Arena.gather
			for _, pi := range pitems {
				oc := out.Col(pi.out)
				if pi.copyCol >= 0 {
					ic := in.Col(pi.copyCol)
					if sel == nil {
						oc.appendAll(ic)
					} else {
						oc.appendRows(ic, sel)
					}
					continue
				}
				if pi.gathCol >= 0 {
					if t := in.Col(pi.gathCol).Typed(); t != nil && t.Kind() == pi.elemKind && !t.HasNulls() && oc.Typed() != nil &&
						gatherCol(env.Graph, s, pi.elemKind, t.RawInts(), sel, n, pi.gathProp, oc.Typed()) {
						continue
					}
				}
				if pi.idCol >= 0 {
					if t := in.Col(pi.idCol).Typed(); t != nil && t.Kind() == graph.KindVertex && !t.HasNulls() && oc.Typed() != nil && oc.Typed().Kind() == graph.KindInt {
						appendIDs(env.Graph, t.RawInts(), sel, n, oc.Typed())
						continue
					}
				}
				if pi.hasMap {
					if t := in.Col(pi.mapLeaf.Col).Typed(); t != nil && t.Kind() == graph.KindInt && !t.HasNulls() && oc.Typed() != nil && oc.Typed().Kind() == graph.KindInt {
						// An argument-resolution failure falls through to the
						// boxed evaluator, which reports the identical error.
						if arg, err := pi.mapLeaf.ResolveArg(&benv); err == nil {
							if kern, ok := expr.CompileMapKernel(graph.KindInt, pi.mapLeaf, arg); ok {
								kern(t, sel, oc.Typed())
								continue
							}
						}
					}
				}
				s.vals = growValues(s.vals, n)
				if err := evalColumn(env, pi.prog, in, s.vals[:n]); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					oc.AppendValue(s.vals[i])
				}
			}
			out.rows += n
			return nil
		},
	})
	return nil
}

// appendIDs appends id() of the vertex at each of n logical rows (physical
// row sel[i], or i when sel is nil) of a typed vertex payload to dst: the
// external ID when the store serves grin.Index, looked up once here, and the
// internal ID otherwise — what Bound.Eval returns for id(v), row for row.
func appendIDs(g grin.Graph, vids []int64, sel []int32, n int, dst *column.Column) {
	idx, ok := grin.AsIndex(g)
	for i := 0; i < n; i++ {
		p := i
		if sel != nil {
			p = int(sel[i])
		}
		id := vids[p]
		if ok {
			id = idx.ExternalID(graph.VID(id))
		}
		dst.AppendInt(id)
	}
}

// compileOrderBy sorts the gathered rows. With Limit > 0 (ORDER BY ... LIMIT
// folded by the parser) it selects the top k via a bounded heap — O(n log k)
// — instead of sorting everything. Ties keep input order (stable), so the
// heap selection is row-for-row identical to a stable full sort.
//
// A key that is a bare reference to a typed, null-free column of kind int,
// vertex, edge or string is compared on its raw payload at physical rows.
// Every other key — float, bool, NULL-carrying or boxed columns, and computed
// expressions — is evaluated boxed, column-at-a-time (an alias.prop key
// gathers through the batch-property trait), and compared with
// Value.Compare, which orders the typed kinds the same way. Both kinds of key
// feed one comparator, so the top-k heap, the (keys, input position) total
// order, the final sort and the typed gather of the permutation are shared.
func (c *Compiled) compileOrderBy(op *ir.Op) error {
	if len(op.Keys) == 0 {
		return fmt.Errorf("ORDER with no sort keys")
	}
	if op.Limit < 0 {
		return fmt.Errorf("ORDER with negative limit %d", op.Limit)
	}
	width := c.numCols
	o := &orderBy{keys: op.Keys, limit: op.Limit, kinds: c.kindsSnapshot(),
		progs: make([]*expr.Bound, len(op.Keys)), cols: make([]int, len(op.Keys))}
	for j, k := range op.Keys {
		var err error
		if o.progs[j], err = c.bind(c.Cols, k.Expr); err != nil {
			return err
		}
		o.cols[j] = -1
		if col, prop, ok := o.progs[j].PropRef(); ok && prop == "" {
			o.cols[j] = col
		}
	}
	c.Stages = append(c.Stages, Stage{
		Name:    "ORDER",
		InWidth: width, OutWidth: width,
		OutKinds: o.kinds,
		Blocking: o.run,
	})
	return nil
}

// orderBy is one compiled ORDER.
type orderBy struct {
	keys  []ir.SortKey
	progs []*expr.Bound // bound key expressions
	cols  []int         // bare-ref key column, or -1
	limit int
	kinds []graph.Kind
}

// run sorts in, or selects its top limit rows, into a new batch.
func (o *orderBy) run(env *Env, in *Batch) (*Batch, error) {
	s := &env.Arena.order
	defer s.release()
	n := in.Len()
	s.sel = in.Sel()
	s.keys = s.keys[:0]
	boxed := 0
	for j, k := range o.keys {
		key := orderKey{desc: k.Desc}
		if o.cols[j] < 0 || !key.typed(in.Col(o.cols[j])) {
			boxed++
		}
		s.keys = append(s.keys, key)
	}
	s.keyVals = growValues(s.keyVals, boxed*n)
	off := 0
	for j := range s.keys {
		if key := &s.keys[j]; key.cmp == cmpBoxed {
			key.vals = s.keyVals[off : off+n]
			off += n
			if err := evalColumn(env, o.progs[j], in, key.vals); err != nil {
				return nil, err
			}
		}
	}
	s.idx = s.idx[:0]
	for i := 0; i < n; i++ {
		s.idx = append(s.idx, i)
	}
	idx := s.idx
	if k := o.limit; k > 0 && k < n {
		// Bounded top-k: max-heap (worst kept row at the root) of size k
		// over the total order.
		h := idx[:k]
		for i := k/2 - 1; i >= 0; i-- {
			s.siftDown(h, i)
		}
		for i := k; i < n; i++ {
			if s.less(i, h[0]) {
				h[0] = i
				s.siftDown(h, 0)
			}
		}
		idx = h
	}
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case a == b:
			return 0
		case s.less(a, b):
			return -1
		}
		return 1
	})
	// Materialize the permutation with one typed gather per column.
	s.physIdx = s.physIdx[:0]
	for _, ix := range idx {
		s.physIdx = append(s.physIdx, int32(in.physRow(ix)))
	}
	out := NewBatchKinds(o.kinds, 0)
	for c := range out.cols {
		out.cols[c].appendRows(&in.cols[c], s.physIdx)
	}
	out.rows = len(s.physIdx)
	return out, nil
}

// orderScratch is ORDER's arena scratch: each key's comparison source, the
// boxed values of the keys compared boxed, the permutation being sorted and
// its physical rows.
type orderScratch struct {
	keys    []orderKey
	sel     []int32 // the input's selection: keys' typed payloads are read at sel[i]
	keyVals []graph.Value
	idx     []int
	physIdx []int32
}

// Comparison sources of one ORDER key.
const (
	cmpBoxed  = iota // vals, by logical row, under Value.Compare
	cmpInts          // ints, by physical row
	cmpString        // strs, by physical row
)

// orderKey is one sort key's comparison source.
type orderKey struct {
	cmp  uint8
	desc bool
	ints []int64
	strs []string
	vals []graph.Value
}

// typed points k at v's raw payload when v is a typed, null-free vector of a
// kind whose payload orders exactly as Value.Compare orders its values: int,
// vertex, edge (int64 order) or string (byte order). It reports whether it
// did; k is left boxed otherwise.
func (k *orderKey) typed(v *Vec) bool {
	t := v.Typed()
	switch {
	case t == nil || t.HasNulls():
		return false
	case intFamilyKind(t.Kind()):
		k.cmp, k.ints = cmpInts, t.RawInts()
	case t.Kind() == graph.KindString:
		k.cmp, k.strs = cmpString, t.Strings()
	default:
		return false
	}
	return true
}

// less is the ORDER total order over logical rows a and b: the keys in turn,
// then input position.
func (s *orderScratch) less(a, b int) bool {
	pa, pb := a, b
	if s.sel != nil {
		pa, pb = int(s.sel[a]), int(s.sel[b])
	}
	for i := range s.keys {
		k := &s.keys[i]
		var c int
		switch k.cmp {
		case cmpInts:
			c = cmp.Compare(k.ints[pa], k.ints[pb])
		case cmpString:
			c = strings.Compare(k.strs[pa], k.strs[pb])
		default:
			c = k.vals[a].Compare(k.vals[b])
		}
		if c != 0 {
			return c < 0 != k.desc
		}
	}
	return a < b
}

// release drops the references run took to its input's payloads, so an
// idle arena does not keep a finished query's barrier batch alive.
func (s *orderScratch) release() {
	for i := range s.keys {
		k := &s.keys[i]
		k.ints, k.strs, k.vals = nil, nil, nil
	}
	s.sel = nil
}

// siftDown restores the max-heap property of h below position i.
func (s *orderScratch) siftDown(h []int, i int) {
	for {
		l, r, top := 2*i+1, 2*i+2, i
		if l < len(h) && s.less(h[top], h[l]) {
			top = l
		}
		if r < len(h) && s.less(h[top], h[r]) {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// groupAccum is one group's running aggregate state (the generic path).
type groupAccum struct {
	keys   []graph.Value
	count  []int64
	sum    []float64
	min    []graph.Value
	max    []graph.Value
	coll   [][]graph.Value
	seenIn []bool
}

// intFamilyKind reports whether a typed column of this kind stores its
// payload in the shared int64 array (RawInts). Bool columns keep their own
// []bool payload, so a bool key takes the generic path.
func intFamilyKind(k graph.Kind) bool {
	switch k {
	case graph.KindInt, graph.KindVertex, graph.KindEdge:
		return true
	}
	return false
}

// intFamilyValue boxes one int-family payload back to its kind.
func intFamilyValue(k graph.Kind, v int64) graph.Value {
	switch k {
	case graph.KindVertex:
		return graph.VertexValue(graph.VID(v))
	case graph.KindEdge:
		return graph.EdgeValue(graph.EID(v))
	}
	return graph.IntValue(v)
}

// compileGroupBy hash-aggregates the gathered rows. Groups are emitted in
// first-appearance order, which is deterministic because every driver
// delivers rows to the barrier in serial plan order.
//
// A GROUP with no key or one bare key column, whose aggregates are all
// count/sum/avg over nothing (COUNT(*)), a bare column, or alias.prop over a
// vertex or edge column whose property kind the schema knows (int or float
// for sum/avg), runs typed (groupTyped): the index numbers the raw int-family
// key payload and the aggregates accumulate straight off payload arrays, no
// value boxed per row. An alias.prop argument is first gathered for the whole
// input into a typed column, through PROJECT's gather
// (grin.GatherVertexPropCol/GatherEdgePropCol, else GatherVertexProp/
// GatherEdgeProp), instead of one scalar store read per row. Sums add float64
// in row order either way, so sum and avg are bit-identical to the generic
// fold's.
//
// At run time the typed fold needs a typed, null-free key of kind int, vertex
// or edge; typed int weights; typed aggregate columns (int or float under
// sum/avg); and for alias.prop a typed, null-free element column and a store
// whose values have the declared kind. Any batch that misses one — and any
// GROUP with another key, another aggregate (min, max, collect) or a computed
// argument — takes the generic path: keys are hashed graph.Values (FNV over
// value bytes) with collision buckets checked by Equal, and arguments are
// evaluated row by row; it is the reference, and reports every error.
//
// With op.CountWeight set (the GROUP consumes an EXPAND_DEGREE) every input
// row stands for that column's number of rows: the aggregates — all COUNT(*)
// then — add the weight instead of 1, on both paths, and stay KindInt. A
// GROUP with no keys is a global aggregate and yields exactly one row, over
// empty input too (COUNT 0, SUM 0, AVG/MIN/MAX NULL, COLLECT []).
//
// A typed GROUP whose aggregates are all COUNT(*) or COUNT of a bare column,
// over no key or one key of an int-family compile-time kind, that follows a
// pipeline stage compiles to two stages: GROUP(partial), a Map at the end of
// the segment that runs the typed fold per morsel, and the barrier GROUP,
// which sums those partial counts.
// Drivers deliver morsels to the barrier in morsel-sequence order, so first
// appearance across partial rows is first appearance across input rows, and
// int64 sums are exact: the result is row-for-row the unsplit fold's.
func (c *Compiled) compileGroupBy(op *ir.Op) error {
	inCols := c.snapshotCols()
	inKinds := c.kindsSnapshot()
	inLabels := append([]graph.LabelID(nil), c.labels...)
	inWidth := c.numCols
	gkeys := op.GroupKeys
	aggs := op.Aggs
	if len(gkeys)+len(aggs) == 0 {
		return fmt.Errorf("GROUP with no keys and no aggregates")
	}
	if op.CountWeight != c.weight {
		return fmt.Errorf("GROUP weight %q, but the pending EXPAND_DEGREE column is %q", op.CountWeight, c.weight)
	}
	wCol := -1
	if c.weight != "" {
		wCol = inCols[c.weight]
		for _, a := range aggs {
			if a.Fn != "count" || a.Arg != nil {
				return fmt.Errorf("weighted GROUP supports COUNT(*) only, got %s(%s) AS %s", a.Fn, a.Arg, a.Alias)
			}
		}
		c.weight = ""
	}
	c.resetCols()
	f := &groupFold{
		aggs:     aggs,
		keyProgs: make([]*expr.Bound, len(gkeys)),
		keyCols:  make([]int, len(gkeys)),
		keyIdx:   make([]int, len(gkeys)),
		aggProgs: make([]*expr.Bound, len(aggs)),
		aggCols:  make([]int, len(aggs)),
		aggProps: make([]aggProp, len(aggs)),
		wCols:    make([]int, len(aggs)),
		aggIdx:   make([]int, len(aggs)),
	}
	keyIdx, keyProgs, keyCols := f.keyIdx, f.keyProgs, f.keyCols
	for i, k := range gkeys {
		if _, dup := c.Cols[k.Alias]; dup {
			return fmt.Errorf("GROUP duplicate output alias %q", k.Alias)
		}
		var err error
		if keyProgs[i], err = c.bind(inCols, k.Expr); err != nil {
			return err
		}
		keyCols[i] = -1
		outKind, outLabel := graph.KindNil, graph.AnyLabel
		if col, prop, ok := keyProgs[i].PropRef(); ok {
			if prop == "" {
				keyCols[i] = col
				outKind, outLabel = inKinds[col], inLabels[col]
			} else if ek := inKinds[col]; ek == graph.KindVertex || ek == graph.KindEdge {
				if pk, ok := c.propKind(ek, inLabels[col], prop); ok {
					outKind = pk
				}
			}
		}
		keyIdx[i] = c.addColK(k.Alias, outKind, outLabel)
	}
	aggIdx, aggProgs, aggCols := f.aggIdx, f.aggProgs, f.aggCols
	for i, a := range aggs {
		if _, dup := c.Cols[a.Alias]; dup {
			return fmt.Errorf("GROUP aggregate alias %q collides with another output column (the columns would silently merge)", a.Alias)
		}
		outKind := graph.KindNil
		switch a.Fn {
		case "count":
			outKind = graph.KindInt
		case "sum", "avg":
			outKind = graph.KindFloat
		case "min", "max", "collect":
		default:
			return fmt.Errorf("unknown aggregate %q", a.Fn)
		}
		if a.Arg == nil && a.Fn != "count" {
			return fmt.Errorf("aggregate %s(%s) needs an argument", a.Fn, a.Alias)
		}
		aggCols[i] = -1
		if a.Arg != nil {
			var err error
			if aggProgs[i], err = c.bind(inCols, a.Arg); err != nil {
				return err
			}
			if col, prop, ok := aggProgs[i].PropRef(); ok {
				if prop == "" {
					aggCols[i] = col
				} else if ek := inKinds[col]; ek == graph.KindVertex || ek == graph.KindEdge {
					if pk, ok := c.propKind(ek, inLabels[col], prop); ok && pk != graph.KindNil {
						f.aggProps[i] = aggProp{col: col, name: prop, kind: pk}
					}
				}
			}
		}
		aggIdx[i] = c.addColK(a.Alias, outKind, graph.AnyLabel)
	}
	width := c.numCols
	f.outKinds = c.kindsSnapshot()
	for i := range f.wCols {
		f.wCols[i] = wCol
	}

	// Compile-time eligibility for the typed path — runtime adds the typed/
	// null-free column checks per batch — and for the split, which also needs
	// COUNT alone, of no property, and a key that is int-family already at
	// compile time.
	f.typed = len(gkeys) == 0 || (len(gkeys) == 1 && keyCols[0] >= 0)
	split := len(gkeys) == 0 || (f.typed && intFamilyKind(inKinds[keyCols[0]]))
	for i, a := range aggs {
		prop := f.aggProps[i].kind
		switch {
		case a.Fn == "count" && (a.Arg == nil || aggCols[i] >= 0):
		case a.Fn == "count" && prop != graph.KindNil:
			split = false
		case (a.Fn == "sum" || a.Fn == "avg") && (aggCols[i] >= 0 || prop == graph.KindInt || prop == graph.KindFloat):
			split = false
		default:
			f.typed, split = false, false
		}
	}

	if split && len(c.Stages) > 0 && c.Stages[len(c.Stages)-1].Blocking == nil {
		c.Stages = append(c.Stages, Stage{
			Name:    "GROUP(partial)",
			InWidth: inWidth, OutWidth: width,
			OutKinds: f.outKinds,
			Map:      f.runPartial,
		})
		f, inWidth = f.merge(), width
	}
	c.Stages = append(c.Stages, Stage{
		Name:    "GROUP",
		InWidth: inWidth, OutWidth: width,
		OutKinds: f.outKinds,
		Blocking: f.run,
	})
	return nil
}

// groupFold is one compiled GROUP fold: how each key and aggregate argument
// is read off an input row, which column weights each COUNT, and where the
// results land.
type groupFold struct {
	aggs     []ir.Aggregate
	keyProgs []*expr.Bound // bound key expressions, read when keyCols is -1
	keyCols  []int         // bare-ref key column, or -1
	keyIdx   []int         // output column of each key
	aggProgs []*expr.Bound // bound aggregate arguments, nil for COUNT(*)
	aggCols  []int         // bare-ref argument column, or -1
	aggProps []aggProp     // alias.prop argument groupTyped gathers; kind KindNil: none
	wCols    []int         // per aggregate: the int column a row's COUNT adds, or -1 (adds 1)
	aggIdx   []int         // output column of each aggregate
	outKinds []graph.Kind
	typed    bool // compile-time eligibility for groupTyped
}

// aggProp is an aggregate argument alias.prop over the element column col,
// with the property's kind in the schema.
type aggProp struct {
	col  int
	name string
	kind graph.Kind
}

// merge is the barrier half of a split fold. Its input rows are partial
// counts laid out like the output, so each key is read back from its output
// column and each COUNT adds its own partial-count column.
func (f *groupFold) merge() *groupFold {
	m := *f
	m.aggs = make([]ir.Aggregate, len(f.aggs))
	m.aggCols = make([]int, len(f.aggs))
	for i, a := range f.aggs {
		m.aggs[i] = ir.Aggregate{Fn: "count", Alias: a.Alias}
		m.aggCols[i] = -1
	}
	m.aggProgs = make([]*expr.Bound, len(f.aggs))
	m.wCols = f.aggIdx
	m.keyCols = f.keyIdx
	return &m
}

// runPartial is GROUP(partial): the typed fold of one morsel, appended to out
// as one row per group the morsel touched, in first-appearance order. A
// morsel the typed fold cannot read (a demoted or NULL key, a boxed weight or
// argument) passes through as one row per input row carrying that row's
// contribution to each COUNT: its weight, or 0 where COUNT(alias) sees NULL.
func (f *groupFold) runPartial(env *Env, in, out *Batch) error {
	if in.Len() == 0 || groupTyped(env, in, f, out) {
		return nil
	}
	for i := 0; i < in.Len(); i++ {
		r := in.physRow(i)
		for j, col := range f.keyCols {
			out.cols[f.keyIdx[j]].AppendValue(in.cols[col].Value(r))
		}
		for j, col := range f.aggCols {
			w := int64(0)
			if col < 0 || !in.cols[col].Value(r).IsNull() {
				w = 1
				if f.wCols[j] >= 0 {
					w = in.cols[f.wCols[j]].Value(r).Int()
				}
			}
			out.cols[f.aggIdx[j]].appendInt(w)
		}
	}
	out.rows += in.Len()
	return nil
}

// run folds the whole gathered input at the barrier.
func (f *groupFold) run(env *Env, in *Batch) (*Batch, error) {
	out := NewBatchKinds(f.outKinds, 0)
	if f.typed && groupTyped(env, in, f, out) {
		return out, nil
	}
	aggs, keyCols, keyProgs, aggProgs := f.aggs, f.keyCols, f.keyProgs, f.aggProgs
	benv := env.boundEnv()
	buckets := map[uint64][]*groupAccum{}
	var ordered []*groupAccum
	// Accumulator state is allocated once per distinct group, not per row.
	newGroup := func(kv []graph.Value) *groupAccum {
		g := &groupAccum{
			// kv is per-row scratch; the group retains a copy.
			keys:   append([]graph.Value(nil), kv...),
			count:  make([]int64, len(aggs)),
			sum:    make([]float64, len(aggs)),
			min:    make([]graph.Value, len(aggs)),
			max:    make([]graph.Value, len(aggs)),
			coll:   make([][]graph.Value, len(aggs)),
			seenIn: make([]bool, len(aggs)),
		}
		ordered = append(ordered, g)
		return g
	}
	kv := make([]graph.Value, len(keyCols)) // per-row scratch
	rowBuf := make([]graph.Value, in.Width())
	for i := 0; i < in.Len(); i++ {
		in.CopyRow(i, rowBuf)
		h := graph.HashSeed
		for j, col := range keyCols {
			if col >= 0 {
				kv[j] = rowBuf[col]
			} else {
				v, err := keyProgs[j].Eval(&benv, rowBuf)
				if err != nil {
					return nil, err
				}
				kv[j] = v
			}
			h = kv[j].Hash(h)
		}
		var g *groupAccum
		for _, cand := range buckets[h] {
			match := true
			for j := range kv {
				if !kv[j].Equal(cand.keys[j]) {
					match = false
					break
				}
			}
			if match {
				g = cand
				break
			}
		}
		if g == nil {
			g = newGroup(kv)
			buckets[h] = append(buckets[h], g)
		}
		for j, a := range aggs {
			var v graph.Value
			if aggProgs[j] != nil {
				var err error
				v, err = aggProgs[j].Eval(&benv, rowBuf)
				if err != nil {
					return nil, err
				}
			}
			switch a.Fn {
			case "count":
				if a.Arg == nil || !v.IsNull() {
					w := int64(1)
					if f.wCols[j] >= 0 {
						w = rowBuf[f.wCols[j]].Int()
					}
					g.count[j] += w
				}
			case "sum", "avg":
				g.count[j]++
				g.sum[j] += v.Float()
			case "min":
				if !g.seenIn[j] || v.Compare(g.min[j]) < 0 {
					g.min[j] = v
				}
			case "max":
				if !g.seenIn[j] || v.Compare(g.max[j]) > 0 {
					g.max[j] = v
				}
			case "collect":
				g.coll[j] = append(g.coll[j], v)
			}
			g.seenIn[j] = true
		}
	}
	if len(keyCols) == 0 && len(ordered) == 0 {
		newGroup(nil) // a global aggregate over no rows is still one row
	}
	rowVals := make([]graph.Value, len(f.outKinds))
	for _, g := range ordered {
		for j := range keyCols {
			rowVals[f.keyIdx[j]] = g.keys[j]
		}
		for j, a := range aggs {
			o := f.aggIdx[j]
			switch a.Fn {
			case "count":
				rowVals[o] = graph.IntValue(g.count[j])
			case "sum":
				rowVals[o] = graph.FloatValue(g.sum[j])
			case "avg":
				if g.count[j] == 0 {
					rowVals[o] = graph.NullValue
				} else {
					rowVals[o] = graph.FloatValue(g.sum[j] / float64(g.count[j]))
				}
			case "min":
				rowVals[o] = g.min[j]
			case "max":
				rowVals[o] = g.max[j]
			case "collect":
				rowVals[o] = graph.ListValue(g.coll[j])
			}
		}
		out.AppendRow(rowVals)
	}
	return out, nil
}

// groupTyped is the monomorphic aggregation loop, GROUP(partial)'s per
// morsel and the barrier's over its whole input: no key or one int-family
// key column, count/sum/avg aggregates over typed columns — bare ones, or
// alias.prop arguments it gathers first — each COUNT weighted by its int
// column in f.wCols when that is >= 0. It appends one row per group, in
// first-appearance order, to out — one row for a global fold, over no input
// too. It returns false, out untouched, when the batch's runtime column
// layout does not meet the preconditions (demoted or null-carrying key or
// weight, boxed aggregate argument, a gather that failed or met a value of
// another kind), sending the caller to its fallback. All state lives in the
// arena's group scratch, so a warm arena folds without allocating.
func groupTyped(env *Env, in *Batch, f *groupFold, out *Batch) bool {
	s := &env.Arena.group
	var keys []int64
	kk, keyed := graph.KindNil, len(f.keyCols) == 1
	if keyed {
		kt := in.Col(f.keyCols[0]).Typed()
		if kt == nil || kt.HasNulls() || !intFamilyKind(kt.Kind()) {
			return false
		}
		keys, kk = kt.RawInts(), kt.Kind()
	}
	s.aggs = s.aggs[:0]
	for j, a := range f.aggs {
		ai := aggIn{sum: a.Fn != "count"}
		if w := f.wCols[j]; w >= 0 {
			wt := in.Col(w).Typed()
			if wt == nil || wt.HasNulls() || wt.Kind() != graph.KindInt {
				return false
			}
			ai.weights = wt.RawInts()
		}
		if pa := &f.aggProps[j]; pa.kind != graph.KindNil {
			if ai.col = s.gather(env.Graph, &env.Arena.gather, in, j, pa); ai.col == nil {
				return false
			}
		} else if c := f.aggCols[j]; c >= 0 {
			if ai.col = in.Col(c).Typed(); ai.col == nil {
				return false
			}
		}
		if ai.col != nil && ai.sum {
			switch ai.col.Kind() {
			case graph.KindInt:
				ai.ints = ai.col.RawInts()
			case graph.KindFloat:
				ai.floats = ai.col.Floats()
			default:
				return false
			}
		}
		s.aggs = append(s.aggs, ai)
	}

	n, sel, na := in.Len(), in.Sel(), len(f.aggs)
	s.counts, s.sums = s.counts[:0], s.sums[:0]
	if keyed {
		s.index.reset(n)
	} else {
		s.addGroup(na) // a global fold is one group
	}
	g := 0
	for i := 0; i < n; i++ {
		p := i
		if sel != nil {
			p = int(sel[i])
		}
		if keyed {
			var added bool
			if g, added = s.index.group(keys[p]); added {
				s.addGroup(na)
			}
		}
		counts, sums := s.counts[g*na:g*na+na], s.sums[g*na:g*na+na]
		for j := range s.aggs {
			a := &s.aggs[j]
			if !a.sum {
				if a.col == nil || !a.col.NullAt(p) {
					if a.weights != nil {
						counts[j] += a.weights[p]
					} else {
						counts[j]++
					}
				}
				continue
			}
			// NULL payload slots read as zero, matching boxed Value.Float()
			// of NULL; the count still advances, exactly like the generic
			// accumulator.
			counts[j]++
			if !a.col.NullAt(p) {
				if a.ints != nil {
					sums[j] += float64(a.ints[p])
				} else {
					sums[j] += a.floats[p]
				}
			}
		}
	}

	groups := 1
	if keyed {
		groups = len(s.index.keys)
		kc := out.Col(f.keyIdx[0])
		for _, k := range s.index.keys {
			kc.appendIntFamily(kk, k)
		}
	}
	for j, a := range f.aggs {
		oc := out.Col(f.aggIdx[j])
		for gi := 0; gi < groups; gi++ {
			c, sum := s.counts[gi*na+j], s.sums[gi*na+j]
			switch {
			case a.Fn == "count":
				oc.appendInt(c)
			case a.Fn == "sum":
				oc.AppendValue(graph.FloatValue(sum))
			case c == 0: // avg of nothing
				oc.appendNull()
			default:
				oc.AppendValue(graph.FloatValue(sum / float64(c)))
			}
		}
	}
	out.rows += groups
	return true
}

// groupScratch is groupTyped's arena scratch. GROUP(partial) uses it per
// morsel and the barrier GROUP per run; the two are never live at once on
// one arena.
type groupScratch struct {
	index  intGroups
	aggs   []aggIn
	counts []int64         // per group, one count per aggregate (group-major)
	sums   []float64       // likewise, the sums of sum/avg
	props  []column.Column // per aggregate, its gathered property argument
}

// aggIn is one aggregate's typed input columns.
type aggIn struct {
	sum     bool // sum or avg; else COUNT
	ints    []int64
	floats  []float64
	col     *column.Column // the argument; nil for COUNT(*)
	weights []int64        // COUNT's weight column; nil counts 1 per row
}

// gather reads aggregate j's alias.prop argument at every physical row of in
// into the aggregate's scratch column, typed as the schema declares it:
// through PROJECT's gather (gatherCol), or on a store that does not serve it,
// grin.GatherVertexProp/GatherEdgeProp appended value by value; gs holds the
// element IDs and boxed values. It returns nil — the caller's cue for the
// generic fold, which reads row by row and reports any error in its own
// words — unless the element column is a typed, null-free vertex or edge
// column and every value has the declared kind.
func (s *groupScratch) gather(g grin.Graph, gs *gatherScratch, in *Batch, j int, pa *aggProp) *column.Column {
	et := in.Col(pa.col).Typed()
	if et == nil || et.HasNulls() || (et.Kind() != graph.KindVertex && et.Kind() != graph.KindEdge) {
		return nil
	}
	for len(s.props) <= j {
		s.props = append(s.props, column.Column{})
	}
	dst := &s.props[j]
	dst.Reset(pa.kind)
	n := et.Len()
	if gatherCol(g, gs, et.Kind(), et.RawInts(), nil, n, pa.name, dst) {
		return dst
	}
	gs.vals = growValues(gs.vals, n)
	var err error
	if et.Kind() == graph.KindVertex {
		err = grin.GatherVertexProp(g, gs.vids, pa.name, gs.vals)
	} else {
		err = grin.GatherEdgeProp(g, gs.eids, pa.name, gs.vals)
	}
	if err != nil {
		return nil
	}
	for _, v := range gs.vals {
		if dst.Append(v) != nil {
			return nil
		}
	}
	return dst
}

// addGroup appends one group's zeroed counters.
func (s *groupScratch) addGroup(na int) {
	for range na {
		s.counts = append(s.counts, 0)
		s.sums = append(s.sums, 0)
	}
}

// intGroups numbers int64 keys densely in first-appearance order: open
// addressing (Fibonacci hashing, linear probing) over a table sized for the
// input at hand. reset frees only the slots the previous use filled, so it
// costs that use's group count — never the size of the largest input the
// arena has seen — and it also cleans up after a use a panic cut short.
type intGroups struct {
	slots []int32 // group index + 1 per slot; 0 = free
	used  []int32 // the slots filled since the last reset
	keys  []int64 // group keys in first-appearance order
	shift uint
	mask  int
}

// reset empties the index and sizes it for up to n keys, at most half full.
func (t *intGroups) reset(n int) {
	for _, h := range t.used {
		t.slots[h] = 0
	}
	t.used, t.keys = t.used[:0], t.keys[:0]
	b := bits.Len(uint(2*max(n, 1) - 1))
	if len(t.slots) < 1<<b {
		t.slots = make([]int32, 1<<b)
	}
	t.shift, t.mask = uint(64-b), 1<<b-1
}

// group returns k's group index, adding a group on k's first appearance.
func (t *intGroups) group(k int64) (g int, added bool) {
	h := int(uint64(k) * 0x9E3779B97F4A7C15 >> t.shift)
	for {
		switch e := t.slots[h]; {
		case e == 0:
			t.slots[h] = int32(len(t.keys) + 1)
			t.used = append(t.used, int32(h))
			t.keys = append(t.keys, k)
			return len(t.keys) - 1, true
		case t.keys[e-1] == k:
			return int(e - 1), false
		}
		h = (h + 1) & t.mask
	}
}

// compileDedup removes duplicates over the key aliases, keeping the first
// occurrence. Keys are hashed graph.Values with Equal-checked collision
// buckets, like GROUP; surviving rows materialize with one typed gather per
// column.
func (c *Compiled) compileDedup(op *ir.Op) error {
	width := c.numCols
	kinds := c.kindsSnapshot()
	aliases := op.DedupAliases
	if len(aliases) == 0 {
		return fmt.Errorf("DEDUP with no key aliases collapses the stream to one row")
	}
	idxs := make([]int, len(aliases))
	for i, a := range aliases {
		idx, ok := c.Cols[a]
		if !ok {
			return fmt.Errorf("DEDUP on unbound alias %q", a)
		}
		idxs[i] = idx
	}
	c.Stages = append(c.Stages, Stage{
		Name:    "DEDUP",
		InWidth: width, OutWidth: width,
		OutKinds: kinds,
		Blocking: func(env *Env, in *Batch) (*Batch, error) {
			seen := map[uint64][][]graph.Value{}
			var kept []int32
			kv := make([]graph.Value, len(idxs)) // per-row scratch
			for i := 0; i < in.Len(); i++ {
				h := graph.HashSeed
				for j, ix := range idxs {
					kv[j] = in.Value(i, ix)
					h = kv[j].Hash(h)
				}
				dup := false
				for _, cand := range seen[h] {
					match := true
					for j := range idxs {
						if !kv[j].Equal(cand[j]) {
							match = false
							break
						}
					}
					if match {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				// The set retains a copy per distinct row: views into in's
				// columns would dangle across batches.
				key := append([]graph.Value(nil), kv...)
				seen[h] = append(seen[h], key)
				kept = append(kept, int32(in.physRow(i)))
			}
			out := NewBatchKinds(kinds, 0)
			for c := range out.cols {
				out.cols[c].appendRows(&in.cols[c], kept)
			}
			out.rows = len(kept)
			return out, nil
		},
	})
	return nil
}

// compileMatch interprets a declarative pattern without optimization: the
// naive baseline's execution of MATCH in written order — full label scan of
// the first source, nested-loop expansion per pattern edge, adjacency
// verification when both endpoints are already bound. The optimizer never
// emits OpMatch in physical plans; only the naive engine reaches this path.
func (c *Compiled) compileMatch(op *ir.Op, first bool) error {
	if !first {
		// Pattern continuation on bound rows (e.g. the second MATCH of a
		// multi-MATCH Cypher query): expand from the already-bound aliases.
		return c.compileMatchContinuation(op)
	}
	pattern := op.Pattern
	if len(pattern) == 0 {
		return fmt.Errorf("empty MATCH pattern")
	}
	// Bind the first source via full scan.
	start := pattern[0].SrcAlias
	idx0 := c.addColK(start, graph.KindVertex, pattern[0].SrcLabel)
	c.labelFilter(pattern[0].SrcLabel)
	c.Stages = append(c.Stages, c.labelScanStage("MATCH_SCAN("+start+")", idx0, pattern[0].SrcLabel, nil))
	return c.appendPatternEdges(pattern)
}

func (c *Compiled) compileMatchContinuation(op *ir.Op) error {
	if len(op.Pattern) == 0 {
		return fmt.Errorf("empty MATCH pattern")
	}
	if _, ok := c.Cols[op.Pattern[0].SrcAlias]; !ok {
		return fmt.Errorf("MATCH continuation from unbound alias %q", op.Pattern[0].SrcAlias)
	}
	return c.appendPatternEdges(op.Pattern)
}

// appendPatternEdges lowers pattern edges in written order.
func (c *Compiled) appendPatternEdges(pattern []ir.PatternEdge) error {
	bound := map[string]bool{}
	//lint:allow determinism populates a set; membership is order-independent
	for a := range c.Cols {
		bound[a] = true
	}
	for _, pe := range pattern {
		srcBound, dstBound := bound[pe.SrcAlias], bound[pe.DstAlias]
		switch {
		case srcBound && !dstBound:
			if err := c.compileExpandFused(&ir.Op{
				Kind: ir.OpExpandFused, FromAlias: pe.SrcAlias, EdgeLabel: pe.EdgeLabel,
				Dir: pe.Dir, Alias: pe.DstAlias, Label: pe.DstLabel, EdgeAlias: pe.EdgeAlias,
			}); err != nil {
				return err
			}
			bound[pe.DstAlias] = true
		case !srcBound && dstBound:
			if err := c.compileExpandFused(&ir.Op{
				Kind: ir.OpExpandFused, FromAlias: pe.DstAlias, EdgeLabel: pe.EdgeLabel,
				Dir: pe.Dir.Reverse(), Alias: pe.SrcAlias, Label: pe.SrcLabel, EdgeAlias: pe.EdgeAlias,
			}); err != nil {
				return err
			}
			bound[pe.SrcAlias] = true
		case srcBound && dstBound:
			if err := c.compileAdjacencyCheck(pe); err != nil {
				return err
			}
		default:
			return fmt.Errorf("disconnected pattern edge %s-%s", pe.SrcAlias, pe.DstAlias)
		}
	}
	return nil
}

// compileAdjacencyCheck verifies an edge between two bound vertices.
func (c *Compiled) compileAdjacencyCheck(pe ir.PatternEdge) error {
	srcIdx, ok := c.Cols[pe.SrcAlias]
	if !ok {
		return fmt.Errorf("unbound %q", pe.SrcAlias)
	}
	dstIdx, ok := c.Cols[pe.DstAlias]
	if !ok {
		return fmt.Errorf("unbound %q", pe.DstAlias)
	}
	inWidth := c.numCols
	eIdx := -1
	if pe.EdgeAlias != "" {
		eIdx = c.addColK(pe.EdgeAlias, graph.KindEdge, pe.EdgeLabel)
	}
	h := c.hop(pe.EdgeLabel, pe.Dir, graph.AnyLabel)
	width := c.numCols
	// Without an edge alias existence is enough; with one, every matching
	// parallel edge is emitted.
	x := &expansion{sid: len(c.Stages), from: srcIdx, hop: h,
		dst: dstIdx, first: eIdx < 0, vIdx: -1, eIdx: eIdx, degIdx: -1}
	c.Stages = append(c.Stages, Stage{
		Name:    "ADJ_CHECK(" + pe.SrcAlias + "," + pe.DstAlias + ")",
		InWidth: inWidth, OutWidth: width,
		OutKinds: c.kindsSnapshot(),
		// Batched verification: expand the src column, then probe each
		// row's slot range for its dst endpoint.
		Map: x.runMap,
	})
	return nil
}

// MorselRows is the parallelism granule for a batch size: input batches are
// split into morsels of this many rows before entering a pipeline segment,
// so a small source still spreads across Gaia's workers — and, because the
// serial driver splits identically, both drivers evaluate the stream in the
// same units, which makes LIMIT-vs-error races resolve the same way
// everywhere.
func MorselRows(batchSize int) int {
	m := batchSize / 16
	if m < 1 {
		m = 1
	}
	return m
}

// Feed is the one morsel authority of a pipeline segment: Drive builds one
// per segment, over the segment's source or over the previous barrier's
// output, and every driver reads morsels only through Next. A source fills
// one BatchSize batch at a time and the Feed cuts MorselRows-row morsels from
// it, so the store calls a source makes and the batches it counts are the
// same at any parallelism, and every driver evaluates the stream in the same
// units. A Feed is not safe for concurrent use; parallel drivers claim
// morsels under a lock.
type Feed struct {
	src    *Stage       // nil when in is a barrier's output
	kinds  []graph.Kind // src's output layout
	in     *Batch       // the source's current batch, or the barrier output
	at     graph.VID    // the source's scan position
	done   bool         // the source is exhausted or failed
	lo     int          // first row of in not yet handed out
	fill   int          // rows per source fill
	morsel int          // rows per morsel
	seq    int          // sequence number of the next morsel
}

// Next claims the segment's next morsel for the goroutine running with env
// and returns it with its sequence number; ok is false once the input is
// exhausted. A source morsel is a copy in env's arena, because the source
// refills its batch while other goroutines may still read earlier morsels; a
// barrier chunk is a view of the barrier output, which nothing writes during
// the segment. Either stays valid until the goroutine's next Next. A source
// error comes back with the sequence number the failed morsel would have had.
func (f *Feed) Next(env *Env) (b *Batch, seq int, ok bool, err error) {
	for f.lo == f.in.Len() {
		if f.src == nil || f.done {
			return nil, f.seq, false, nil
		}
		f.in.Reset()
		f.lo = 0
		if f.done, err = f.src.RunSource(env, &f.at, f.fill, f.in); err != nil {
			f.done = true
			f.in.Reset()
			return nil, f.seq, false, err
		}
	}
	a := env.Arena
	hi := min(f.lo+f.morsel, f.in.Len())
	f.in.viewOf(&a.chunk, f.lo, hi)
	b = &a.chunk
	if f.src != nil {
		a.morsel.reshape(f.kinds)
		a.morsel.AppendBatch(b)
		b = &a.morsel
	}
	f.lo = hi
	f.seq++
	return b, f.seq - 1, true, nil
}

// StageBuffers draws the stage-buffer table RunMorsel needs from env's arena:
// one reusable output batch per Map stage of seg except the last, whose
// destination the caller chooses (slot last; -1 when seg has no Map stage).
// Filter stages need no buffer — they narrow whatever batch is current in
// place.
func StageBuffers(env *Env, seg []Stage) (bufs []*Batch, last int) {
	bufs = env.Arena.stageBufs(len(seg))
	last = -1
	for k := range seg {
		if seg[k].Map == nil {
			continue
		}
		if last >= 0 { // seg[last] is an intermediate Map stage after all
			bufs[last] = env.Arena.batch(seg[last].OutLayout())
		}
		last = k
	}
	return bufs, last
}

// RunMorsel runs one morsel through seg on the calling goroutine and returns
// the batch holding its output: the last Map stage's buffer, or b itself —
// narrowed by a selection — when only filters ran. It is the one place stages
// are invoked from, for every driver: the once-per-morsel lifecycle check
// (deadline, cancellation, row budget) comes first, Map stage k writes into
// bufs[k] (emptied here), Filter stages install selection vectors in place,
// and the Run* guards turn an operator or storage panic into a typed error
// that fails this query only.
func RunMorsel(env *Env, seg []Stage, bufs []*Batch, b *Batch) (*Batch, error) {
	if err := env.ChargeRows(b.Len()); err != nil {
		return nil, err
	}
	cur := b
	for k := range seg {
		if seg[k].Filter != nil {
			if err := seg[k].RunFilter(env, cur); err != nil {
				return nil, err
			}
			continue
		}
		buf := bufs[k]
		buf.Reset()
		if err := seg[k].RunMap(env, cur, buf); err != nil {
			return nil, err
		}
		cur = buf
	}
	return cur, nil
}

// RunSegmentSerial drives one pipeline segment to completion on the calling
// goroutine: every morsel feed hands out runs through seg, and the output
// gathers into acc — AppendBatch compacts whatever selection the trailing
// filters installed. When stopAfter > 0 (a LIMIT follows the segment) it
// claims no morsel once acc holds that many rows.
func RunSegmentSerial(env *Env, seg []Stage, feed *Feed, acc *Batch, stopAfter int) (*Batch, error) {
	bufs, last := StageBuffers(env, seg)
	if last >= 0 {
		bufs[last] = env.Arena.batch(seg[last].OutLayout())
	}
	for stopAfter <= 0 || acc.Len() < stopAfter {
		b, _, ok, err := feed.Next(env)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		cur, err := RunMorsel(env, seg, bufs, b)
		if err != nil {
			return nil, err
		}
		acc.AppendBatch(cur)
	}
	return acc, nil
}

// runSegmentSerial is the serial SegmentRunner: the accumulator, like every
// other buffer, comes from the arena of the goroutine running the query.
func runSegmentSerial(env *Env, seg []Stage, feed *Feed, kinds []graph.Kind, stopAfter int) (*Batch, error) {
	return RunSegmentSerial(env, seg, feed, env.Arena.batch(kinds), stopAfter)
}

// SegmentRunner executes one pipeline segment: the morsels of feed through a
// run of Map/Filter stages, gathering output with the given column layout.
// When stopAfter > 0 the runner may stop claiming morsels once the in-order
// output prefix holds that many rows.
type SegmentRunner func(env *Env, seg []Stage, feed *Feed, kinds []graph.Kind, stopAfter int) (*Batch, error)

// Drive walks the compiled plan, cutting it into pipeline segments (the
// source, or the previous barrier's output, feeding a run of Map/Filter
// stages) and barriers, delegating segment execution to run. It is the single
// segmentation authority, shared by the serial driver and Gaia, and builds
// each segment's Feed — in the arena of the goroutine calling it — so both
// evaluate the row stream in identical morsels.
//
// ctx is the query's lifecycle authority: Drive binds it into env, every
// driver checks it once per morsel, and a fired deadline or cancellation
// surfaces as ErrDeadlineExceeded/ErrCanceled. Stage callbacks run behind
// the Run* panic guards, so an operator or storage-trait panic fails this
// query with a typed *PanicError instead of killing the process.
func (c *Compiled) Drive(ctx context.Context, env *Env, run SegmentRunner) (*Batch, error) {
	stages := c.Stages
	if len(stages) == 0 || stages[0].Source == nil {
		return nil, fmt.Errorf("exec: plan has no source")
	}
	env.bind(ctx)
	if env.Arena == nil {
		// A caller that runs one query (naive, tests) gets a fresh arena per
		// run; owners of long-lived goroutines install their own.
		env.Arena = new(Arena)
	}
	if obs := env.Obs; obs != nil {
		obs.Bind(c.StageNames())
	}
	morsel := MorselRows(env.EffectiveBatchSize())
	var acc *Batch
	i := 0
	for i < len(stages) {
		if err := env.Alive(); err != nil {
			return nil, err
		}
		st := stages[i]
		switch {
		case st.Source != nil || st.Map != nil || st.Filter != nil:
			j := i
			if st.Source != nil {
				j++
			}
			for j < len(stages) && (stages[j].Map != nil || stages[j].Filter != nil) {
				j++
			}
			stopAfter := 0
			if j < len(stages) {
				stopAfter = stages[j].LimitHint
			}
			seg := stages[i:j]
			kinds := st.OutLayout()
			feed := &env.Arena.feed
			if st.Source != nil {
				seg = stages[i+1 : j]
				*feed = Feed{src: &stages[i], kinds: kinds, in: env.Arena.batch(kinds), fill: env.EffectiveBatchSize(), morsel: morsel}
			} else {
				*feed = Feed{in: acc, morsel: morsel}
			}
			if len(seg) > 0 {
				kinds = seg[len(seg)-1].OutLayout()
			}
			obs := env.Obs
			var t0 int64
			if obs != nil {
				obs.Segment()
				t0 = obsv.Now()
			}
			var err error
			acc, err = run(env, seg, feed, kinds, stopAfter)
			if obs != nil && st.Source != nil {
				obs.SourceDone(st.ID, st.Name, t0, err)
			}
			if err != nil {
				return nil, err
			}
			i = j
		case st.Blocking != nil:
			var err error
			acc, err = stages[i].RunBlocking(env, acc)
			if err != nil {
				return nil, err
			}
			i++
		default:
			return nil, fmt.Errorf("exec: stage %q has no behavior", st.Name)
		}
	}
	return acc, nil
}

// Run drives the compiled plan serially — the execution mode of the naive
// engine and of one HiActor actor — and materializes the result rows.
func (c *Compiled) Run(ctx context.Context, env *Env) ([]Row, error) {
	acc, err := c.Drive(ctx, env, runSegmentSerial)
	if err != nil {
		return nil, err
	}
	rows := acc.Rows()
	if obs := env.Obs; obs != nil {
		// Batch.Rows is the single sanctioned typed→boxed conversion; count
		// it at the pipeline edge rather than inside Batch.
		obs.BoxedRows(len(rows))
	}
	return rows, nil
}
