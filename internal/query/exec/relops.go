package exec

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/expr"
	"repro/internal/query/ir"
	"repro/internal/storage/column"
)

// projItem is one compiled PROJECT output column with its fast paths: a bare
// column reference copies the input vector wholesale, an alias.prop reference
// over a typed element column gathers the store column straight into the
// output vector, an int-arithmetic leaf runs a monomorphic map kernel, and
// everything else evaluates boxed column-at-a-time.
type projItem struct {
	out      int
	prog     *expr.Bound
	copyCol  int // >= 0: bare column copy
	gathCol  int // >= 0: alias.prop columnar-gather candidate
	gathProp string
	elemKind graph.Kind // vertex/edge kind of gathCol
	mapLeaf  expr.MapLeaf
	hasMap   bool
}

// compileProject replaces the row with computed columns.
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
		pi := projItem{prog: prog, copyCol: -1, gathCol: -1}
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
			// Column-at-a-time: each item is computed over the whole batch.
			// Every fast path has runtime preconditions (a typed, null-free
			// input vector; a store with the columnar gather trait; a kernel-
			// compatible argument) and falls back to the boxed evaluator when
			// they fail, so compile-time kind hints never change results.
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
					if t := in.Col(pi.gathCol).Typed(); t != nil && t.Kind() == pi.elemKind && !t.HasNulls() && oc.Typed() != nil {
						ints := t.RawInts()
						ok := false
						if pi.elemKind == graph.KindVertex {
							s.vids = growVIDs(s.vids, n)
							for i := 0; i < n; i++ {
								s.vids[i] = graph.VID(ints[in.physRow(i)])
							}
							ok = grin.GatherVertexPropCol(env.Graph, s.vids, pi.gathProp, oc.Typed())
						} else {
							s.eids = growEIDs(s.eids, n)
							for i := 0; i < n; i++ {
								s.eids[i] = graph.EID(ints[in.physRow(i)])
							}
							ok = grin.GatherEdgePropCol(env.Graph, s.eids, pi.gathProp, oc.Typed())
						}
						if ok {
							continue
						}
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

// compileOrderBy sorts the gathered rows. With Limit > 0 (ORDER BY ... LIMIT
// folded by the parser) it selects the top k via a bounded heap — O(n log k)
// — instead of sorting everything. Ties keep input order (stable), so the
// heap selection is row-for-row identical to a stable full sort.
func (c *Compiled) compileOrderBy(op *ir.Op) error {
	if len(op.Keys) == 0 {
		return fmt.Errorf("ORDER with no sort keys")
	}
	if op.Limit < 0 {
		return fmt.Errorf("ORDER with negative limit %d", op.Limit)
	}
	width := c.numCols
	kinds := c.kindsSnapshot()
	keys := op.Keys
	limit := op.Limit
	progs := make([]*expr.Bound, len(keys))
	for j, k := range keys {
		var err error
		if progs[j], err = c.bind(c.Cols, k.Expr); err != nil {
			return err
		}
	}
	c.Stages = append(c.Stages, Stage{
		Name:    "ORDER",
		InWidth: width, OutWidth: width,
		OutKinds: kinds,
		Blocking: func(env *Env, in *Batch) (*Batch, error) {
			n := in.Len()
			nk := len(keys)
			// Key columns are evaluated column-at-a-time (column-major
			// layout), so an alias.prop sort key gathers through the storage
			// batch-property trait in one call per key.
			keyVals := make([]graph.Value, n*nk)
			for j, p := range progs {
				if err := evalColumn(env, p, in, keyVals[j*n:(j+1)*n]); err != nil {
					return nil, err
				}
			}
			// less is a strict total order: sort keys, then input position,
			// making every comparison-based path below stable.
			less := func(a, b int) bool {
				for j := range keys {
					cmp := keyVals[j*n+a].Compare(keyVals[j*n+b])
					if cmp == 0 {
						continue
					}
					if keys[j].Desc {
						return cmp > 0
					}
					return cmp < 0
				}
				return a < b
			}
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			if limit > 0 && limit < n {
				// Bounded top-k: max-heap (worst kept row at the root) of
				// size limit over the total order.
				h := idx[:limit]
				siftDown := func(i int) {
					for {
						l, r, top := 2*i+1, 2*i+2, i
						if l < limit && less(h[top], h[l]) {
							top = l
						}
						if r < limit && less(h[top], h[r]) {
							top = r
						}
						if top == i {
							return
						}
						h[i], h[top] = h[top], h[i]
						i = top
					}
				}
				for i := limit/2 - 1; i >= 0; i-- {
					siftDown(i)
				}
				for i := limit; i < n; i++ {
					if less(i, h[0]) {
						h[0] = i
						siftDown(0)
					}
				}
				idx = h
			}
			sort.Slice(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
			// Materialize the permutation with one typed gather per column.
			physIdx := make([]int32, len(idx))
			for i, ix := range idx {
				physIdx[i] = int32(in.physRow(ix))
			}
			out := NewBatchKinds(kinds, 0)
			for c := range out.cols {
				out.cols[c].appendRows(&in.cols[c], physIdx)
			}
			out.rows = len(physIdx)
			return out, nil
		},
	})
	return nil
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
// payload in the shared int64 array (RawInts).
func intFamilyKind(k graph.Kind) bool {
	switch k {
	case graph.KindInt, graph.KindBool, graph.KindVertex, graph.KindEdge:
		return true
	}
	return false
}

// intFamilyValue boxes one int-family payload back to its kind.
func intFamilyValue(k graph.Kind, v int64) graph.Value {
	switch k {
	case graph.KindBool:
		return graph.BoolValue(v != 0)
	case graph.KindVertex:
		return graph.VertexValue(graph.VID(v))
	case graph.KindEdge:
		return graph.EdgeValue(graph.EID(v))
	}
	return graph.IntValue(v)
}

// compileGroupBy hash-aggregates the gathered rows. Group keys are hashed
// graph.Values (FNV over value bytes) with collision buckets checked by
// Equal — no per-row key-string allocation. Groups are emitted in
// first-appearance order, which is deterministic because every driver
// delivers rows to the barrier in serial plan order.
//
// The common single-key shape — one bare int-family key column with only
// count/sum/avg aggregates over bare columns — runs fully typed: the hash
// table is map[int64]group over the raw key payload (exact equality for a
// uniform kind) and the aggregates accumulate straight off the payload
// arrays, no value boxed per row. Everything else takes the generic boxed
// path.
//
// With op.CountWeight set (the GROUP consumes an EXPAND_DEGREE) every input
// row stands for that column's number of rows: the aggregates — all COUNT(*)
// then — add the weight instead of 1, on both paths, and stay KindInt. A
// GROUP with no keys is a global aggregate and yields exactly one row, over
// empty input too (COUNT 0, SUM 0, AVG/MIN/MAX NULL, COLLECT []).
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
	keyIdx := make([]int, len(gkeys))
	keyProgs := make([]*expr.Bound, len(gkeys))
	keyCols := make([]int, len(gkeys)) // bare-ref input column, or -1
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
	aggIdx := make([]int, len(aggs))
	aggProgs := make([]*expr.Bound, len(aggs))
	aggCols := make([]int, len(aggs)) // bare-ref input column, or -1
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
			if col, prop, ok := aggProgs[i].PropRef(); ok && prop == "" {
				aggCols[i] = col
			}
		}
		aggIdx[i] = c.addColK(a.Alias, outKind, graph.AnyLabel)
	}
	width := c.numCols
	outKinds := c.kindsSnapshot()

	// Compile-time eligibility for the typed path; runtime adds the typed/
	// null-free column checks per batch.
	typedOK := len(gkeys) == 1 && keyCols[0] >= 0
	if typedOK {
		for i, a := range aggs {
			switch a.Fn {
			case "count":
				if a.Arg != nil && aggCols[i] < 0 {
					typedOK = false
				}
			case "sum", "avg":
				if aggCols[i] < 0 {
					typedOK = false
				}
			default:
				typedOK = false
			}
		}
	}

	c.Stages = append(c.Stages, Stage{
		Name:    "GROUP",
		InWidth: inWidth, OutWidth: width,
		OutKinds: outKinds,
		Blocking: func(env *Env, in *Batch) (*Batch, error) {
			if typedOK {
				if out, ok := groupTyped(in, aggs, keyCols[0], keyIdx[0], aggCols, aggIdx, wCol, outKinds); ok {
					return out, nil
				}
			}
			benv := env.boundEnv()
			buckets := map[uint64][]*groupAccum{}
			var ordered []*groupAccum
			// Accumulator state is allocated once per distinct group, not per
			// row.
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
			kv := make([]graph.Value, len(gkeys)) // per-row scratch
			rowBuf := make([]graph.Value, in.Width())
			for i := 0; i < in.Len(); i++ {
				in.CopyRow(i, rowBuf)
				h := graph.HashSeed
				for j, p := range keyProgs {
					v, err := p.Eval(&benv, rowBuf)
					if err != nil {
						return nil, err
					}
					kv[j] = v
					h = v.Hash(h)
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
				w := int64(1)
				if wCol >= 0 {
					w = rowBuf[wCol].Int()
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
			if len(gkeys) == 0 && len(ordered) == 0 {
				newGroup(nil) // a global aggregate over no rows is still one row
			}
			out := NewBatchKinds(outKinds, 0)
			rowVals := make([]graph.Value, width)
			for _, g := range ordered {
				for j := range gkeys {
					rowVals[keyIdx[j]] = g.keys[j]
				}
				for j, a := range aggs {
					switch a.Fn {
					case "count":
						rowVals[aggIdx[j]] = graph.IntValue(g.count[j])
					case "sum":
						rowVals[aggIdx[j]] = graph.FloatValue(g.sum[j])
					case "avg":
						if g.count[j] == 0 {
							rowVals[aggIdx[j]] = graph.NullValue
						} else {
							rowVals[aggIdx[j]] = graph.FloatValue(g.sum[j] / float64(g.count[j]))
						}
					case "min":
						rowVals[aggIdx[j]] = g.min[j]
					case "max":
						rowVals[aggIdx[j]] = g.max[j]
					case "collect":
						rowVals[aggIdx[j]] = graph.ListValue(g.coll[j])
					}
				}
				out.AppendRow(rowVals)
			}
			return out, nil
		},
	})
	return nil
}

// groupTyped is the monomorphic aggregation loop: one int-family key column,
// count/sum/avg aggregates over typed columns, counts weighted by int column
// wCol when it is >= 0. Returns ok=false when the batch's runtime column
// layout does not meet the preconditions (demoted or null-carrying key or
// weight, boxed aggregate argument), sending the caller to the generic path.
func groupTyped(in *Batch, aggs []ir.Aggregate, keyCol, keyOut int, aggCols, aggIdx []int, wCol int, outKinds []graph.Kind) (*Batch, bool) {
	kt := in.Col(keyCol).Typed()
	if kt == nil || kt.HasNulls() || !intFamilyKind(kt.Kind()) {
		return nil, false
	}
	var weights []int64
	if wCol >= 0 {
		wt := in.Col(wCol).Typed()
		if wt == nil || wt.HasNulls() || wt.Kind() != graph.KindInt {
			return nil, false
		}
		weights = wt.RawInts()
	}
	type aggIn struct {
		ints   []int64
		floats []float64
		col    *column.Column
	}
	acols := make([]aggIn, len(aggs))
	for j := range aggs {
		if aggCols[j] < 0 {
			continue
		}
		at := in.Col(aggCols[j]).Typed()
		if at == nil {
			return nil, false
		}
		switch aggs[j].Fn {
		case "sum", "avg":
			switch at.Kind() {
			case graph.KindInt:
				acols[j].ints = at.RawInts()
			case graph.KindFloat:
				acols[j].floats = at.Floats()
			default:
				return nil, false
			}
		}
		acols[j].col = at
	}

	kints := kt.RawInts()
	sel := in.Sel()
	n := in.Len()
	groups := make(map[int64]int32, 64)
	var keys []int64
	counts := make([][]int64, len(aggs))
	sums := make([][]float64, len(aggs))
	for i := 0; i < n; i++ {
		p := i
		if sel != nil {
			p = int(sel[i])
		}
		k := kints[p]
		w := int64(1)
		if weights != nil {
			w = weights[p]
		}
		gi, ok := groups[k]
		if !ok {
			gi = int32(len(keys))
			groups[k] = gi
			keys = append(keys, k)
			for j := range aggs {
				counts[j] = append(counts[j], 0)
				sums[j] = append(sums[j], 0)
			}
		}
		for j := range aggs {
			switch aggs[j].Fn {
			case "count":
				if acols[j].col == nil || !acols[j].col.NullAt(p) {
					counts[j][gi] += w
				}
			case "sum", "avg":
				// NULL payload slots read as zero, matching boxed
				// Value.Float() of NULL; the count still advances, exactly
				// like the generic accumulator.
				counts[j][gi]++
				if acols[j].ints != nil {
					if !acols[j].col.NullAt(p) {
						sums[j][gi] += float64(acols[j].ints[p])
					}
				} else if !acols[j].col.NullAt(p) {
					sums[j][gi] += acols[j].floats[p]
				}
			}
		}
	}

	out := NewBatchKinds(outKinds, 0)
	kk := kt.Kind()
	okc := out.Col(keyOut)
	for _, k := range keys {
		okc.AppendValue(intFamilyValue(kk, k))
	}
	for j, a := range aggs {
		oc := out.Col(aggIdx[j])
		switch a.Fn {
		case "count":
			for gi := range keys {
				oc.AppendValue(graph.IntValue(counts[j][gi]))
			}
		case "sum":
			for gi := range keys {
				oc.AppendValue(graph.FloatValue(sums[j][gi]))
			}
		case "avg":
			for gi := range keys {
				if counts[j][gi] == 0 {
					oc.AppendValue(graph.NullValue)
				} else {
					oc.AppendValue(graph.FloatValue(sums[j][gi] / float64(counts[j][gi])))
				}
			}
		}
	}
	out.rows = len(keys)
	return out, true
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
	c.Stages = append(c.Stages, c.labelScanStage("MATCH_SCAN("+start+")", idx0, pattern[0].SrcLabel, nil, nil, nil))
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
	c.labelFilter(pe.EdgeLabel)
	width := c.numCols
	// Without an edge alias existence is enough; with one, every matching
	// parallel edge is emitted.
	x := &expansion{sid: len(c.Stages), from: srcIdx, dir: pe.Dir, elabel: pe.EdgeLabel, vlabel: graph.AnyLabel,
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

// MorselFeed wraps a feed, splitting every emitted batch into morsel-sized
// views. The wrapped batch is handed back for reuse only when every view was
// consumed synchronously.
func MorselFeed(feed func(EmitBatch) error, morsel int) func(EmitBatch) error {
	return func(emit EmitBatch) error {
		return feed(func(b *Batch) (bool, error) {
			reuseAll := true
			for lo := 0; lo < b.Len(); lo += morsel {
				hi := lo + morsel
				if hi > b.Len() {
					hi = b.Len()
				}
				sub := b.View(lo, hi)
				reuse, err := emit(&sub)
				if err != nil {
					return false, err
				}
				if !reuse {
					reuseAll = false
				}
			}
			return reuseAll, nil
		})
	}
}

// ChunkFeed adapts a materialized batch into a source feed, emitting
// read-only views of up to batchSize rows; drivers use it to push barrier
// output back into the next pipeline segment.
func ChunkFeed(in *Batch, batchSize int) func(EmitBatch) error {
	return func(emit EmitBatch) error {
		for lo := 0; lo < in.Len(); lo += batchSize {
			hi := lo + batchSize
			if hi > in.Len() {
				hi = in.Len()
			}
			sub := in.View(lo, hi)
			if _, err := emit(&sub); err != nil {
				return err
			}
		}
		return nil
	}
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

// RunSegmentSerial drives one pipeline segment (a feed plus a run of Map and
// Filter stages) to completion on the calling goroutine, gathering the output
// rows into acc. The final AppendBatch compacts whatever selection the
// trailing filters installed. When stopAfter > 0 (a LIMIT follows the
// segment) the feed is stopped via ErrStop as soon as enough rows are
// gathered.
func RunSegmentSerial(env *Env, seg []Stage, feed func(EmitBatch) error, acc *Batch, stopAfter int) (*Batch, error) {
	bufs, last := StageBuffers(env, seg)
	if last >= 0 {
		bufs[last] = env.Arena.batch(seg[last].OutLayout())
	}
	err := feed(func(b *Batch) (bool, error) {
		cur, err := RunMorsel(env, seg, bufs, b)
		if err != nil {
			return false, err
		}
		acc.AppendBatch(cur)
		if stopAfter > 0 && acc.Len() >= stopAfter {
			return true, ErrStop
		}
		return true, nil
	})
	if err != nil && err != ErrStop {
		return nil, err
	}
	return acc, nil
}

// runSegmentSerial is the serial SegmentRunner: the accumulator, like every
// other buffer, comes from the arena of the goroutine running the query.
func runSegmentSerial(env *Env, seg []Stage, feed func(EmitBatch) error, kinds []graph.Kind, stopAfter int) (*Batch, error) {
	return RunSegmentSerial(env, seg, feed, env.Arena.batch(kinds), stopAfter)
}

// SegmentRunner executes one pipeline segment: a feed of morsel-sized
// batches through a run of Map/Filter stages, gathering output with the
// given column layout. When stopAfter > 0 the runner may stop the feed (via
// ErrStop) once the in-order output prefix holds that many rows.
type SegmentRunner func(env *Env, seg []Stage, feed func(EmitBatch) error, kinds []graph.Kind, stopAfter int) (*Batch, error)

// Drive walks the compiled plan, cutting it into pipeline segments (the
// source, or the previous barrier's output, feeding a run of Map/Filter
// stages) and barriers, delegating segment execution to run. It is the single
// segmentation and morsel-partitioning authority, shared by the serial
// driver and Gaia, so both evaluate the row stream in identical units.
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
			var seg []Stage
			var feed func(EmitBatch) error
			if st.Source != nil {
				seg = stages[i+1 : j]
				src := &stages[i]
				feed = MorselFeed(func(emit EmitBatch) error { return src.RunSource(env, emit) }, morsel)
			} else {
				seg = stages[i:j]
				feed = ChunkFeed(acc, morsel)
			}
			kinds := st.OutLayout()
			if len(seg) > 0 {
				kinds = seg[len(seg)-1].OutLayout()
			}
			if obs := env.Obs; obs != nil {
				obs.Segment()
			}
			var err error
			acc, err = run(env, seg, feed, kinds, stopAfter)
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

// RunBatch drives the compiled plan serially — the execution mode of the
// naive engine and of one HiActor actor — returning the final batch.
func (c *Compiled) RunBatch(ctx context.Context, env *Env) (*Batch, error) {
	return c.Drive(ctx, env, runSegmentSerial)
}

// Run drives the compiled plan serially and materializes the result rows.
func (c *Compiled) Run(ctx context.Context, env *Env) ([]Row, error) {
	acc, err := c.RunBatch(ctx, env)
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
