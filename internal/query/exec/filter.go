package exec

import (
	"repro/internal/graph"
	"repro/internal/query/expr"
	"repro/internal/storage/column"
)

// filterProgram is a compiled predicate in fused-filter form: a prefix of
// kernelizable conjuncts (each a column-vs-constant comparison whose column
// kind is known, run as a monomorphic selection kernel over the typed
// payload) followed by the boxed residual for everything else. The split is a
// strict prefix of the AND chain so the set of (row, conjunct) evaluations —
// and with it the first error and every store call — is exactly what the
// short-circuiting row-at-a-time evaluator performs; only the iteration order
// within a batch changes.
type filterProgram struct {
	steps        []filterStep
	residual     *expr.Bound
	residualCols []int // batch columns the residual reads
}

type filterStep struct {
	leaf     expr.SelLeaf
	conj     *expr.Bound // the whole conjunct, for the boxed per-row fallback
	conjCols []int       // batch columns conj reads
	colKind  graph.Kind  // kind of the kernel input (the column, or its gathered property)
	elemKind graph.Kind  // KindVertex/KindEdge when leaf.Prop != ""
}

// compileFilter splits a bound predicate into kernel steps and residual.
// Compilation never fails — a conjunct that does not kernelize (unknown
// column kind, unsupported shape, kind-incompatible literal) ends the prefix
// and joins the residual. Parameter arguments are accepted optimistically;
// if the runtime value turns out kind-incompatible the step falls back to
// per-row evaluation of just that conjunct.
func (c *Compiled) compileFilter(pred *expr.Bound) *filterProgram {
	conjs := pred.Conjuncts()
	if len(conjs) == 0 {
		return nil
	}
	fp := &filterProgram{}
	i := 0
	for ; i < len(conjs); i++ {
		leaf, ok := conjs[i].SelLeaf()
		if !ok {
			break
		}
		st := filterStep{leaf: leaf, conj: conjs[i], conjCols: conjs[i].RefCols(nil)}
		if leaf.Prop == "" {
			st.colKind = c.kinds[leaf.Col]
			if st.colKind == graph.KindNil {
				break
			}
		} else {
			st.elemKind = c.kinds[leaf.Col]
			if st.elemKind != graph.KindVertex && st.elemKind != graph.KindEdge {
				break
			}
			pk, ok := c.propKind(st.elemKind, c.labels[leaf.Col], leaf.Prop)
			if !ok {
				break
			}
			st.colKind = pk
		}
		if lit, isLit := leaf.LitArg(); isLit {
			if _, ok := expr.CompileSelKernel(st.colKind, leaf.Op, lit); !ok {
				break
			}
		}
		fp.steps = append(fp.steps, st)
	}
	fp.residual = expr.AndChain(conjs[i:])
	fp.residualCols = fp.residual.RefCols(nil)
	return fp
}

// filterScratch holds the per-pass gather buffers of the running goroutine's
// arena. Its gatherScratch (candidate element IDs, boxed row bridge for the
// per-row fallback) is FILTER's own: GET_VERTEX holds the arena's gather
// while its fused filter runs.
type filterScratch struct {
	gatherScratch
	idx []int32       // kernel output over gathered scratch columns
	col column.Column // gathered property values
}

// emptySel is the shared zero-length non-nil selection (no survivors).
// Appending to it always reallocates, so sharing is safe.
var emptySel = make([]int32, 0)

// run narrows b to the rows satisfying the program by installing a selection
// vector over its physical rows; no rows are copied. Rows [0, base) pass
// unconditionally — the expansion operators filter only the rows they just
// appended (base > 0 requires a dense batch). Candidate and survivor lists
// alternate between the batch's two selection buffers, so steady-state
// filtering allocates nothing.
//
// sid is the owning stage's plan index; when env.Obs is set the pass records
// which path each conjunct took (kernel vs boxed) and its selectivity under
// that stage. The counters depend only on batch content, and the morsel
// partition is driver-independent, so they merge to identical totals at any
// parallelism.
func (fp *filterProgram) run(env *Env, b *Batch, base int, sid int) error {
	if fp == nil {
		return nil
	}
	if base > 0 && b.sel != nil {
		panic("exec: filter base over a batch with a selection")
	}
	if base == 0 && b.Len() == 0 {
		return nil
	}
	if base > 0 && b.rows <= base {
		return nil
	}

	// cand is the current candidate list (physical rows, ascending); nil
	// means dense over all physical rows (only possible with base == 0).
	var cand []int32
	active := b.selIdx
	if b.sel != nil {
		cand = b.sel
	} else if base > 0 {
		sl := 0
		if active == 0 {
			sl = 1
		}
		out := b.selArr[sl][:0]
		for r := base; r < b.rows; r++ {
			out = append(out, int32(r))
		}
		b.selArr[sl] = out
		cand = out
		active = int8(sl)
	}
	takeSlot := func() int {
		if active == 0 {
			return 1
		}
		return 0
	}
	commit := func(out []int32, sl int) {
		if out == nil {
			// An empty survivor set must stay a non-nil selection — nil
			// means dense (every row passes).
			out = emptySel
		}
		b.selArr[sl] = out
		cand = out
		active = int8(sl)
	}
	candAt := func(j int32) int32 {
		if cand != nil {
			return cand[j]
		}
		return j
	}

	benv := env.boundEnv()
	ss := &env.Arena.filter

	// perRow evaluates one conjunct over the current candidates with the
	// boxed evaluator — the fallback for non-kernelizable steps and the
	// residual. It preserves the evaluator's ascending row order, so error
	// order and store-call counts match the row-at-a-time runtime. Only the
	// columns the program reads (cols, collected at compile time) are boxed
	// into the row bridge; the evaluator never looks at the others.
	perRow := func(prog *expr.Bound, cols []int) error {
		ss.row = growValues(ss.row, b.Width())
		row := ss.row
		sl := takeSlot()
		out := b.selArr[sl][:0]
		n := len(cand)
		if cand == nil {
			n = b.rows
		}
		for i := 0; i < n; i++ {
			p := i
			if cand != nil {
				p = int(cand[i])
			}
			for _, c := range cols {
				row[c] = b.cols[c].Value(p)
			}
			ok, err := prog.EvalBool(&benv, row)
			if err != nil {
				return err
			}
			if ok {
				out = append(out, int32(p))
			}
		}
		commit(out, sl)
		return nil
	}

	obs := env.Obs
	var obsCand int
	if obs != nil {
		if base > 0 {
			obsCand = b.rows - base
		} else {
			obsCand = b.Len()
		}
	}

	for _, st := range fp.steps {
		// An empty candidate list short-circuits the rest of the chain —
		// including argument resolution, matching the row loop's
		// no-rows-no-error behavior.
		if cand != nil && len(cand) == 0 {
			break
		}
		arg, err := st.leaf.ResolveArg(&benv)
		if err != nil {
			return err
		}
		handled := false
		vec := &b.cols[st.leaf.Col]
		if st.leaf.Prop == "" {
			// Kernel straight over the batch column.
			if t := vec.Typed(); t != nil {
				if kern, ok := expr.CompileSelKernel(t.Kind(), st.leaf.Op, arg); ok {
					sl := takeSlot()
					commit(kern(t, cand, b.selArr[sl][:0]), sl)
					handled = true
				}
			}
		} else if t := vec.Typed(); t != nil && t.Kind() == st.elemKind && !t.HasNulls() {
			// Gather the candidates' property values into a typed scratch
			// column (one trait call), then kernel densely over it and map
			// the surviving ordinals back to physical rows.
			m := len(cand)
			if cand == nil {
				m = b.rows
			}
			ss.col.Reset(st.colKind)
			if gatherCol(env.Graph, &ss.gatherScratch, st.elemKind, t.RawInts(), cand, m, st.leaf.Prop, &ss.col) {
				if kern, ok := expr.CompileSelKernel(st.colKind, st.leaf.Op, arg); ok {
					ss.idx = kern(&ss.col, nil, ss.idx[:0])
					sl := takeSlot()
					out := b.selArr[sl][:0]
					for _, j := range ss.idx {
						out = append(out, candAt(j))
					}
					commit(out, sl)
					handled = true
				}
			}
		}
		if obs != nil {
			obs.FilterStep(sid, handled)
		}
		if !handled {
			// Boxed fallback for just this conjunct: runtime conditions
			// (demoted column, store without the columnar gather trait,
			// parameter of an unexpected kind) keep correctness on the
			// per-row evaluator.
			if err := perRow(st.conj, st.conjCols); err != nil {
				return err
			}
		}
	}

	if fp.residual != nil && (cand == nil || len(cand) > 0) {
		if obs != nil {
			obs.FilterStep(sid, false)
		}
		if err := perRow(fp.residual, fp.residualCols); err != nil {
			return err
		}
	}

	if obs != nil {
		surv := b.rows
		if cand != nil {
			surv = len(cand)
		}
		obs.FilterSel(sid, obsCand, surv)
	}

	if base > 0 {
		// Prepend the unconditionally-passing prefix rows.
		sl := takeSlot()
		out := b.selArr[sl][:0]
		for r := 0; r < base; r++ {
			out = append(out, int32(r))
		}
		out = append(out, cand...)
		commit(out, sl)
	}
	b.sel = cand
	b.selIdx = active
	return nil
}
