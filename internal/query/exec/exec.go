// Package exec implements the shared operator runtime of the interactive
// stack: logical/physical IR operators compiled to batch-at-a-time (morsel-
// driven) transformers over a GRIN graph. Rows live in columnar Batches —
// one typed column.Column vector per column (int64/float64/string/bool
// payloads, lazy null bitmaps) with a boxed []graph.Value escape hatch for
// columns whose kind is unknown at compile time — plus selection vectors:
// FILTER marks survivors instead of copying them, and downstream operators
// iterate `for _, i := range sel`. Every expression is bound at compile time
// to fixed column indexes (expr.Bound), and predicate conjuncts whose column
// kinds are known compile further into monomorphic selection kernels over
// the raw payload arrays (expr.CompileSelKernel), so the steady-state hot
// path moves no graph.Value boxes at all.
//
// The three engines differ only in *how* they drive the compiled stages —
// naive interprets the logical plan serially without optimization, Gaia runs
// the pipeline segments data-parallel over sequence-numbered batch streams
// (OLAP), HiActor runs one compiled plan per actor message at high
// concurrency (OLTP). All three produce identical rows in identical order at
// any parallelism and batch size: Map stages preserve input order, Filter
// stages preserve selection order, Gaia reassembles worker output in
// input-sequence order, and blocking operators use deterministic rules
// (stable sort, first-appearance group order, first-occurrence dedup).
package exec

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/expr"
	"repro/internal/query/ir"
	"repro/internal/query/obsv"
)

// Row is one binding tuple; columns are assigned at compile time. Engine
// results are []Row views into the final batch's boxed result arena.
type Row []graph.Value

// Columns maps aliases to row column indexes.
type Columns map[string]int

// colBinder resolves alias references against a column layout at bind time.
// After a projection or aggregation, rows carry columns named like
// "f.lastName"; a reference that no longer resolves as alias+property falls
// back to that literal output-column name (Cypher's ORDER BY-over-RETURN
// semantics). The fallback is decided here, once, not per row — and a
// reference that does stay a property read is where the plan starts to
// require the property trait.
type colBinder struct {
	c    *Compiled
	cols Columns
}

func (cb colBinder) BindRef(alias, prop string) (expr.BoundRef, error) {
	if idx, ok := cb.cols[alias]; ok {
		if prop != "" {
			cb.c.need(grin.TraitProperty, true)
		}
		return expr.BoundRef{Col: idx, Prop: prop}, nil
	}
	if prop != "" {
		if idx, ok := cb.cols[alias+"."+prop]; ok {
			return expr.BoundRef{Col: idx}, nil
		}
	}
	return expr.BoundRef{}, fmt.Errorf("unbound alias %q", alias)
}

func (cb colBinder) Need(t grin.Trait, required bool) { cb.c.need(t, required) }

// bind compiles an expression against a column layout; nil stays nil.
func (c *Compiled) bind(cols Columns, e *expr.Expr) (*expr.Bound, error) {
	return expr.Bind(e, colBinder{c, cols})
}

// need records a GRIN trait the stages rely on, where the reliance is bound.
func (c *Compiled) need(t grin.Trait, required bool) {
	dst := &c.Optional
	if required {
		dst = &c.Requires
	}
	if !slices.Contains(*dst, t) {
		*dst = append(*dst, t)
	}
}

// labelFilter records a pushed label filter: applied on a store with the
// property trait, skipped without one (the documented degradation) — so the
// trait is exploited, not required.
func (c *Compiled) labelFilter(l graph.LabelID) {
	if l != graph.AnyLabel {
		c.need(grin.TraitProperty, false)
	}
}

// Stage transforms batches. Exactly one of Source/Map/Filter/Blocking is set.
type Stage struct {
	// Name for EXPLAIN and engine traces.
	Name string
	// ID is the stage's index in its compiled plan — the key per-stage
	// observability counters are recorded under. Compile assigns it;
	// hand-built stages leave it 0 and never carry stats.
	ID int
	// InWidth/OutWidth are the row widths this stage consumes/produces.
	InWidth  int
	OutWidth int
	// OutKinds is the per-column kind layout this stage produces
	// (graph.KindNil entries are boxed columns); drivers allocate output
	// batches from it. A nil OutKinds means all-boxed.
	OutKinds []graph.Kind
	// Source appends up to n rows to out, resuming from the scan position
	// *at (zero when its segment starts) and advancing it, and reports done
	// once nothing is left; a fill that is not done appended exactly n rows.
	// Only the first stage has one, and only a Feed calls it.
	Source func(env *Env, at *graph.VID, n int, out *Batch) (done bool, err error)
	// Map transforms the rows of in, appending zero or more output rows per
	// input row to out, preserving input (selection) order.
	Map func(env *Env, in, out *Batch) error
	// Filter narrows the batch in place by installing a selection vector
	// over its physical rows; no rows are copied (InWidth == OutWidth).
	Filter func(env *Env, b *Batch) error
	// Blocking consumes the fully gathered row set at a barrier (sort,
	// group, dedup, limit).
	Blocking func(env *Env, in *Batch) (*Batch, error)
	// LimitHint is set (>0) on stages whose Blocking merely truncates to the
	// first LimitHint rows; drivers may stop the pipeline's source once that
	// many rows are buffered ahead of the stage.
	LimitHint int
}

// OutLayout returns the stage's output column layout, substituting all-boxed
// columns when the stage carries no kind information (hand-built stages).
func (st *Stage) OutLayout() []graph.Kind {
	if st.OutKinds != nil {
		return st.OutKinds
	}
	return make([]graph.Kind, st.OutWidth)
}

// Compiled is an executable plan: stages plus the output schema.
type Compiled struct {
	Stages []Stage
	Cols   Columns  // final alias -> column map
	Out    []string // output column order (aliases)
	// Requires lists the GRIN traits the stages need for a correct answer:
	// topology always, the property trait once a property read or label() is
	// bound. Optional lists those they exploit and degrade without: a pushed
	// label filter is skipped on a store without the property trait, id()
	// reads internal IDs without the index trait. Both are sorted, and
	// Optional omits what Requires already lists.
	Requires []grin.Trait
	Optional []grin.Trait
	numCols  int
	// weight is the column of an EXPAND_DEGREE no GROUP has consumed yet:
	// until one does, every row stands for that many rows, so only row-wise
	// operators (SELECT, EXPAND_FUSED) may sit in between.
	weight string

	// kinds/labels mirror the column space during compilation: the
	// compile-time kind of each column (graph.KindNil = unknown, boxed) and,
	// for vertex/edge columns, the label the element is known to carry
	// (graph.AnyLabel = unknown). Operators consult them to pick typed
	// vectors and compile selection kernels; they are hints — runtime
	// surprises demote to boxed vectors, never misread payloads.
	kinds  []graph.Kind
	labels []graph.LabelID
	schema *graph.Schema
}

// Request is what a caller hands an engine with each query — Gaia's,
// HiActor's and naive's Run all take one. The zero Request binds no
// parameters, uses DefaultBatchSize, sets no row budget and observes
// nothing.
type Request struct {
	Params map[string]graph.Value
	// BatchSize is the target rows per batch (0: DefaultBatchSize).
	BatchSize int
	// MaxRows caps the rows a query may process across all pipeline
	// segments (0: unlimited). Exceeding it fails the query with
	// ErrBudgetExceeded — the admission-control degradation path. Rows are
	// charged as they enter a segment, so a predicated SCAN charges every
	// candidate its source proposes, before the SELECT after it decides —
	// exactly as an explicit SCAN → SELECT does.
	MaxRows int64
	// Obs, when non-nil, collects per-stage runtime stats and trace spans
	// for this execution. Every hot-path hook is gated on one nil check of
	// this pointer, so the disabled case costs a single predictable branch
	// and no allocation.
	Obs *obsv.QueryStats
}

// Env carries per-execution state: the store, the caller's Request and the
// running goroutine's memory.
type Env struct {
	Graph grin.Graph
	Request
	// Arena is the reusable memory of the goroutine running with this Env:
	// driver buffers and operator scratch (see Arena). An owner that runs
	// many queries installs its own and resets it between them; Drive
	// installs a fresh one when the caller gave none.
	Arena *Arena
	// life holds the bound context and budget counters; Drive installs it.
	life *lifecycle
}

// EffectiveBatchSize resolves the batch-size knob.
func (env *Env) EffectiveBatchSize() int {
	if env.BatchSize > 0 {
		return env.BatchSize
	}
	return DefaultBatchSize
}

func (env *Env) boundEnv() expr.BoundEnv {
	return expr.BoundEnv{Graph: env.Graph, Params: env.Params}
}

// Options tunes compilation.
type Options struct {
	// NoIndexLookup disables converting `id(a) = k` scans into index
	// lookups; the naive baseline sets it.
	NoIndexLookup bool
	// Schema, when set, lets the compiler infer property kinds from the
	// catalog: batch columns become typed vectors and eligible predicate
	// conjuncts compile to monomorphic selection kernels. Without it every
	// column is boxed — correct, just slower.
	Schema *graph.Schema
}

// PlanError is Compile's rejection of a plan, told apart by type from
// whatever can go wrong once rows flow. Op indexes the operator whose rule
// failed; -1 when the defect is the plan's as a whole (it is empty, or ends
// with an EXPAND_DEGREE weight no GROUP consumed).
type PlanError struct {
	Op   int
	Kind ir.OpKind
	Err  error
}

// Error implements error.
func (e *PlanError) Error() string {
	if e.Op < 0 {
		return "exec: " + e.Err.Error()
	}
	return fmt.Sprintf("exec: op %d (%s): %v", e.Op, e.Kind, e.Err)
}

// Unwrap returns the failed rule's own error.
func (e *PlanError) Unwrap() error { return e.Err }

// Compile lowers a plan (already optimized, or raw for the naive engine)
// into stages. It is the only code that decides a plan's column layout and
// stage sequence, and it rejects — in every build, before a graph or an
// engine exists — every plan whose shape is wrong:
//
//   - an empty plan, a SCAN that is not first, an operator reading an alias
//     nothing bound (EXPAND_* source, GET_VERTEX edge, MATCH continuation,
//     DEDUP key, any expression), a disconnected or empty MATCH pattern;
//   - an expression calling an unknown function or passing the wrong number
//     of arguments (expr.Bind's call table);
//   - operators that would do nothing or lose a column silently: SELECT with
//     no predicate, ORDER or DEDUP with no keys, PROJECT with no items, GROUP
//     with neither keys nor aggregates, EXPAND_EDGE with no edge alias, two
//     PROJECT or GROUP outputs under one alias;
//   - a negative ORDER or LIMIT count (LIMIT 0 is a plan: it yields no rows;
//     ORDER's Limit 0 means "no limit"), an unknown aggregate, an aggregate
//     other than COUNT without an argument;
//   - EXPAND_DEGREE counting an alias something binds, its weight column
//     reaching anything but SELECT/EXPAND_FUSED before a GROUP, a GROUP whose
//     CountWeight is not the pending weight column or that aggregates
//     anything but COUNT(*) over it, a weight no GROUP consumes.
//
// What the stages rely on the store for is recorded as each reliance is
// bound: Compiled.Requires and Compiled.Optional.
func Compile(p *ir.Plan, opt Options) (*Compiled, error) {
	if p == nil || len(p.Ops) == 0 {
		return nil, &PlanError{Op: -1, Err: fmt.Errorf("empty plan")}
	}
	c := &Compiled{Cols: Columns{}, schema: opt.Schema, Requires: []grin.Trait{grin.TraitTopology}}
	for i, op := range p.Ops {
		if err := c.compileOp(op, i == 0, opt); err != nil {
			return nil, &PlanError{Op: i, Kind: op.Kind, Err: err}
		}
	}
	if c.weight != "" {
		return nil, &PlanError{Op: -1, Err: fmt.Errorf("EXPAND_DEGREE column %q is never consumed by a GROUP", c.weight)}
	}
	slices.Sort(c.Requires)
	slices.Sort(c.Optional)
	c.Optional = slices.DeleteFunc(c.Optional, func(t grin.Trait) bool { return slices.Contains(c.Requires, t) })
	// Output order: deterministic by column index.
	type ca struct {
		alias string
		idx   int
	}
	var cas []ca
	//lint:allow determinism order-independent: the collected pairs are sorted by column index before use
	for a, i := range c.Cols {
		if len(a) > 0 && a[0] == '#' {
			continue // hidden columns
		}
		cas = append(cas, ca{a, i})
	}
	sort.Slice(cas, func(i, j int) bool { return cas[i].idx < cas[j].idx })
	for _, x := range cas {
		c.Out = append(c.Out, x.alias)
	}
	// Widths must chain: every stage consumes exactly what its predecessor
	// produces. Catches operator-compilation bugs before any row flows.
	w := c.Stages[0].OutWidth
	for _, st := range c.Stages[1:] {
		if st.InWidth != w {
			return nil, fmt.Errorf("exec: internal: stage %q consumes width %d, predecessor produces %d",
				st.Name, st.InWidth, w)
		}
		w = st.OutWidth
	}
	// Stage IDs key the observability layer's per-stage counters. They must
	// equal the stage's slice index: compileOp closures capture the index a
	// stage will land at (len(c.Stages) at append time), and QueryStats.Bind
	// sizes its table from the same order.
	for i := range c.Stages {
		c.Stages[i].ID = i
	}
	return c, nil
}

// addColK assigns a column with its compile-time kind and (for vertex/edge
// columns) element label, reusing an existing binding.
func (c *Compiled) addColK(alias string, kind graph.Kind, label graph.LabelID) int {
	if idx, ok := c.Cols[alias]; ok {
		return idx
	}
	idx := c.numCols
	c.Cols[alias] = idx
	c.numCols++
	c.kinds = append(c.kinds, kind)
	c.labels = append(c.labels, label)
	return idx
}

// resetCols clears the column space (PROJECT/GROUP define a new schema).
func (c *Compiled) resetCols() {
	c.Cols = Columns{}
	c.numCols = 0
	c.kinds = nil
	c.labels = nil
}

// kindsSnapshot copies the current column kind layout for embedding into a
// stage (the compiler keeps mutating its working arrays).
func (c *Compiled) kindsSnapshot() []graph.Kind {
	return append([]graph.Kind(nil), c.kinds...)
}

// propKind resolves the compile-time kind of property prop on an element
// column of the given kind and label. With an unknown (AnyLabel) label the
// property qualifies only if every label defining it agrees on the kind.
func (c *Compiled) propKind(elemKind graph.Kind, label graph.LabelID, prop string) (graph.Kind, bool) {
	if c.schema == nil {
		return graph.KindNil, false
	}
	find := func(props []graph.PropDef) (graph.Kind, bool) {
		for _, d := range props {
			if d.Name == prop {
				return d.Kind, true
			}
		}
		return graph.KindNil, false
	}
	switch elemKind {
	case graph.KindVertex:
		if label != graph.AnyLabel {
			if int(label) >= len(c.schema.Vertices) {
				return graph.KindNil, false
			}
			return find(c.schema.Vertices[label].Props)
		}
		k, seen := graph.KindNil, false
		for _, vl := range c.schema.Vertices {
			if pk, ok := find(vl.Props); ok {
				if seen && pk != k {
					return graph.KindNil, false
				}
				k, seen = pk, true
			}
		}
		return k, seen
	case graph.KindEdge:
		if label != graph.AnyLabel {
			if int(label) >= len(c.schema.Edges) {
				return graph.KindNil, false
			}
			return find(c.schema.Edges[label].Props)
		}
		k, seen := graph.KindNil, false
		for _, el := range c.schema.Edges {
			if pk, ok := find(el.Props); ok {
				if seen && pk != k {
					return graph.KindNil, false
				}
				k, seen = pk, true
			}
		}
		return k, seen
	}
	return graph.KindNil, false
}

func (c *Compiled) compileOp(op *ir.Op, first bool, opt Options) error {
	if c.weight != "" {
		switch op.Kind {
		case ir.OpSelect, ir.OpExpandFused, ir.OpGroupBy:
		default:
			return fmt.Errorf("%s between EXPAND_DEGREE and the GROUP that consumes %q would lose the row weights", op.Kind, c.weight)
		}
	}
	switch op.Kind {
	case ir.OpScan:
		if !first {
			return fmt.Errorf("SCAN must be the first operator")
		}
		return c.compileScan(op, opt)
	case ir.OpExpandFused:
		return c.compileExpandFused(op)
	case ir.OpExpandEdge:
		return c.compileExpandEdge(op)
	case ir.OpExpandDegree:
		return c.compileExpandDegree(op)
	case ir.OpGetVertex:
		return c.compileGetVertex(op)
	case ir.OpMatch:
		return c.compileMatch(op, first)
	case ir.OpSelect:
		if op.Pred == nil {
			return fmt.Errorf("SELECT with no predicate is a no-op; drop the operator")
		}
		return c.appendSelect(op.Pred)
	case ir.OpProject:
		return c.compileProject(op)
	case ir.OpOrderBy:
		return c.compileOrderBy(op)
	case ir.OpLimit:
		n := op.Limit
		if n < 0 {
			return fmt.Errorf("LIMIT %d (must not be negative)", n)
		}
		width := c.numCols
		c.Stages = append(c.Stages, Stage{
			Name:    "LIMIT",
			InWidth: width, OutWidth: width,
			OutKinds:  c.kindsSnapshot(),
			LimitHint: n,
			Blocking: func(env *Env, in *Batch) (*Batch, error) {
				if in.Len() > n {
					in.Truncate(n)
				}
				return in, nil
			},
		})
		return nil
	case ir.OpGroupBy:
		return c.compileGroupBy(op)
	case ir.OpDedup:
		return c.compileDedup(op)
	}
	return fmt.Errorf("cannot compile %v", op.Kind)
}

func (c *Compiled) snapshotCols() Columns {
	cols := make(Columns, len(c.Cols))
	//lint:allow determinism map-to-map copy; no ordered output derives from the iteration
	for k, v := range c.Cols {
		cols[k] = v
	}
	return cols
}

// compileScan lowers SCAN into a source that proposes candidate vertices and,
// when the scan carries a predicate, the SELECT that decides which of them
// survive — the stage OpSelect builds, with the whole predicate. An
// `id(alias) = <literal|param>` conjunct also yields a lookup key (unless
// disabled for the naive baseline): on a store with the index trait the
// source proposes only the vertex the key names, and the SELECT re-checks the
// conjunct on it, so the answer never depends on how the lookup coerces the
// key, and a store without the trait simply proposes every vertex.
func (c *Compiled) compileScan(op *ir.Op, opt Options) error {
	idx := c.addColK(op.Alias, graph.KindVertex, op.Label)
	c.labelFilter(op.Label)
	var key *expr.Bound
	if !opt.NoIndexLookup {
		for _, conj := range op.Pred.Conjuncts() {
			if side := idEqualityKey(conj, op.Alias); side != nil {
				var err error
				if key, err = c.bind(c.Cols, side); err != nil {
					return err
				}
				break
			}
		}
	}
	c.Stages = append(c.Stages, c.labelScanStage("SCAN("+op.Alias+")", idx, op.Label, key))
	if op.Pred == nil {
		return nil
	}
	return c.appendSelect(op.Pred)
}

// appendSelect binds pred against the current layout and appends the SELECT
// stage that runs it as a fused filterProgram — kernel prefix, then the boxed
// residual — over each batch. OpSelect and a predicated SCAN both build it.
func (c *Compiled) appendSelect(pred *expr.Expr) error {
	width := c.numCols
	bound, err := c.bind(c.Cols, pred)
	if err != nil {
		return err
	}
	fp := c.compileFilter(bound)
	sid := len(c.Stages)
	c.Stages = append(c.Stages, Stage{
		Name:    "SELECT",
		InWidth: width, OutWidth: width,
		OutKinds: c.kindsSnapshot(),
		Filter: func(env *Env, b *Batch) error {
			return fp.run(env, b, 0, sid)
		},
	})
	return nil
}

// labelScanStage builds the source stage over one vertex label, binding
// column idx — the newest column of the current layout. It proposes
// candidates and decides nothing: with a lookup key and the index trait it
// appends the one vertex the key names (or none), otherwise every vertex of
// the label, bulk-appended chunk by chunk into the typed vertex column.
// Whatever predicate the scan carried runs in the SELECT after it.
func (c *Compiled) labelScanStage(name string, idx int, label graph.LabelID, key *expr.Bound) Stage {
	kinds := c.kindsSnapshot()
	return Stage{
		Name:     name,
		OutWidth: c.numCols,
		OutKinds: kinds,
		Source: func(env *Env, at *graph.VID, n int, out *Batch) (bool, error) {
			if key != nil {
				if store, ok := grin.AsIndex(env.Graph); ok {
					benv := env.boundEnv()
					k, err := key.Eval(&benv, nil)
					if err != nil {
						return true, err
					}
					if v, found := store.LookupVertex(label, k.Int()); found {
						out.cols[idx].appendVertex(v)
						out.rows++
					}
					return true, nil
				}
			}
			// Batched label scan: one trait dispatch per ID chunk, each
			// chunk sized to the room left, so the batch fills to exactly n.
			arena := env.Arena
			for out.rows < n {
				// Cooperative cancellation once per ID chunk.
				if err := env.Alive(); err != nil {
					return true, err
				}
				arena.scanIDs = growVIDs(arena.scanIDs, n-out.rows)
				k, next := grin.NextLabelBatch(env.Graph, label, *at, arena.scanIDs)
				out.cols[idx].appendVIDs(arena.scanIDs[:k])
				out.rows += k
				if next == graph.NilVID {
					return true, nil
				}
				*at = next
			}
			return false, nil
		},
	}
}

// idEqualityKey returns the constant side of an `id(alias) = <literal|param>`
// conjunct, or nil when e is not one.
func idEqualityKey(e *expr.Expr, alias string) *expr.Expr {
	if e.Kind != expr.KindBinary || e.Op != expr.OpEq {
		return nil
	}
	l, r := e.Left, e.Right
	if isIDCall(r, alias) {
		l, r = r, l
	}
	if isIDCall(l, alias) && (r.Kind == expr.KindLiteral || r.Kind == expr.KindParam) {
		return r
	}
	return nil
}

func isIDCall(e *expr.Expr, alias string) bool {
	return e.Kind == expr.KindCall && e.Fn == "id" && len(e.Args) == 1 &&
		e.Args[0].Kind == expr.KindVar && e.Args[0].Alias == alias && e.Args[0].Prop == ""
}

// frontierFrom extracts the non-nil vertex frontier of column col in logical
// (selection) order, recording each element's physical row. A typed
// null-free vertex column is read straight off its int64 payload.
func frontierFrom(in *Batch, col int, frontier []graph.VID, rows []int32) ([]graph.VID, []int32) {
	v := in.Col(col)
	sel := in.Sel()
	if t := v.Typed(); t != nil && t.Kind() == graph.KindVertex && !t.HasNulls() {
		ints := t.RawInts()
		if sel == nil {
			for i, x := range ints {
				if graph.VID(x) != graph.NilVID {
					frontier = append(frontier, graph.VID(x))
					rows = append(rows, int32(i))
				}
			}
		} else {
			for _, p := range sel {
				if x := graph.VID(ints[p]); x != graph.NilVID {
					frontier = append(frontier, x)
					rows = append(rows, p)
				}
			}
		}
		return frontier, rows
	}
	n := in.Len()
	for i := 0; i < n; i++ {
		p := in.physRow(i)
		if src := v.Value(p).Vertex(); src != graph.NilVID {
			frontier = append(frontier, src)
			rows = append(rows, int32(p))
		}
	}
	return frontier, rows
}

// vidColumn fills dst[i] with logical row i's vertex ID (NilVID for NULL or
// non-vertex values) — the aligned form label/property gathers need.
func vidColumn(in *Batch, col int, dst []graph.VID) {
	v := in.Col(col)
	sel := in.Sel()
	if t := v.Typed(); t != nil && t.Kind() == graph.KindVertex && !t.HasNulls() {
		ints := t.RawInts()
		if sel == nil {
			for i := range dst {
				dst[i] = graph.VID(ints[i])
			}
		} else {
			for i, p := range sel {
				dst[i] = graph.VID(ints[p])
			}
		}
		return
	}
	for i := range dst {
		dst[i] = v.Value(in.physRow(i)).Vertex()
	}
}

// compileExpandFused is the fused neighbor expansion: one adjacency pass
// filters edge label, target label and pushed predicate.
func (c *Compiled) compileExpandFused(op *ir.Op) error {
	fromIdx, ok := c.Cols[op.FromAlias]
	if !ok {
		return fmt.Errorf("EXPAND_FUSED from unbound alias %q", op.FromAlias)
	}
	inWidth := c.numCols
	vIdx := c.addColK(op.Alias, graph.KindVertex, op.Label)
	eIdx := -1
	if op.EdgeAlias != "" {
		eIdx = c.addColK(op.EdgeAlias, graph.KindEdge, op.EdgeLabel)
	}
	h := c.hop(op.EdgeLabel, op.Dir, op.Label)
	width := c.numCols
	sid := len(c.Stages)
	x := &expansion{sid: sid, from: fromIdx, hop: h, dst: -1, vIdx: vIdx, eIdx: eIdx, degIdx: -1}
	predB, err := c.bind(c.Cols, op.Pred)
	if err != nil {
		return err
	}
	fp := c.compileFilter(predB)

	c.Stages = append(c.Stages, Stage{
		Name:    "EXPAND_FUSED(" + op.FromAlias + "->" + op.Alias + ")",
		InWidth: inWidth, OutWidth: width,
		OutKinds: c.kindsSnapshot(),
		Map: func(env *Env, in, out *Batch) error {
			// One adjacency pass, then the pushed predicate (if any) runs as
			// a fused filter pass over the freshly emitted rows.
			base := out.rows
			if any, err := x.run(env, in, out); err != nil || !any {
				return err
			}
			return fp.run(env, out, base, sid)
		},
	})
	return nil
}

// compileExpandEdge materializes adjacent edges without retrieving the far
// vertex (the unfused form; a hidden column carries the neighbor for the
// subsequent GET_VERTEX).
func (c *Compiled) compileExpandEdge(op *ir.Op) error {
	if op.EdgeAlias == "" {
		return fmt.Errorf("EXPAND_EDGE with no edge alias (the edge column would be unnamed)")
	}
	fromIdx, ok := c.Cols[op.FromAlias]
	if !ok {
		return fmt.Errorf("EXPAND_EDGE from unbound alias %q", op.FromAlias)
	}
	inWidth := c.numCols
	eIdx := c.addColK(op.EdgeAlias, graph.KindEdge, op.EdgeLabel)
	nIdx := c.addColK("#nbr:"+op.EdgeAlias, graph.KindVertex, graph.AnyLabel)
	h := c.hop(op.EdgeLabel, op.Dir, graph.AnyLabel)
	width := c.numCols
	x := &expansion{sid: len(c.Stages), from: fromIdx, hop: h, dst: -1, vIdx: nIdx, eIdx: eIdx, degIdx: -1}

	c.Stages = append(c.Stages, Stage{
		Name:    "EXPAND_EDGE(" + op.FromAlias + ")",
		InWidth: inWidth, OutWidth: width,
		OutKinds: c.kindsSnapshot(),
		Map:      x.runMap,
	})
	return nil
}

// compileExpandDegree is the counting expansion: the same adjacency passes
// and label filters as the fused expansions it replaces — the Via hops, then
// the counted one — but no vertex on the path is bound: each input row with
// at least one matching path survives, widened by one int column holding how
// many matched.
func (c *Compiled) compileExpandDegree(op *ir.Op) error {
	fromIdx, ok := c.Cols[op.FromAlias]
	if !ok {
		return fmt.Errorf("EXPAND_DEGREE from unbound alias %q", op.FromAlias)
	}
	if _, bound := c.Cols[op.Alias]; bound || op.Alias == "" {
		return fmt.Errorf("EXPAND_DEGREE counts %q, which must be a neighbor no operator binds", op.Alias)
	}
	inWidth := c.numCols
	// The neighbor stays unbound — any later reference to it fails alias
	// resolution — and the count column is int by construction.
	c.weight = ir.DegreeAlias(op.Alias)
	dIdx := c.addColK(c.weight, graph.KindInt, graph.AnyLabel)
	via := make([]hop, len(op.Via))
	for i, h := range op.Via {
		via[i] = c.hop(h.EdgeLabel, h.Dir, h.Label)
	}
	x := &expansion{sid: len(c.Stages), from: fromIdx, hop: c.hop(op.EdgeLabel, op.Dir, op.Label), via: via,
		dst: -1, vIdx: -1, eIdx: -1, degIdx: dIdx}

	c.Stages = append(c.Stages, Stage{
		Name:    "EXPAND_DEGREE(" + op.Path() + ")",
		InWidth: inWidth, OutWidth: c.numCols,
		OutKinds: c.kindsSnapshot(),
		Map:      x.runMap,
	})
	return nil
}

// compileGetVertex retrieves the far endpoint of a previously expanded edge.
func (c *Compiled) compileGetVertex(op *ir.Op) error {
	nIdx, ok := c.Cols["#nbr:"+op.EdgeAlias]
	if !ok {
		return fmt.Errorf("GET_VERTEX on unexpanded edge %q", op.EdgeAlias)
	}
	inWidth := c.numCols
	vIdx := c.addColK(op.Alias, graph.KindVertex, op.Label)
	c.labelFilter(op.Label)
	width := c.numCols
	vlabel := op.Label
	predB, err := c.bind(c.Cols, op.Pred)
	if err != nil {
		return err
	}
	fp := c.compileFilter(predB)

	sid := len(c.Stages)
	c.Stages = append(c.Stages, Stage{
		Name:    "GET_VERTEX(" + op.Alias + ")",
		InWidth: inWidth, OutWidth: width,
		OutKinds: c.kindsSnapshot(),
		Map: func(env *Env, in, out *Batch) error {
			pr, _ := grin.AsPropertyReader(env.Graph)
			rows := in.Len()
			if rows == 0 {
				return nil
			}
			s := &env.Arena.gather
			// The neighbor column gathers once, in logical order; the
			// target-label filter gathers the whole column's labels in one
			// call (NilVID slots gather AnyLabel; those rows are dropped
			// before the filter is consulted).
			s.vids = growVIDs(s.vids, rows)
			vidColumn(in, nIdx, s.vids)
			var vLabs []graph.LabelID
			if pr != nil && vlabel != graph.AnyLabel {
				s.labels = growLabels(s.labels, rows)
				grin.GatherVertexLabels(env.Graph, s.vids, s.labels)
				vLabs = s.labels
			}
			s.srcRows, s.keep = s.srcRows[:0], s.keep[:0]
			for i := 0; i < rows; i++ {
				n := s.vids[i]
				if n == graph.NilVID {
					continue
				}
				if vLabs != nil && vLabs[i] != vlabel {
					continue
				}
				s.srcRows = append(s.srcRows, int32(in.physRow(i)))
				s.keep = append(s.keep, n)
			}
			if len(s.srcRows) == 0 {
				return nil
			}
			base := out.rows
			for c := 0; c < in.Width(); c++ {
				out.cols[c].appendRows(&in.cols[c], s.srcRows)
			}
			vcol := &out.cols[vIdx]
			for _, n := range s.keep {
				vcol.appendVertex(n)
			}
			out.rows += len(s.srcRows)
			return fp.run(env, out, base, sid)
		},
	})
	return nil
}
