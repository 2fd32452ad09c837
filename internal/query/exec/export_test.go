package exec

import "repro/internal/query/ir"

// CompileUnsplit compiles p with an empty barrier in front of every GROUP, so
// no GROUP splits into GROUP(partial) and a merge: each folds its whole input
// at once — the reference a split fold must reproduce row for row.
func CompileUnsplit(p *ir.Plan, opt Options) (*Compiled, error) {
	c := &Compiled{Cols: Columns{}, schema: opt.Schema}
	for i, op := range p.Ops {
		if op.Kind == ir.OpGroupBy {
			c.Stages = append(c.Stages, Stage{
				Name:    "BARRIER",
				InWidth: c.numCols, OutWidth: c.numCols,
				OutKinds: c.kindsSnapshot(),
				Blocking: func(_ *Env, in *Batch) (*Batch, error) { return in, nil },
			})
		}
		if err := c.compileOp(op, i == 0, opt); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// View returns a view of rows [lo, hi) of b, as a Feed cuts one.
func (b *Batch) View(lo, hi int) *Batch {
	v := new(Batch)
	b.viewOf(v, lo, hi)
	return v
}

// Test-only views of the expansion skeleton's unexported bounds.

// SlotBudget and FirstChunk mirror the chunking constants.
const (
	SlotBudget = slotBudget
	FirstChunk = firstChunk
)

// ExpandSlotCap returns the capacity, in adjacency slots, of the arena's
// expansion scratch.
func (a *Arena) ExpandSlotCap() int { return cap(a.expand.adj.Nbrs) }

// PathSlotCap returns the capacity, in vertices, of the levels a counted
// path's walk keeps in the arena's expansion scratch.
func (a *Arena) PathSlotCap() int {
	n := 0
	for _, l := range a.expand.path {
		n += cap(l.vids)
	}
	return n
}

// OrderKeysTyped reports, per sort key of the last ORDER run on the arena,
// whether it compared raw payloads (true) or boxed values.
func (a *Arena) OrderKeysTyped() []bool {
	typed := make([]bool, len(a.order.keys))
	for i, k := range a.order.keys {
		typed[i] = k.cmp != cmpBoxed
	}
	return typed
}
