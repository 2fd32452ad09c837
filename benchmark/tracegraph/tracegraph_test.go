package tracegraph

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/benchmark/span"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/obsv"
	"repro/internal/query/procedures"
	"repro/internal/storage/column"
	"repro/internal/storage/gart"
	"repro/internal/storage/vineyard"
)

const persons = 120

func render(rows []exec.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for _, v := range r {
			b.WriteString(v.String())
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// pathSplit is the part of a query's stats that shows which path it took.
func pathSplit(s *obsv.Snapshot) string {
	var kernel, boxed int64
	for _, st := range s.Stages {
		kernel += st.KernelSteps
		boxed += st.BoxedSteps
	}
	return fmt.Sprintf("kernel_steps=%d boxed_steps=%d boxed_result_rows=%d", kernel, boxed, s.BoxedResultRows)
}

// TestWrappedRunsTakeTheSamePath pins the property the traced run rests on:
// for every BI query, rows and the kernel/boxed split are identical with and
// without the wrapper, and the typed-column gathers still reach the store.
func TestWrappedRunsTakeTheSamePath(t *testing.T) {
	st, err := vineyard.Load(dataset.SNB(dataset.SNBOptions{Persons: persons, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	rec := span.NewRecorder()
	plain := gaia.NewEngine(st, gaia.Options{Parallelism: 2})
	wrapped := gaia.NewEngine(Wrap(st, rec), gaia.Options{Parallelism: 2})
	rng := rand.New(rand.NewSource(5))
	for _, q := range procedures.BI() {
		plan, err := cypher.Parse(q.Cypher, st.Schema())
		if err != nil {
			t.Fatal(err)
		}
		params := q.Params(rng, procedures.ScaleOf(persons))
		obsPlain, obsWrapped := obsv.NewQueryStats(), obsv.NewQueryStats()
		want, _, err := plain.SubmitObserved(context.Background(), plan, params, obsPlain)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		rec.Begin(q.Name)
		got, _, err := wrapped.SubmitObserved(context.Background(), plan, params, obsWrapped)
		rec.End()
		if err != nil {
			t.Fatalf("%s wrapped: %v", q.Name, err)
		}
		if render(got) != render(want) {
			t.Errorf("%s: rows differ when the store is wrapped", q.Name)
		}
		if a, b := pathSplit(obsWrapped.Snapshot()), pathSplit(obsPlain.Snapshot()); a != b {
			t.Errorf("%s: wrapped run took another path: %s, unwrapped %s", q.Name, a, b)
		}
	}
	if rec.Agg(GatherVertexPropCol).Count == 0 {
		t.Error("no typed-column gather reached vineyard through the wrapper")
	}
	if rec.Agg(ExpandBatch).Rows == 0 {
		t.Error("ExpandBatch spans carry no row counts")
	}
}

func TestTraitsMaskedToInnerStore(t *testing.T) {
	batch := dataset.SNB(dataset.SNBOptions{Persons: persons, Seed: 5})
	vy, err := vineyard.Load(batch)
	if err != nil {
		t.Fatal(err)
	}
	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(batch); err != nil {
		t.Fatal(err)
	}
	rec := span.NewRecorder()
	for _, inner := range []grin.Graph{vy, gs.Latest()} {
		w := Wrap(inner, rec)
		if got, want := fmt.Sprint(grin.Traits(w)), fmt.Sprint(grin.Traits(inner)); got != want {
			t.Errorf("%s: wrapper advertises %s, inner store %s", w.BackendName(), got, want)
		}
		_, innerCol := grin.AsBatchPropsCol(inner)
		dst := column.New(graph.KindString)
		ok := grin.GatherVertexPropCol(w, []graph.VID{0, 1}, "firstName", dst)
		if ok != innerCol {
			t.Errorf("%s: typed-column gather returned %v, inner store has the trait: %v", w.BackendName(), ok, innerCol)
		}
		if !ok && dst.Len() != 0 {
			t.Errorf("%s: a declined gather left %d rows behind", w.BackendName(), dst.Len())
		}
	}
}
