package workload

import (
	"fmt"

	"repro/benchmark/span"
	"repro/benchmark/tracegraph"
	"repro/internal/query/obsv"
)

// execTotals sums the stage counters and engine gauges the program's own
// *Observed entry points report, over the traced operations.
type execTotals struct {
	rowsIn, resultRows, batches int64
	kernel, boxed               int64
	candidates, survivors       int64
	boxedRows                   int64
	morsels, segments           int64
	busy, idle                  int64
	poolHits, poolMisses        int64
}

func (t *execTotals) add(s *obsv.Snapshot, resultRows int) {
	t.resultRows += int64(resultRows)
	for _, st := range s.Stages {
		t.rowsIn += st.RowsIn
		t.batches += st.Batches
		t.kernel += st.KernelSteps
		t.boxed += st.BoxedSteps
		t.candidates += st.SelCandidates
		t.survivors += st.SelSurvivors
	}
	t.boxedRows += s.BoxedResultRows
	t.morsels += s.Engine.Morsels
	t.segments += s.Engine.Segments
	t.busy += s.Engine.BusyNanos
	t.idle += s.Engine.IdleNanos
	t.poolHits += s.PoolHits
	t.poolMisses += s.PoolMisses
}

// report sets the exec layer's metrics; a plan-quality change must lower
// exec.rows_in_per_result (stage input rows per result row).
func (t *execTotals) report(r *run, ops int64) {
	r.set("exec.rows_in_per_result", ratio(float64(t.rowsIn), float64(t.resultRows)))
	r.set("exec.batches_per_op", ratio(float64(t.batches), float64(ops)))
	r.set("exec.kernel_path_ratio", ratio(float64(t.kernel), float64(t.kernel+t.boxed)))
	r.set("exec.sel_survivor_ratio", ratio(float64(t.survivors), float64(t.candidates)))
	r.set("exec.boxed_result_rows_per_op", ratio(float64(t.boxedRows), float64(ops)))
}

// storeSums adds up the store-trait spans tracegraph recorded.
type storeSums struct {
	calls, batchCalls, nanos int64
	expandCalls, expandRows  int64
	colGathers, boxedGathers int64
}

func storeTotals(rec *span.Recorder) storeSums {
	var s storeSums
	for _, site := range tracegraph.ScalarSites {
		a := rec.Agg(site)
		s.calls += a.Count
		s.nanos += a.Nanos
	}
	for _, site := range tracegraph.BatchSites {
		a := rec.Agg(site)
		s.calls += a.Count
		s.batchCalls += a.Count
		s.nanos += a.Nanos
	}
	expand := rec.Agg(tracegraph.ExpandBatch)
	s.expandCalls, s.expandRows = expand.Count, expand.Rows
	s.colGathers = rec.Agg(tracegraph.GatherVertexPropCol).Count + rec.Agg(tracegraph.GatherEdgePropCol).Count
	s.boxedGathers = rec.Agg(tracegraph.GatherVertexProp).Count + rec.Agg(tracegraph.GatherEdgeProp).Count
	return s
}

// checkSelfTimes confirms the trace accounts for every operation: the self
// times of all spans must add up to the root spans within 5 %. They do not
// when child spans stick out of their parents.
func checkSelfTimes(rec *span.Recorder) error {
	roots, selfs := rec.Totals()
	if roots == 0 {
		return fmt.Errorf("traced run recorded no root span")
	}
	if d := float64(selfs-roots) / float64(roots); d > 0.05 || d < -0.05 {
		return fmt.Errorf("per-layer self times sum to %d ns, root spans to %d ns", selfs, roots)
	}
	return nil
}
