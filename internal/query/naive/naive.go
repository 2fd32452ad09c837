// Package naive is the unoptimized query baseline: it interprets the
// *logical* plan directly — MATCH in written order, no EdgeVertexFusion, no
// predicate pushdown, no index lookups, single-threaded. It stands in for
// the unoptimized comparators of Exp-2 (the "Without OPT" arm of Fig 7e and
// the TuGraph-like baseline of Fig 7f). It runs on the same batch-at-a-time
// exec runtime as Gaia and HiActor, just driven serially.
package naive

import (
	"context"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/exec"
	"repro/internal/query/ir"
)

// Run interprets a logical plan serially under ctx with params bound; a
// fired deadline or cancellation surfaces as
// exec.ErrDeadlineExceeded/exec.ErrCanceled.
func Run(ctx context.Context, p *ir.Plan, g grin.Graph, params map[string]graph.Value) ([]exec.Row, []string, error) {
	return RunWith(ctx, p, g, exec.Request{Params: params})
}

// RunWith interprets a logical plan serially under ctx for req.
func RunWith(ctx context.Context, p *ir.Plan, g grin.Graph, req exec.Request) ([]exec.Row, []string, error) {
	copts := exec.Options{NoIndexLookup: true}
	if pr, ok := grin.AsPropertyReader(g); ok {
		// The schema types batch columns and predicate kernels; the baseline
		// still skips every plan-level optimization.
		copts.Schema = pr.Schema()
	}
	c, err := exec.Compile(p, copts)
	if err != nil {
		return nil, nil, err
	}
	if req.Obs != nil {
		req.Obs.SetEngine("naive", 1)
	}
	rows, err := c.Run(ctx, &exec.Env{Graph: g, Request: req})
	if err != nil {
		return nil, nil, err
	}
	return rows, c.Out, nil
}
