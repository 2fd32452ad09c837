package query_test

import (
	"context"

	"repro/internal/grin"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/ir"
	"repro/internal/query/optimizer"
)

// queryEngine is the call shape Gaia and HiActor share: Compile a plan, then
// Run it for one exec.Request.
type queryEngine interface {
	Compile(*ir.Plan) (*exec.Compiled, error)
	Run(context.Context, *exec.Compiled, exec.Request) ([]exec.Row, error)
}

// submit compiles p on eng and runs it for req, returning the rows and the
// output column names.
func submit(ctx context.Context, eng queryEngine, p *ir.Plan, req exec.Request) ([]exec.Row, []string, error) {
	c, err := eng.Compile(p)
	if err != nil {
		return nil, nil, err
	}
	rows, err := eng.Run(ctx, c, req)
	if err != nil {
		return nil, nil, err
	}
	return rows, c.Out, nil
}

// submitWith is submit on Gaia with one optimizer rule set instead of all of
// them: the plan is optimized on eng's catalog and compiled with g's schema,
// as Gaia's own Compile does.
func submitWith(ctx context.Context, eng *gaia.Engine, g grin.Graph, p *ir.Plan, opt optimizer.Options, req exec.Request) ([]exec.Row, []string, error) {
	phys, err := optimizer.Optimize(p, eng.Catalog(), opt)
	if err != nil {
		return nil, nil, err
	}
	copts := exec.Options{}
	if pr, ok := grin.AsPropertyReader(g); ok {
		copts.Schema = pr.Schema()
	}
	c, err := exec.Compile(phys, copts)
	if err != nil {
		return nil, nil, err
	}
	rows, err := eng.Run(ctx, c, req)
	if err != nil {
		return nil, nil, err
	}
	return rows, c.Out, nil
}
