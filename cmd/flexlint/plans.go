// flexlint -plans: verify the checked-in query corpus. Each corpus entry is
// source text (cypher or gremlin) plus a schema name and the backends it is
// expected to run on. The runner drives the full front half of the stack —
// parse, planshape.Verify, optimize, Verify again — then cross-checks the
// verifier's predicted shape against what exec.Compile actually builds,
// checks an entry's optional `fold` expectation (must the EXPAND_DEGREE rule
// fire or not), and finally checks the plan's required traits against each
// listed backend's capability row. Backends that would degrade (skipped label filters,
// internal-ID fallback) are reported but do not fail the run.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gremlin"
	"repro/internal/query/ir"
	"repro/internal/query/optimizer"
	"repro/internal/query/planshape"
	"repro/internal/storage/vineyard"
)

type corpus struct {
	Description string       `json:"description"`
	Plans       []corpusPlan `json:"plans"`
}

type corpusPlan struct {
	Name     string   `json:"name"`
	Lang     string   `json:"lang"`
	Schema   string   `json:"schema"`
	Query    string   `json:"query"`
	Backends []string `json:"backends"`
	// Fold, when present, pins whether the optimizer's EXPAND_DEGREE rule
	// must (true) or must not (false) fire on this entry.
	Fold *bool `json:"fold,omitempty"`
}

// schemaEnv resolves a corpus schema name to the schema plus a small loaded
// graph for the optimizer's catalog (statistics only — no query runs).
func schemaEnv(name string) (*graph.Schema, *optimizer.Catalog, error) {
	var b *graph.Batch
	var s *graph.Schema
	switch name {
	case "snb":
		s = dataset.SNBSchema()
		b = dataset.SNB(dataset.SNBOptions{Persons: 40, Seed: 11})
	case "simple":
		s = graph.SimpleSchema(true)
		b = dataset.Datagen("corpus", 64, 4, 11).ToBatch()
	default:
		return nil, nil, fmt.Errorf("unknown schema %q", name)
	}
	st, err := vineyard.Load(b)
	if err != nil {
		return nil, nil, err
	}
	return s, optimizer.BuildCatalog(st), nil
}

// checkShape cross-checks the verifier's prediction against the compiler.
func checkShape(info *planshape.Info, p *ir.Plan) error {
	c, err := exec.Compile(p, exec.Options{})
	if err != nil {
		return fmt.Errorf("exec.Compile rejects a verified plan: %w", err)
	}
	if len(info.Stages) != len(c.Stages) {
		return fmt.Errorf("verifier predicts %d stages, compiler builds %d", len(info.Stages), len(c.Stages))
	}
	for i, st := range info.Stages {
		real := c.Stages[i]
		if st.Name != real.Name || st.InWidth != real.InWidth || st.OutWidth != real.OutWidth {
			return fmt.Errorf("stage %d: verifier %s %d->%d, compiler %s %d->%d",
				i, st.Name, st.InWidth, st.OutWidth, real.Name, real.InWidth, real.OutWidth)
		}
	}
	if len(info.Out) != len(c.Out) {
		return fmt.Errorf("verifier predicts output %v, compiler %v", info.Out, c.Out)
	}
	for i := range info.Out {
		if info.Out[i] != c.Out[i] {
			return fmt.Errorf("verifier predicts output %v, compiler %v", info.Out, c.Out)
		}
	}
	return nil
}

func verifyCorpusPlan(cp corpusPlan) (string, error) {
	schema, cat, err := schemaEnv(cp.Schema)
	if err != nil {
		return "", err
	}
	var logical *ir.Plan
	switch cp.Lang {
	case "cypher":
		logical, err = cypher.Parse(cp.Query, schema)
	case "gremlin":
		logical, err = gremlin.Parse(cp.Query, schema)
	default:
		err = fmt.Errorf("unknown language %q", cp.Lang)
	}
	if err != nil {
		return "", fmt.Errorf("parse: %w", err)
	}
	info, err := planshape.Verify(logical)
	if err != nil {
		return "", fmt.Errorf("logical plan: %w", err)
	}
	if err := checkShape(info, logical); err != nil {
		return "", fmt.Errorf("logical plan: %w", err)
	}
	physical, err := optimizer.Optimize(logical, cat, optimizer.All())
	if err != nil {
		return "", fmt.Errorf("optimize: %w", err)
	}
	pinfo, err := planshape.Verify(physical)
	if err != nil {
		return "", fmt.Errorf("physical plan: %w", err)
	}
	if err := checkShape(pinfo, physical); err != nil {
		return "", fmt.Errorf("physical plan: %w", err)
	}
	if cp.Fold != nil {
		folded := false
		for _, op := range physical.Ops {
			folded = folded || op.Kind == ir.OpExpandDegree
		}
		if folded != *cp.Fold {
			return "", fmt.Errorf("physical plan: EXPAND_DEGREE fold=%v, corpus expects %v:\n%s", folded, *cp.Fold, physical)
		}
	}
	// The physical plan is what runs; its trait demands gate the backends.
	detail := fmt.Sprintf("%d stages, requires %v", len(pinfo.Stages), pinfo.Requires)
	for _, backend := range cp.Backends {
		if err := planshape.CheckBackend(pinfo, backend); err != nil {
			return "", fmt.Errorf("backend %s: %w", backend, err)
		}
		if deg := planshape.Degraded(pinfo, backend); len(deg) > 0 {
			detail += fmt.Sprintf("; %s degrades %v", backend, deg)
		}
	}
	return detail, nil
}

// runPlans verifies every corpus entry, returning the process exit code.
func runPlans(path string, asJSON bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexlint -plans:", err)
		return 2
	}
	var c corpus
	if err := json.Unmarshal(data, &c); err != nil {
		fmt.Fprintf(os.Stderr, "flexlint -plans: %s: %v\n", path, err)
		return 2
	}
	if len(c.Plans) == 0 {
		fmt.Fprintf(os.Stderr, "flexlint -plans: %s: empty corpus\n", path)
		return 2
	}
	type result struct {
		Name   string `json:"name"`
		Detail string `json:"detail,omitempty"`
		Error  string `json:"error,omitempty"`
	}
	var results []result
	failures := 0
	for _, cp := range c.Plans {
		detail, err := verifyCorpusPlan(cp)
		if err != nil {
			failures++
			results = append(results, result{Name: cp.Name, Error: err.Error()})
			fmt.Fprintf(os.Stderr, "flexlint -plans: %s: %v\n", cp.Name, err)
			continue
		}
		results = append(results, result{Name: cp.Name, Detail: detail})
		if !asJSON {
			fmt.Printf("plan %-24s ok: %s\n", cp.Name, detail)
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(results) //nolint:errcheck // stdout
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "flexlint -plans: %d of %d corpus plan(s) failed\n", failures, len(c.Plans))
		return 1
	}
	return 0
}
