// flexlint -plans: compile the checked-in query corpus. Each corpus entry is
// source text (cypher or gremlin) plus a schema name and the backends it is
// expected to run on. The runner drives the full front half of the stack —
// parse, exec.Compile of the logical plan, optimize, exec.Compile of the
// physical plan; the compiler enforces every plan-shape rule itself — then
// checks an entry's optional `fold` expectation (must the EXPAND_DEGREE rule
// fire or not), and finally checks the traits the compiled stages require
// against each listed backend's row of the capability table
// (internal/core). Backends that would degrade (skipped label filters,
// internal-ID fallback) are reported but do not fail the run.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gremlin"
	"repro/internal/query/ir"
	"repro/internal/query/optimizer"
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
	if _, err := exec.Compile(logical, exec.Options{}); err != nil {
		return "", fmt.Errorf("logical plan: %w", err)
	}
	physical, err := optimizer.Optimize(logical, cat, optimizer.All())
	if err != nil {
		return "", fmt.Errorf("optimize: %w", err)
	}
	c, err := exec.Compile(physical, exec.Options{})
	if err != nil {
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
	detail := fmt.Sprintf("%d stages, requires %v", len(c.Stages), c.Requires)
	for _, backend := range cp.Backends {
		missing, known := core.Missing(backend, c.Requires)
		if !known {
			return "", fmt.Errorf("unknown backend %q", backend)
		}
		if len(missing) > 0 {
			return "", fmt.Errorf("backend %s: %w", backend, &grin.ErrMissingTrait{Backend: backend, Trait: missing[0], Engine: "plan"})
		}
		if deg, _ := core.Missing(backend, c.Optional); len(deg) > 0 {
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
