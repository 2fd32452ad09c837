// Command flexlint is the multichecker for the repository's architectural
// invariants: the GRIN boundary — trait-only storage access, interposition
// only through grin.Tap (grinboundary) — reproducible execution
// (determinism), goroutines with a join path (parallelsafety) and locks
// released on every path (lockflow). Copied locks are left to go vet, boxed
// hot-path allocations to the -allocs budget below, and whether backends
// batch their scalar GRIN traits to a test over the capability table in
// internal/core.
//
// Usage:
//
//	go run ./cmd/flexlint ./...
//	go run ./cmd/flexlint -only grinboundary,determinism ./internal/query/...
//	go run ./cmd/flexlint -json ./...
//	go run ./cmd/flexlint -debug=t ./...
//	go run ./cmd/flexlint -plans
//	go run ./cmd/flexlint -allocs
//	go run ./cmd/flexlint -allocs -update
//	go run ./cmd/flexlint -list
//
// Findings print as file:line:col: message (analyzer) and any finding makes
// the exit status 1, so CI can gate on a clean tree; -json additionally
// emits the findings as a JSON array on stdout (human lines move to
// stderr, where the GitHub problem matcher picks them up). Intentional
// findings are suppressed inline with
//
//	//lint:allow <analyzer> <reason>
//
// on the offending line or the line above; the reason is mandatory and a
// suppression naming an unknown analyzer is itself a finding.
//
// Beyond the AST analyzers, two whole-program gates share the binary:
// -plans compiles the checked-in query corpus (lint/plans.json) with
// exec.Compile — which enforces the plan-shape rules — and checks what each
// plan requires against the backend capability table (internal/core), and
// -allocs diffs the compiler's escape-analysis output for the hot-path
// packages against the allocation baseline (lint/allocs_baseline.json),
// failing on a count above or below it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings as JSON on stdout (human lines go to stderr)")
	debug := flag.String("debug", "", "debug letters: t = per-analyzer wall time")
	plans := flag.Bool("plans", false, "compile the lint/plans.json query corpus, check it against its backends, and exit")
	allocs := flag.Bool("allocs", false, "diff hot-path escape analysis against lint/allocs_baseline.json and exit")
	update := flag.Bool("update", false, "with -allocs: rewrite the baseline instead of diffing")
	flag.Parse()

	switch {
	case *list:
		for _, a := range lint.All() {
			fmt.Printf("%s\n    %s\n", a.Name, a.Doc)
		}
		return
	case *plans:
		os.Exit(runPlans("lint/plans.json", *asJSON))
	case *allocs:
		os.Exit(runAllocs("lint/allocs_baseline.json", *update, *asJSON))
	}
	os.Exit(runLint(*only, flag.Args(), *asJSON, strings.Contains(*debug, "t")))
}

// jsonFinding is the machine-readable shape of one finding.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// emitFindings prints findings in the selected format: the human compiler
// format on stdout normally, or JSON on stdout with the human lines on
// stderr (so CI log matchers still see them) under -json.
func emitFindings(findings []analysis.Finding, asJSON bool) {
	if !asJSON {
		for _, f := range findings {
			fmt.Println(f)
		}
		return
	}
	out := make([]jsonFinding, len(findings))
	for i, f := range findings {
		out[i] = jsonFinding{
			Analyzer: f.Analyzer,
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Message:  f.Message,
		}
		fmt.Fprintln(os.Stderr, f)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck // stdout
}

// runLint executes the analyzer suite and returns the process exit code.
func runLint(only string, patterns []string, asJSON, timed bool) int {
	analyzers := lint.All()
	if only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var selected []*analysis.Analyzer
		for _, name := range strings.Split(only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "flexlint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			selected = append(selected, a)
		}
		analyzers = selected
	}
	// With no explicit patterns, load only what the selected analyzers
	// declare they look at: a `-only determinism` run loads the query tree
	// and internal/parallel, not the whole module. An analyzer without Targets
	// falls back to everything.
	if len(patterns) == 0 {
		seen := map[string]bool{}
		for _, a := range analyzers {
			if len(a.Targets) == 0 {
				patterns = []string{"./..."}
				seen = nil
				break
			}
			for _, t := range a.Targets {
				if !seen[t] {
					seen[t] = true
					patterns = append(patterns, t)
				}
			}
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexlint:", err)
		return 2
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexlint:", err)
		return 2
	}
	// Suppressions may target any analyzer in the suite, not just the ones
	// selected by -only: a partial run must not flag the others' escapes.
	known := make([]string, 0, len(lint.All()))
	for _, a := range lint.All() {
		known = append(known, a.Name)
	}
	findings, timings, err := analysis.RunKnownTimed(pkgs, analyzers, known)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexlint:", err)
		return 2
	}
	if timed {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "flexlint: timing %-16s %s\n", tm.Analyzer, tm.Elapsed)
		}
	}
	emitFindings(findings, asJSON)
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "flexlint: %d finding(s) across %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}
