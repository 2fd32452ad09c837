// Package lint assembles the flexlint analyzer suite: the architectural
// invariants no type, test, compiler check or `go vet` pass already holds —
// the GRIN boundary (trait-only storage access, interposition only through
// grin.Tap), deterministic batch reassembly, joinable goroutines — plus lock
// pairing across calls, built on the call graph in internal/lint/flow.
// Whether each backend batches its scalar traits is a test over the
// capability table in internal/core, boxed hot-path allocations are the
// compiler-backed allocation budget's (internal/lint/allocgate, run as
// `flexlint -allocs`), and copied locks are go vet's. cmd/flexlint is the
// multichecker driver; each analyzer lives in its own package with
// analysistest fixtures.
package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/determinism"
	"repro/internal/lint/grinboundary"
	"repro/internal/lint/lockflow"
	"repro/internal/lint/parallelsafety"
)

// All returns the full analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		grinboundary.Analyzer,
		determinism.Analyzer,
		parallelsafety.Analyzer,
		lockflow.Analyzer,
	}
}
