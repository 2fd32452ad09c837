// Package repro is a Go reproduction of "GraphScope Flex: LEGO-like Graph
// Computing Stack" (SIGMOD 2024): a modular graph computing stack with a
// unified storage interface (internal/grin), interchangeable storage
// backends, interactive query engines, a distributed-style analytics engine,
// and a decoupled GNN learning stack.
//
// See README.md for the architecture overview, the command reference
// (cmd/flexbench, cmd/flexbuild, cmd/flexquery), the experiment index, the
// "Query execution runtime" section — the shared columnar batch runtime
// (typed column vectors, selection vectors, and fused filter passes;
// internal/query/exec) — and the "Robustness & fault injection" section:
// the query-lifecycle contract (deadlines, cancellation, budgets, panic
// isolation; internal/query/exec), the one GRIN interposition wrapper
// (grin.Tap, internal/grin/tap.go), its deterministic fault-injecting hook
// (internal/storage/chaos) and the bounded retry the fault matrix drives
// (internal/query/retry_test.go). The "Observability" section covers the
// measurement layer: per-stage runtime stats and trace export
// (internal/query/obsv), the tap's call-counting hook
// (internal/storage/meter), and EXPLAIN ANALYZE (flexquery -explain).
// bench_test.go regenerates every table and figure of the paper's
// evaluation.
package repro
