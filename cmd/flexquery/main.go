// Command flexquery loads a generated SNB graph and evaluates one Cypher or
// Gremlin query against it — the interactive entry point of the stack.
//
// Usage:
//
//	flexquery -persons 300 -lang cypher 'MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE id(p) = 1 RETURN id(f)'
//	flexquery -lang gremlin "g.V().hasLabel('Person').count()"
//	flexquery -store gart -par 8 -batch 512 'MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN f.firstName LIMIT 5'
//	flexquery -timeout 250ms 'MATCH (a:Person)-[:KNOWS]->(b)-[:KNOWS]->(c) RETURN count(c)'
//	flexquery -explain 'MATCH (p:Person)-[:KNOWS]->(f) RETURN id(f)'
//	flexquery -trace out.json 'MATCH (p:Person)-[:KNOWS]->(f) RETURN id(f)'
//
// -store selects the storage backend the Gaia engine reads through GRIN:
// vineyard (immutable CSR + columns, native batch traits), gart (MVCC
// snapshot), or livegraph (dynamic adjacency, topology only — label scans
// cover every vertex and property access fails, exercising the capability
// fallbacks). -par and -batch tune the engine's worker count and rows per
// batch, driving the batched scan/expand/gather paths at any morsel shape.
// -timeout puts a deadline on query execution (not the dataset build): an
// expired query fails with exec.ErrDeadlineExceeded, the lifecycle contract
// every engine honors.
//
// -explain is EXPLAIN ANALYZE: the query executes with per-stage runtime
// stats enabled and the optimized physical plan prints annotated with the
// observed counters (rows in/out, batches, kernel-vs-boxed filter steps,
// selection survivors, per-stage wall time) plus the per-site store trait
// call counts, instead of the result rows. -trace writes a Chrome
// trace-event JSON of the run (stage spans, morsel dispatches, lifecycle
// exits) to the given file — load it in chrome://tracing or Perfetto.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/grin"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/gremlin"
	"repro/internal/query/ir"
	"repro/internal/query/obsv"
	"repro/internal/storage/gart"
	"repro/internal/storage/livegraph"
	"repro/internal/storage/meter"
	"repro/internal/storage/vineyard"
)

// validateFlags rejects bad flag combinations before any expensive work; the
// returned message feeds the usage error. Kept apart from main so the
// validation rules are unit-testable. The observability flags go through the
// same gate: `-explain` or `-trace` combined with an unknown store or
// language must fail here, before the SNB dataset is generated and loaded.
func validateFlags(store, lang string, par, batch, persons int, timeout time.Duration, tracePath string) string {
	switch store {
	case "vineyard", "gart", "livegraph":
	default:
		return fmt.Sprintf("unknown store %q (want vineyard, gart or livegraph)", store)
	}
	switch lang {
	case "cypher", "gremlin":
	default:
		return fmt.Sprintf("unknown language %q (want cypher or gremlin)", lang)
	}
	if par < 0 {
		return fmt.Sprintf("-par %d is negative (0 means GOMAXPROCS)", par)
	}
	if batch < 0 {
		return fmt.Sprintf("-batch %d is negative (0 means the engine default)", batch)
	}
	if persons <= 0 {
		return fmt.Sprintf("-persons %d must be positive", persons)
	}
	if timeout < 0 {
		return fmt.Sprintf("-timeout %v is negative (0 means no deadline)", timeout)
	}
	if tracePath != "" {
		if fi, err := os.Stat(tracePath); err == nil && fi.IsDir() {
			return fmt.Sprintf("-trace %q is a directory (want a file path)", tracePath)
		}
	}
	return ""
}

const usageLine = "usage: flexquery [-persons n] [-lang cypher|gremlin] [-store vineyard|gart|livegraph] [-par n] [-batch n] [-timeout d] [-explain] [-trace file.json] <query>"

func main() {
	persons := flag.Int("persons", 200, "SNB scale (persons)")
	lang := flag.String("lang", "cypher", "query language: cypher or gremlin")
	store := flag.String("store", "vineyard", "storage backend: vineyard, gart or livegraph")
	par := flag.Int("par", 0, "engine parallelism (0: GOMAXPROCS)")
	batch := flag.Int("batch", 0, "rows per batch (0: engine default)")
	timeout := flag.Duration("timeout", 0, "query execution deadline (0: none)")
	explain := flag.Bool("explain", false, "EXPLAIN ANALYZE: execute, then print the physical plan annotated with observed stats")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	flag.Parse()
	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, "flexquery: "+msg)
		fmt.Fprintln(os.Stderr, usageLine)
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		usage("expected exactly one query argument")
	}
	// Validate every flag before the dataset build: an unknown store or a
	// negative tuning knob must fail in milliseconds, not after generating
	// and loading an SNB graph.
	if msg := validateFlags(*store, *lang, *par, *batch, *persons, *timeout, *tracePath); msg != "" {
		usage(msg)
	}
	query := flag.Arg(0)

	b := dataset.SNB(dataset.SNBOptions{Persons: *persons, Seed: 1})
	var st grin.Graph
	var err error
	switch *store {
	case "vineyard":
		st, err = vineyard.Load(b)
	case "gart":
		gs := gart.NewStore(dataset.SNBSchema(), 0)
		if err = gs.LoadBatch(b); err == nil {
			st = gs.Latest()
		}
	case "livegraph":
		st, err = livegraph.LoadBatch(b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	schema := dataset.SNBSchema()
	var plan *ir.Plan
	switch *lang {
	case "cypher":
		plan, err = cypher.Parse(query, schema)
	case "gremlin":
		plan, err = gremlin.Parse(query, schema)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The observability collector is attached only when asked for: the plain
	// path runs with Request.Obs == nil, the disabled fast path.
	var obs *obsv.QueryStats
	if *explain || *tracePath != "" {
		obs = obsv.NewQueryStats()
		if *tracePath != "" {
			obs.Trace = obsv.NewTrace()
		}
		// Metering wraps the store so every GRIN trait call the engine makes
		// is counted per site, with native-vs-fallback visibility.
		obs.Store = &obsv.StoreStats{}
		st = meter.Wrap(st, obs.Store)
	}

	// The deadline covers query execution only: the interactive contract is
	// "this query gets d of engine time", not "minus however long the
	// dataset build took".
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	eng := gaia.NewEngine(st, gaia.Options{Parallelism: *par})
	c, err := eng.Compile(plan)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rows, err := eng.Run(ctx, c, exec.Request{BatchSize: *batch, Obs: obs})
	if *tracePath != "" && obs != nil && obs.Trace != nil {
		// The trace is written even when the query failed: a trace of the
		// run up to the failure is exactly what the flag is for.
		if werr := writeTrace(*tracePath, obs.Trace); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *explain {
		// EXPLAIN ANALYZE output: the stage tree annotated with observed
		// counters, the per-site store call profile, and the cardinality.
		fmt.Print(c.Explain(obs).Render(true))
		ss := obs.Store.Snapshot()
		fmt.Print(obsv.RenderStore(&ss))
		fmt.Printf("(%d rows)\n", len(rows))
		return
	}
	fmt.Println(strings.Join(c.Out, "\t"))
	for _, r := range rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.String()
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	fmt.Printf("(%d rows)\n", len(rows))
}

// writeTrace dumps the run's trace buffer as Chrome trace-event JSON.
func writeTrace(path string, tr *obsv.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
