// Package bench is the experiment harness: one function per table/figure of
// the paper's evaluation (§9), each running the scaled-down workload and
// returning a formatted table with the same rows/series the paper reports.
// cmd/flexbench prints them; bench_test.go wraps the hot paths in testing.B.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/query/obsv"
)

// Table is one experiment's result, printable in paper-table form.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Counters carries stage-stats observability counters for the
	// experiment's workload (result rows, batches, kernel-path ratio, ...),
	// collected from a separate observed run so the timed cells stay on the
	// disabled fast path. flexbench -json embeds them.
	Counters map[string]float64 `json:",omitempty"`
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// foldCounters accumulates one observed run's stage counters into the
// experiment's Counters map: result rows (the final stage's output), total
// batches, and the kernel-vs-boxed filter step split. kernel_path_ratio is
// re-derived from the accumulated splits so folds from several queries merge
// correctly (a mean of per-run ratios would not).
func foldCounters(tab *Table, obs *obsv.QueryStats) {
	if tab.Counters == nil {
		tab.Counters = map[string]float64{}
	}
	stages := obs.StageSnapshots()
	if n := len(stages); n > 0 {
		tab.Counters["rows"] += float64(stages[n-1].RowsOut)
	}
	var batches, kernel, boxed int64
	for _, s := range stages {
		batches += s.Batches
		kernel += s.KernelSteps
		boxed += s.BoxedSteps
	}
	tab.Counters["batches"] += float64(batches)
	tab.Counters["kernel_steps"] += float64(kernel)
	tab.Counters["boxed_steps"] += float64(boxed)
	if k, x := tab.Counters["kernel_steps"], tab.Counters["boxed_steps"]; k+x > 0 {
		tab.Counters["kernel_path_ratio"] = k / (k + x)
	} else {
		tab.Counters["kernel_path_ratio"] = 1
	}
}

// quick scales experiments down so the whole registry runs in seconds.
var quick bool

// SetQuick toggles quick mode: experiments shrink their workloads (fewer
// persons, shorter streams, fewer training steps) while keeping every code
// path, so the root smoke test can run each experiment once — including
// under the race detector. Not safe to toggle concurrently with Run.
func SetQuick(q bool) { quick = q }

// scaled selects the full or quick-mode value of a workload parameter.
func scaled(full, quickVal int) int {
	if quick {
		return quickVal
	}
	return full
}

// timeIt runs fn reps times and returns the median run time (the mean of
// the middle two for an even count), so one run slowed by a neighbour on a
// shared machine does not move the figure.
func timeIt(reps int, fn func()) time.Duration {
	runs := make([]time.Duration, max(reps, 1))
	for i := range runs {
		start := time.Now()
		fn()
		runs[i] = time.Since(start)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	mid := len(runs) / 2
	if len(runs)%2 == 0 {
		return (runs[mid-1] + runs[mid]) / 2
	}
	return runs[mid]
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

func speedup(base, fast time.Duration) string {
	if fast == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(base)/float64(fast))
}

// queryTimeout bounds one experiment's query executions (0: none). Wired by
// flexbench's -timeout flag into the engines' query deadlines: every
// Submit/Call inside the experiment runs under the same expiring context.
var queryTimeout time.Duration

// SetQueryTimeout installs a per-experiment deadline for the queries the
// experiments execute. Not safe to toggle concurrently with Run.
func SetQueryTimeout(d time.Duration) { queryTimeout = d }

// benchCtx is the context experiments submit queries under; Run installs a
// deadline-carrying context when a query timeout is set.
var benchCtx = context.Background()

// Registry maps experiment IDs to runners.
var registry = map[string]func() (*Table, error){}

func register(id string, fn func() (*Table, error)) {
	registry[id] = fn
}

// Run executes one experiment by ID.
func Run(id string) (*Table, error) {
	fn, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	if queryTimeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
		defer cancel()
		benchCtx = ctx
		defer func() { benchCtx = context.Background() }()
	}
	return fn()
}

// IDs lists registered experiments in order.
func IDs() []string {
	var ids []string
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
