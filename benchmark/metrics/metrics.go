// Package metrics is the benchmark's metric registry and arithmetic: the
// names, units and bounds every later performance claim refers to, the
// percentile rule, and the comparison of two result sets. BENCHMARK.json at
// the repository root repeats the registry for the driver; a test keeps the
// two in step.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Workload names, in run order.
const (
	Interactive  = "snb_interactive"
	MixedRW      = "snb_mixed_rw"
	BI           = "snb_bi"
	Graphalytics = "graphalytics"
)

// Workloads lists every workload in run order.
var Workloads = []string{Interactive, MixedRW, BI, Graphalytics}

// Def describes one metric.
type Def struct {
	Name string
	Unit string
	// Lower reports the direction: true when a lower value is better.
	Lower bool
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before it counts as a regression; zero for per-layer
	// metrics, which are informational.
	Bound float64
	// Exact marks a per-layer count taken from the traced run's fixed-count
	// schedule: it must repeat exactly between runs of one commit and seed.
	Exact bool
	// On lists the workloads the metric is measured on; on the others the
	// layer is bypassed and the traced run reports 0. Empty means all.
	On []string
}

// AppliesTo reports whether the metric is measured (not structurally zero)
// on the workload.
func (d Def) AppliesTo(workload string) bool {
	if len(d.On) == 0 {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	hiactor = []string{Interactive, MixedRW}
	inter   = []string{Interactive}
	mixed   = []string{MixedRW}
	bi      = []string{BI}
	galy    = []string{Graphalytics}
	query   = []string{Interactive, MixedRW, BI}
)

// EndToEnd are the metrics a user of the system sees, measured with tracing
// off on every workload. Every bound is the most the driver allows: on the
// two-core virtual machine the bounds were measured on, the host has slow
// phases that last minutes and move every timing by 10–25 % (README.md, "How
// the bounds were measured"), and a tighter bound would reject changes for
// the host's noise.
var EndToEnd = []Def{
	{Name: "setup_s", Unit: "s", Lower: true, Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Lower: false, Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Lower: true, Bound: 0.25},
	{Name: "lat_tail_ms", Unit: "ms", Lower: true, Bound: 0.25},
	{Name: "peak_mem_mb", Unit: "MiB", Lower: true, Bound: 0.25},
}

// PerLayer are the metrics of single layers, reported by the traced run.
// Times are informational; Exact counts must repeat.
var PerLayer = []Def{
	{Name: "dataset.gen_s", Unit: "s", Lower: true},

	{Name: "vineyard.load_s", Unit: "s", Lower: true, On: bi},
	{Name: "vineyard.calls_per_op", Unit: "count", Lower: true, Exact: true, On: bi},
	{Name: "vineyard.batch_call_frac", Unit: "ratio", Exact: true, On: bi},
	{Name: "vineyard.busy_frac", Unit: "ratio", Lower: true, On: bi},
	{Name: "vineyard.expand_rows_per_call", Unit: "count", Exact: true, On: bi},
	{Name: "vineyard.col_gather_frac", Unit: "ratio", Exact: true, On: bi},

	{Name: "gart.load_s", Unit: "s", Lower: true, On: hiactor},
	{Name: "gart.calls_per_op", Unit: "count", Lower: true, Exact: true, On: hiactor},
	{Name: "gart.batch_call_frac", Unit: "ratio", Exact: true, On: hiactor},
	{Name: "gart.busy_frac", Unit: "ratio", Lower: true, On: hiactor},
	{Name: "gart.latest_ns", Unit: "ns", Lower: true, On: hiactor},
	{Name: "gart.write_us_per_op", Unit: "us", Lower: true, On: mixed},
	{Name: "gart.versions", Unit: "count", Exact: true, On: hiactor},
	{Name: "gart.write_fail", Unit: "count", Lower: true, Exact: true, On: mixed},
	{Name: "gart.read_slowdown", Unit: "ratio", On: mixed},

	{Name: "csr.build_s", Unit: "s", Lower: true, On: galy},

	{Name: "cypher.parse_us_per_op", Unit: "us", Lower: true, On: bi},
	{Name: "cypher.parse_fail", Unit: "count", Lower: true, Exact: true, On: bi},

	{Name: "optimizer.optimize_us_per_op", Unit: "us", Lower: true, On: bi},
	{Name: "optimizer.catalog_build_ms", Unit: "ms", Lower: true, On: query},

	{Name: "exec.compile_us_per_op", Unit: "us", Lower: true, On: bi},
	{Name: "exec.rows_in_per_result", Unit: "count", Lower: true, Exact: true, On: query},
	{Name: "exec.batches_per_op", Unit: "count", Lower: true, Exact: true, On: query},
	{Name: "exec.kernel_path_ratio", Unit: "ratio", Exact: true, On: query},
	{Name: "exec.sel_survivor_ratio", Unit: "ratio", Exact: true, On: query},
	{Name: "exec.boxed_result_rows_per_op", Unit: "count", Lower: true, Exact: true, On: query},

	{Name: "gaia.run_us_per_op", Unit: "us", Lower: true, On: bi},
	{Name: "gaia.self_frac", Unit: "ratio", Lower: true, On: bi},
	{Name: "gaia.worker_busy_frac", Unit: "ratio", On: bi},
	{Name: "gaia.morsels_per_op", Unit: "count", Exact: true, On: bi},
	{Name: "gaia.segments_per_op", Unit: "count", Exact: true, On: bi},
	{Name: "gaia.pool_hit_ratio", Unit: "ratio", On: bi},

	{Name: "hiactor.call_us_per_op", Unit: "us", Lower: true, On: hiactor},
	{Name: "hiactor.self_frac", Unit: "ratio", Lower: true, On: hiactor},
	{Name: "hiactor.mailbox_depth_max", Unit: "count", Lower: true, On: hiactor},
	{Name: "hiactor.shed", Unit: "count", Lower: true, On: hiactor},
	{Name: "hiactor.hol_ratio", Unit: "ratio", Lower: true, On: inter},

	{Name: "algorithms.pagerank_ms_frag1", Unit: "ms", Lower: true, On: galy},
	{Name: "algorithms.pagerank_frag_speedup", Unit: "ratio", On: galy},
	{Name: "algorithms.checksum_ok", Unit: "count", Exact: true, On: galy},

	{Name: "go.cpu_ms_per_op", Unit: "ms", Lower: true},
	{Name: "go.allocs_per_op", Unit: "count", Lower: true},
	{Name: "go.alloc_bytes_per_op", Unit: "B", Lower: true},
	{Name: "go.gc_cycles", Unit: "count", Lower: true},
	{Name: "go.gc_pause_ms", Unit: "ms", Lower: true},

	{Name: "trace.overhead_frac", Unit: "ratio", Lower: true},
	{Name: "load.writer_late_p95_ms", Unit: "ms", Lower: true, On: mixed},
	{Name: "load.samples", Unit: "count"},

	// Per-class latencies of the untraced window. They are what a user of
	// one workload sees, but no class exists on every workload, so the
	// driver cannot bound them; they are reported here instead.
	{Name: "short_p50_us", Unit: "us", Lower: true, On: hiactor},
	{Name: "short_p99_us", Unit: "us", Lower: true, On: hiactor},
	{Name: "complex_p50_ms", Unit: "ms", Lower: true, On: hiactor},
	{Name: "complex_p99_ms", Unit: "ms", Lower: true, On: hiactor},
	{Name: "write_p95_ms", Unit: "ms", Lower: true, On: mixed},
	{Name: "pagerank_p50_ms", Unit: "ms", Lower: true, On: galy},
	{Name: "bfs_p50_ms", Unit: "ms", Lower: true, On: galy},
	{Name: "wcc_p50_ms", Unit: "ms", Lower: true, On: galy},
}

// TailPercentile is the percentile lat_tail_ms reports on each workload,
// fixed per workload so that a faster system does not silently switch to a
// harsher percentile. On snb_bi p99 lies inside the latencies of the slowest
// query (one in twenty operations is BI10), where p90 and p95 would sit on
// the edge between two queries and jump. A graphalytics cycle is three runs,
// so p75 lies inside the PageRank times.
var TailPercentile = map[string]float64{
	Interactive:  99,
	MixedRW:      99,
	BI:           99,
	Graphalytics: 75,
}

// MinBeyond is the number of samples that must lie beyond a percentile for
// it to be reported.
const MinBeyond = 10

// Value is one measured metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Percentile returns the nearest-rank p-th percentile of ascending samples
// and the number of samples strictly beyond that rank. It returns 0, 0 for
// an empty sample.
func Percentile(sorted []int64, p float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// Reportable applies the percentile rule: a percentile above the median is
// reported only when at least MinBeyond samples lie beyond it.
func Reportable(sorted []int64, p float64) (v int64, ok bool) {
	v, beyond := Percentile(sorted, p)
	return v, len(sorted) > 0 && (p <= 50 || beyond >= MinBeyond)
}

// Median returns the median of the values (mean of the middle two for an
// even count), or 0 when there are none.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Spread is the distance between the first and third quartile as a share of
// the median, using the same exclusive quartile method as Python's
// statistics.quantiles(values, n=4). ok is false with fewer than four values
// or a zero median.
func Spread(vs []float64) (spread float64, ok bool) {
	n := len(vs)
	if n < 4 {
		return 0, false
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := Median(s)
	if med == 0 {
		return 0, false
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med), true
}

// Result is the outcome of one run of one workload.
type Result struct {
	Workload     string           `json:"workload"`
	Seed         int64            `json:"seed"`
	Seconds      float64          `json:"seconds"`
	Trace        bool             `json:"trace"`
	Correct      bool             `json:"correct"`
	Attempted    int64            `json:"attempted"`
	Failed       int64            `json:"failed"`
	ScheduleHash string           `json:"schedule_hash"`
	Samples      map[string]int   `json:"samples,omitempty"`
	Metrics      map[string]Value `json:"metrics"`
	Notes        []string         `json:"notes,omitempty"`
}

// Set is what `run -out` writes and `compare` reads. Claim is null in the
// change that defines the benchmark: it claims no gain.
type Set struct {
	Results []Result `json:"results"`
	Claim   *string  `json:"claim"`
}

// Verdict is one row of a comparison.
type Verdict struct {
	Workload, Metric string
	Base, Change     float64
	// Status is "ok", "worse", "differs" (an exact count changed),
	// "unresolved" (spread wider than the bound) or "missing".
	Status string
}

// Failed reports whether the verdict rejects the change.
func (v Verdict) Failed() bool {
	return v.Status == "worse" || v.Status == "differs" || v.Status == "missing"
}

func (s Set) values(workload string, trace bool, metric string) []float64 {
	var out []float64
	for _, r := range s.Results {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// Compare applies the bounds: for every end-to-end metric on every workload
// the change's median may not be worse than the base's by more than the
// bound, and every exact per-layer count must be identical. A metric whose
// spread between the base's own runs exceeds its bound is unresolved: the
// runs cannot tell a regression from noise.
func Compare(base, change Set) []Verdict {
	var out []Verdict
	for _, w := range Workloads {
		for _, d := range EndToEnd {
			b, c := base.values(w, false, d.Name), change.values(w, false, d.Name)
			if len(b) == 0 && len(c) == 0 {
				continue
			}
			v := Verdict{Workload: w, Metric: d.Name, Base: Median(b), Change: Median(c), Status: "ok"}
			switch {
			case len(b) == 0 || len(c) == 0:
				v.Status = "missing"
			case worse(d, v.Base, v.Change):
				v.Status = "worse"
			default:
				if sp, ok := Spread(b); ok && sp > d.Bound {
					v.Status = "unresolved"
				}
			}
			out = append(out, v)
		}
		for _, d := range PerLayer {
			if !d.Exact {
				continue
			}
			b, c := base.values(w, true, d.Name), change.values(w, true, d.Name)
			if len(b) == 0 && len(c) == 0 {
				continue
			}
			v := Verdict{Workload: w, Metric: d.Name, Base: Median(b), Change: Median(c), Status: "ok"}
			if len(b) == 0 || len(c) == 0 {
				v.Status = "missing"
			} else if !allEqual(append(append([]float64(nil), b...), c...)) {
				v.Status = "differs"
			}
			out = append(out, v)
		}
	}
	return out
}

func worse(d Def, base, change float64) bool {
	if d.Lower {
		return change > base*(1+d.Bound)
	}
	return change < base*(1-d.Bound)
}

func allEqual(vs []float64) bool {
	for _, v := range vs[1:] {
		if v != vs[0] {
			return false
		}
	}
	return true
}

// String renders the verdict as one report line.
func (v Verdict) String() string {
	return fmt.Sprintf("%-16s %-34s base %-14.6g change %-14.6g %s", v.Workload, v.Metric, v.Base, v.Change, v.Status)
}
