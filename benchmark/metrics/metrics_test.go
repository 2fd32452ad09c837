package metrics

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	s := make([]int64, 500)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if v, beyond := Percentile(s, 99); v != 495 || beyond != 5 {
		t.Fatalf("p99 of 1..500 = %d with %d beyond, want 495 with 5", v, beyond)
	}
	if _, ok := Reportable(s, 99); ok {
		t.Error("p99 reported with only 5 samples beyond it")
	}
	if v, ok := Reportable(s, 95); !ok || v != 475 {
		t.Errorf("p95 = %d, %v; want 475 reported (25 samples beyond)", v, ok)
	}
	if v, ok := Reportable(s[:7], 50); !ok || v != 4 {
		t.Errorf("median of 7 samples = %d, %v; want 4 reported", v, ok)
	}
	if _, ok := Reportable(nil, 50); ok {
		t.Error("median of no samples reported")
	}
	// Exactly ten beyond is enough: 1000 samples for p99.
	big := make([]int64, 1000)
	if _, ok := Reportable(big, 99); !ok {
		t.Error("p99 of 1000 samples not reported")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]; the median is 13.5.
	got, ok := Spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, %v; want %v", got, ok, want)
	}
	if _, ok := Spread([]float64{1, 2, 3}); ok {
		t.Error("spread of three values reported")
	}
}

func set(trace bool, metric string, values ...float64) Set {
	var s Set
	for _, v := range values {
		s.Results = append(s.Results, Result{Workload: BI, Trace: trace, Metrics: map[string]Value{metric: {Value: v}}})
	}
	return s
}

func status(t *testing.T, vs []Verdict, metric string) string {
	t.Helper()
	for _, v := range vs {
		if v.Metric == metric && v.Workload == BI {
			return v.Status
		}
	}
	t.Fatalf("no verdict for %s", metric)
	return ""
}

func TestCompare(t *testing.T) {
	// ops_per_s: higher is better, bound 0.25.
	if got := status(t, Compare(set(false, "ops_per_s", 100), set(false, "ops_per_s", 80)), "ops_per_s"); got != "ok" {
		t.Errorf("20%% slower: %s, want ok", got)
	}
	if got := status(t, Compare(set(false, "ops_per_s", 100), set(false, "ops_per_s", 70)), "ops_per_s"); got != "worse" {
		t.Errorf("30%% slower: %s, want worse", got)
	}
	// A lower-is-better metric worsens upwards.
	if got := status(t, Compare(set(false, "lat_p50_ms", 10), set(false, "lat_p50_ms", 13)), "lat_p50_ms"); got != "worse" {
		t.Errorf("30%% higher latency: %s, want worse", got)
	}
	if got := status(t, Compare(set(false, "lat_p50_ms", 10), set(false, "lat_p50_ms", 7)), "lat_p50_ms"); got != "ok" {
		t.Errorf("30%% lower latency: %s, want ok", got)
	}
	// The base's own runs spread wider than the bound: not "unchanged".
	noisy := set(false, "ops_per_s", 40, 70, 100, 130, 160)
	if got := status(t, Compare(noisy, set(false, "ops_per_s", 100)), "ops_per_s"); got != "unresolved" {
		t.Errorf("noisy base: %s, want unresolved", got)
	}
	// Exact counts must be identical.
	if got := status(t, Compare(set(true, "vineyard.calls_per_op", 970.3), set(true, "vineyard.calls_per_op", 970.3)), "vineyard.calls_per_op"); got != "ok" {
		t.Errorf("equal counts: %s, want ok", got)
	}
	vs := Compare(set(true, "vineyard.calls_per_op", 970.3), set(true, "vineyard.calls_per_op", 970.4))
	if got := status(t, vs, "vineyard.calls_per_op"); got != "differs" {
		t.Errorf("changed count: %s, want differs", got)
	}
	if !vs[0].Failed() {
		t.Error("a changed exact count does not fail the comparison")
	}
	// A metric one side lacks fails.
	if got := status(t, Compare(set(false, "ops_per_s", 100), Set{Results: []Result{{Workload: BI}}}), "ops_per_s"); got != "missing" {
		t.Errorf("absent metric: %s, want missing", got)
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json, which the driver reads, equal
// to the registry the benchmark reports from.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the registry %d", len(file.Workloads), len(Workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d is %q, registry has %q", i, w.Name, Workloads[i])
		}
		if _, ok := TailPercentile[w.Name]; !ok {
			t.Errorf("workload %q has no tail percentile", w.Name)
		}
	}
	check := func(kind string, got []metric, want []Def, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the registry %d", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "higher"
			if d.Lower {
				better = "lower"
			}
			m := got[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, the registry %s %s %s", kind, i, m.Name, m.Unit, m.Better, d.Name, d.Unit, better)
			}
			if bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound in BENCHMARK.json %v, in the registry %v", d.Name, m.Bound, d.Bound)
			}
			if !bounded && (m.Bound != nil || d.Bound != 0) {
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, EndToEnd, true)
	check("per_layer", file.PerLayer, PerLayer, false)
	seen := map[string]bool{}
	for _, defs := range [][]Def{EndToEnd, PerLayer} {
		for _, d := range defs {
			if seen[d.Name] {
				t.Errorf("metric %s is defined twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
}
