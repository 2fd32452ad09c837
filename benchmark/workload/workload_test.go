package workload

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/benchmark/metrics"
)

func tiny(workload string, seed int64, trace bool) Config {
	return Config{Workload: workload, Seed: seed, Duration: 300 * time.Millisecond, Trace: trace, Scale: Tiny}
}

// TestSmoke runs every workload untraced and traced at tiny scale and checks
// that each metric of the registry is emitted exactly where it applies, with
// its declared unit, and that exact counts repeat.
func TestSmoke(t *testing.T) {
	for _, w := range metrics.Workloads {
		t.Run(w, func(t *testing.T) {
			if raceDetector && w == metrics.MixedRW {
				// gart.Snapshot.ExpandBatch reads the store's adjacency
				// slice headers without the lock AddVertex appends under
				// (internal/storage/gart/batch.go:38, gart.go:166): a data
				// race in the program, found by this workload and recorded
				// in README.md. The benchmark may not edit internal/, so
				// the one workload that inserts vertices beside readers is
				// left to the plain `go test` run.
				t.Skip("internal/storage/gart races between AddVertex and lock-free snapshot reads")
			}
			res, err := Run(tiny(w, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v, %d of %d failed; notes %v", res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			for _, d := range metrics.EndToEnd {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v (present %v), want a positive value in %s", d.Name, m, ok, d.Unit)
				}
			}

			cfg := tiny(w, 1, true)
			cfg.TraceOut = filepath.Join(t.TempDir(), "trace.json")
			first, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Correct || first.Failed != 0 {
				t.Fatalf("traced run: correct=%v, %d of %d failed; notes %v", first.Correct, first.Failed, first.Attempted, first.Notes)
			}
			if len(first.Metrics) != len(metrics.EndToEnd)+len(metrics.PerLayer) {
				t.Errorf("traced run emitted %d metrics, the registry has %d", len(first.Metrics), len(metrics.EndToEnd)+len(metrics.PerLayer))
			}
			for _, d := range metrics.PerLayer {
				m, ok := first.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("per-layer metric %s = %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
				}
				if !d.AppliesTo(w) && m.Value != 0 {
					t.Errorf("%s = %v on %s, whose path bypasses that layer", d.Name, m.Value, w)
				}
				if d.Exact && m.Value != second.Metrics[d.Name].Value {
					t.Errorf("exact count %s did not repeat: %v then %v", d.Name, m.Value, second.Metrics[d.Name].Value)
				}
			}
			if first.ScheduleHash != res.ScheduleHash || first.ScheduleHash != second.ScheduleHash {
				t.Errorf("schedule hash moved between runs of one seed: %s %s %s", res.ScheduleHash, first.ScheduleHash, second.ScheduleHash)
			}

			data, err := os.ReadFile(cfg.TraceOut)
			if err != nil {
				t.Fatal(err)
			}
			var events []struct {
				Name string
				Ph   string
				Dur  float64
			}
			if err := json.Unmarshal(data, &events); err != nil {
				t.Fatalf("Chrome trace does not load: %v", err)
			}
			roots := 0
			for _, e := range events {
				if e.Name == "op" {
					roots++
				}
			}
			if roots == 0 {
				t.Error("Chrome trace holds no operation root span")
			}
		})
	}
}

func TestSeedDecidesTheSchedule(t *testing.T) {
	for _, w := range metrics.Workloads {
		hash := func(seed int64) uint64 {
			inst, err := builders[w](tiny(w, seed, false), map[string]float64{})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			inst.draw()
			return inst.scheduleHash()
		}
		a, again, b := hash(1), hash(1), hash(2)
		if a != again {
			t.Errorf("%s: seed 1 gave schedule %016x, then %016x", w, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule %016x", w, a)
		}
	}
}

// TestOpenLoopTimesFromDueTime drives the writer's loop with a fake clock: a
// burst that stalls makes the bursts behind it late, and each is timed from
// when it was due, not from when it started.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clock := int64(1000)
	cost := []int64{5, 50, 5, 5} // the second burst stalls past two intervals
	k := 0
	ws := openLoop(1000, len(cost), 20,
		func() int64 { return clock },
		func(ns int64) { clock += ns },
		func() int64 { clock += cost[k]; k++; return 0 })
	// Due at 1000, 1020, 1040, 1060. Burst 1 ends at 1070, so burst 2
	// starts 30 late and burst 3 starts 15 late.
	wantLate := []int64{0, 0, 30, 15}
	wantLat := []int64{5, 50, 35, 20}
	for i := range cost {
		if ws.late[i] != wantLate[i] || ws.lat[i] != wantLat[i] {
			t.Errorf("burst %d: started %d late, took %d from its due time; want %d and %d", i, ws.late[i], ws.lat[i], wantLate[i], wantLat[i])
		}
	}
	if ws.failed != 0 {
		t.Errorf("failed = %d", ws.failed)
	}
}

// TestQuietHalf cuts two clients' operations into rounds and checks that the
// timings come from the fastest half of them, that a trailing partial round
// is left out, and that a window too short for rounds is used whole.
func TestQuietHalf(t *testing.T) {
	// ops builds back-to-back operations with the given latencies.
	ops := func(start int64, lats ...int64) []sample {
		var out []sample
		for _, l := range lats {
			start += l
			out = append(out, sample{end: start, lat: l, ok: true})
		}
		return out
	}
	w := &window{clients: [][]sample{
		ops(0, 10, 10, 30, 30, 10, 12, 99), // rounds of 20, 60, 22 and one operation over
		ops(5, 50, 50, 11, 10),             // rounds of 100, 21
	}}
	q := w.quiet(2)
	if q.rounds != 5 || q.picked != 3 {
		t.Fatalf("rounds = %d, picked = %d; want 5 and 3", q.rounds, q.picked)
	}
	if q.busy != 20+21+22 || len(q.samples) != 6 {
		t.Errorf("the quiet half lasts %d over %d operations, want 63 over 6", q.busy, len(q.samples))
	}
	for _, s := range q.samples {
		if s.lat > 12 {
			t.Errorf("an operation of %d is in the quiet half", s.lat)
		}
	}

	short := &window{clients: [][]sample{ops(0, 10, 20, 30, 40, 50, 60, 70)}} // three rounds: too few
	q = short.quiet(2)
	if q.rounds != 3 || q.picked != 0 || len(q.samples) != 7 || q.busy != 280 {
		t.Errorf("short window: %d rounds, %d picked, %d operations over %d; want it whole: 3, 0, 7 over 280", q.rounds, q.picked, len(q.samples), q.busy)
	}
}
