// Package workload holds the benchmark's four workloads. Each one builds its
// part of the stack through the program's public entry points, computes the
// results it expects (the oracle), drives a timed window with tracing off,
// and — in trace mode — repeats a fixed number of operations with a span
// around every call it makes into a layer.
//
// Phases of one run, in order: set-up (timed, repeated, median reported as
// setup_s) → oracle (untimed) → warm-up (untimed) → timed window →
// trace-mode extras → verification.
package workload

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/benchmark/metrics"
	"repro/benchmark/span"
)

// Cores is the machine's core count and the value of every engine knob that
// means "cores": hiactor shards, gaia parallelism, grape fragments, and the
// most clients any workload runs.
const Cores = 2

// Scale sizes a run. Full is what the driver measures; Tiny keeps the
// in-process smoke test within seconds.
type Scale struct {
	Persons     int // dataset.SNB persons
	Vertices    int // dataset.Datagen vertices
	AvgDegree   int
	ShortPool   int // pooled bindings per short query
	ComplexPool int // pooled bindings per complex or BI query
	SetupReps   int
	Warmup      time.Duration
	TraceOps    int // traced operations on the hiactor workloads
	TraceRounds int // traced BI passes and graphalytics cycles
}

// Full is the scale every reported number is measured at.
var Full = Scale{Persons: 3000, Vertices: 20_000, AvgDegree: 16, ShortPool: 256, ComplexPool: 64,
	SetupReps: 9, Warmup: 2 * time.Second, TraceOps: 2000, TraceRounds: 3}

// Tiny is the smoke-test scale.
var Tiny = Scale{Persons: 100, Vertices: 2000, AvgDegree: 16, ShortPool: 16, ComplexPool: 4,
	SetupReps: 2, Warmup: 50 * time.Millisecond, TraceOps: 120, TraceRounds: 2}

// Config selects one run.
type Config struct {
	Workload string
	Seed     int64
	Duration time.Duration
	Trace    bool
	Scale    Scale
	// TraceOut, when set in trace mode, receives the Chrome trace-event JSON.
	TraceOut string
}

// instance is one workload built and ready to run.
type instance interface {
	// draw makes the seeded inputs: parameter pools, operation schedule,
	// update stream.
	draw()
	// scheduleHash digests everything the seed decided: dataset, pools,
	// operation schedule and update stream.
	scheduleHash() uint64
	// oracle computes the expected results. It is benchmark cost, not
	// set-up.
	oracle(r *run) error
	// window drives the workload's load for d with tracing off.
	window(d time.Duration) *window
	// roundOps is the number of consecutive operations of one client that
	// make a round: the shortest run of the schedule that always holds the
	// same mix of queries, and long enough for a tail percentile.
	roundOps() int
	// report turns the timed window into the workload's own class metrics.
	report(r *run, w *window)
	// trace runs the trace-mode extras and the fixed-count traced schedule.
	trace(r *run, w *window) error
	// verify makes the end-of-run correctness checks.
	verify(r *run) error
	close()
}

// builder constructs an instance; the call is what setup_s times. parts
// receives the component times (dataset.gen_s, gart.load_s, ...).
type builder func(cfg Config, parts map[string]float64) (instance, error)

var builders = map[string]builder{
	metrics.Interactive:  func(c Config, p map[string]float64) (instance, error) { return buildHiactor(c, p, false) },
	metrics.MixedRW:      func(c Config, p map[string]float64) (instance, error) { return buildHiactor(c, p, true) },
	metrics.BI:           buildBI,
	metrics.Graphalytics: buildGraphalytics,
}

var ctx = context.Background()

// run accumulates one run's measurements.
type run struct {
	cfg       Config
	vals      map[string]float64
	samples   map[string]int
	notes     []string
	attempted int64
	failed    int64
	// wrong counts oracle and verification mismatches outside the timed
	// window; any makes the run incorrect.
	wrong int64
}

func (r *run) set(name string, v float64) { r.vals[name] = v }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) mismatch(format string, args ...any) {
	r.attempted++ // a check outside the window is an attempt too
	r.wrong++
	if r.wrong <= 8 {
		r.note("MISMATCH "+format, args...)
	}
}

// derive gives every random stream of a run its own seed.
func derive(seed int64, stream int64) int64 { return seed*1_000_003 + stream }

// Run executes one workload once.
func Run(cfg Config) (*metrics.Result, error) {
	build, ok := builders[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.Workload, metrics.Workloads)
	}
	r := &run{cfg: cfg, vals: map[string]float64{}, samples: map[string]int{}}

	// Set-up, repeated: the median is setup_s, the last build is measured.
	var inst instance
	var setups []float64
	parts := map[string][]float64{}
	for i := 0; i < cfg.Scale.SetupReps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		p := map[string]float64{}
		t0 := span.Now()
		built, err := build(cfg, p)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, seconds(span.Now()-t0))
		inst = built
		for k, v := range p {
			parts[k] = append(parts[k], v)
		}
	}
	defer inst.close()
	r.set("setup_s", metrics.Median(setups))
	for k, v := range parts {
		r.set(k, metrics.Median(v))
	}

	inst.draw()
	if err := inst.oracle(r); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	inst.window(cfg.Scale.Warmup)

	d := cfg.Duration
	if cfg.Trace {
		// The traced run shares its time with the extras below.
		d /= 2
	}
	// Memory is the window's: what the oracle left behind is collected and
	// handed back before the watch starts.
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuNanos()
	stopWatch := watchMemory()
	w := inst.window(d)
	held := stopWatch()
	cpu := cpuNanos() - cpu0
	runtime.ReadMemStats(&m1)
	r.set("peak_mem_mb", held)

	r.attempted += int64(len(w.samples))
	var good int64
	for _, s := range w.samples {
		if s.ok {
			good++
		} else {
			r.failed++
		}
	}
	// The three timings come from the quiet half of the window (see quiet).
	q := w.quiet(inst.roundOps())
	lat := make([]int64, 0, len(q.samples))
	for _, s := range q.samples {
		if s.ok {
			lat = append(lat, s.lat)
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no operation completed correctly in the timed window (%d attempted)", len(w.samples))
	}
	slices.Sort(lat)
	r.set("ops_per_s", float64(len(lat))/seconds(q.busy)*float64(len(w.clients)))
	p50, _ := metrics.Percentile(lat, 50)
	r.set("lat_p50_ms", millis(p50))
	tailPct := metrics.TailPercentile[cfg.Workload]
	tail, beyond := metrics.Percentile(lat, tailPct)
	r.set("lat_tail_ms", millis(tail))
	if beyond < metrics.MinBeyond {
		r.note("lat_tail_ms: only %d samples beyond p%g (want %d)", beyond, tailPct, metrics.MinBeyond)
	}
	r.samples["lat"] = len(lat)
	r.samples["rounds"], r.samples["quiet_rounds"] = q.rounds, q.picked
	inst.report(r, w)

	if cfg.Trace {
		r.set("load.samples", float64(len(lat)))
		r.set("go.cpu_ms_per_op", millis(cpu)/float64(good))
		r.set("go.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(good))
		r.set("go.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(good))
		r.set("go.gc_cycles", float64(m1.NumGC-m0.NumGC))
		r.set("go.gc_pause_ms", millis(int64(m1.PauseTotalNs-m0.PauseTotalNs)))
		if err := inst.trace(r, w); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	if err := inst.verify(r); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}

	res := &metrics.Result{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Duration.Seconds(), Trace: cfg.Trace,
		Correct:   r.failed == 0 && r.wrong == 0,
		Attempted: r.attempted, Failed: r.failed + r.wrong,
		ScheduleHash: fmt.Sprintf("%016x", inst.scheduleHash()),
		Samples:      r.samples, Metrics: map[string]metrics.Value{}, Notes: r.notes,
	}
	for _, defs := range [][]metrics.Def{metrics.EndToEnd, metrics.PerLayer} {
		for _, d := range defs {
			v, measured := r.vals[d.Name]
			if !measured && d.AppliesTo(cfg.Workload) && (cfg.Trace || d.Bound > 0) {
				return nil, fmt.Errorf("metric %s was not measured on %s", d.Name, cfg.Workload)
			}
			if measured && !d.AppliesTo(cfg.Workload) {
				return nil, fmt.Errorf("metric %s measured on %s, where its layer is bypassed", d.Name, cfg.Workload)
			}
			if measured || cfg.Trace {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("metric %s is %v", d.Name, v)
				}
				res.Metrics[d.Name] = metrics.Value{Value: v, Unit: d.Unit}
			}
		}
	}
	return res, nil
}

// sample is one operation of a closed-loop client.
type sample struct {
	end   int64 // span.Now at completion
	lat   int64
	class uint8
	ok    bool
}

// window is the outcome of one untraced load window.
type window struct {
	start   int64
	dur     int64 // requested length
	samples []sample
	clients [][]sample  // the same samples, each client's in the order it ran them
	writes  *writeStats // snb_mixed_rw only
}

// opFunc runs the client's next operation. It reads the clock itself, right
// after the program returns, so that checking the result is not timed; ok is
// false for an error or a wrong result.
type opFunc func(client int) (class uint8, end int64, ok bool)

// closedLoop runs clients closed-loop clients for d: each sends its next
// operation only after the previous one completes. An operation started
// before the deadline is allowed to finish and is counted.
func closedLoop(d time.Duration, clients int, op opFunc) *window {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	w := &window{start: span.Now(), dur: int64(d)}
	deadline := w.start + w.dur
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]sample, 0, 1<<14)
			for t0 := span.Now(); t0 < deadline; t0 = span.Now() {
				class, end, ok := op(c)
				buf = append(buf, sample{end: end, lat: end - t0, class: class, ok: ok})
			}
			per[c] = buf
		}(c)
	}
	wg.Wait()
	w.clients = per
	for _, buf := range per {
		w.samples = append(w.samples, buf...)
	}
	return w
}

// quietShare is the share of a window's rounds that the three timings
// (ops_per_s, lat_p50_ms, lat_tail_ms) are taken from, and minRounds the
// number of complete rounds below which the whole window is used instead (a
// smoke test's window).
const (
	quietShare = 0.5
	minRounds  = 4
)

// quietPart is the part of a window its timings are taken from.
type quietPart struct {
	samples []sample
	busy    int64 // summed wall time of the picked rounds, client by client
	rounds  int   // complete rounds in the window
	picked  int
}

// quiet cuts each client's operations into rounds of roundOps consecutive
// operations and returns the fastest quietShare of the rounds. Every round of
// a workload holds the same mix of queries, so rounds differ by what the host
// did to them: the machine is a small share of a busy host, whose other
// tenants slow the program for seconds at a time and never speed it up. The
// rounds they left alone are the ones that measure the program. Operations
// after a client's last complete round are counted but not timed.
func (w *window) quiet(roundOps int) quietPart {
	type round struct {
		ops  []sample
		wall int64
	}
	var rounds []round
	var whole quietPart
	for _, ops := range w.clients {
		if len(ops) > 0 {
			whole.busy += ops[len(ops)-1].end - (ops[0].end - ops[0].lat)
			whole.samples = append(whole.samples, ops...)
		}
		for ; len(ops) >= roundOps; ops = ops[roundOps:] {
			rounds = append(rounds, round{ops[:roundOps], ops[roundOps-1].end - (ops[0].end - ops[0].lat)})
		}
	}
	whole.rounds = len(rounds)
	if len(rounds) < minRounds {
		return whole
	}
	slices.SortStableFunc(rounds, func(a, b round) int { return cmp.Compare(a.wall, b.wall) })
	q := quietPart{rounds: len(rounds), picked: int(math.Ceil(quietShare * float64(len(rounds))))}
	for _, r := range rounds[:q.picked] {
		q.samples = append(q.samples, r.ops...)
		q.busy += r.wall
	}
	return q
}

// classLatencies returns the ascending latencies of the window's correct
// operations of one class.
func (w *window) classLatencies(class uint8) []int64 {
	var out []int64
	for _, s := range w.samples {
		if s.ok && s.class == class {
			out = append(out, s.lat)
		}
	}
	slices.Sort(out)
	return out
}

// setPercentile reports percentile p of sorted under name, scaled by unit
// nanoseconds, when the percentile rule allows it; otherwise it notes why
// the metric reads 0.
func (r *run) setPercentile(name string, sorted []int64, p float64, unit float64) {
	r.samples[name] = len(sorted)
	v, ok := metrics.Reportable(sorted, p)
	if !ok {
		r.note("%s: %d samples are too few for p%g", name, len(sorted), p)
		v = 0
	}
	r.set(name, float64(v)/unit)
}

// alignUp rounds n up to a multiple of unit.
func alignUp(n, unit int) int { return (n + unit - 1) / unit * unit }

func seconds(nanos int64) float64 { return float64(nanos) / 1e9 }
func millis(nanos int64) float64  { return float64(nanos) / 1e6 }
func micros(nanos int64) float64  { return float64(nanos) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer that did nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heldMiB is the memory the Go runtime holds from the operating system:
// everything it has mapped less what it has handed back. Under MADV_FREE (see
// main.go) the kernel keeps counting handed-back pages as resident until it
// needs them, so the resident-set mark would show the garbage of whatever
// ran before the window.
func heldMiB() float64 {
	s := []rtmetrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

const memTick = 10 * time.Millisecond

// watchMemory samples heldMiB every memTick until stop is called, which
// returns the highest reading.
func watchMemory() (stop func() float64) {
	quit, peak := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(memTick)
		defer tick.Stop()
		high := heldMiB()
		for {
			select {
			case <-tick.C:
				high = max(high, heldMiB())
			case <-quit:
				peak <- max(high, heldMiB())
				return
			}
		}
	}()
	return func() float64 { close(quit); return <-peak }
}

// writeTrace writes the recorder's kept spans as Chrome trace-event JSON.
func writeTrace(path string, rec *span.Recorder) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
