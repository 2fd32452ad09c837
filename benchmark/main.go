// Command benchmark is the repository's performance authority: four named
// workloads, the end-to-end metrics a user would see, and a per-layer trace.
// See README.md for the definitions and BENCHMARK.json (repository root) for
// the contract the driver reads.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run of one workload
//	benchmark [--repeat R] --out set.json                     every workload, untraced and traced
//	benchmark compare base.json change.json                   apply the bounds
//
// Every workload runs in its own process (the all-workloads mode re-executes
// this binary), so set-up time, peak memory and heap state never leak from
// one workload into the next.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/benchmark/metrics"
	"repro/benchmark/workload"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// lazyFree makes the Go runtime return freed heap with MADV_FREE instead of
// MADV_DONTNEED: the kernel takes such pages only when it needs memory, so a
// heap that shrinks and grows again between queries (snb_bi: 70 000 page
// faults a second, 40 % of the run in the kernel) does not fault every page
// back in. How long a fault takes is the host's business, not the program's,
// and it was the largest single source of run-to-run spread on snb_bi. The
// setting is read when the process starts, hence the re-execution.
const lazyFree = "madvdontneed=0"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	if env := os.Getenv("GODEBUG"); !strings.Contains(env, lazyFree) {
		if self, err := os.Executable(); err == nil {
			os.Setenv("GODEBUG", strings.TrimPrefix(env+","+lazyFree, ","))
			err = syscall.Exec(self, os.Args, os.Environ())
			fmt.Fprintln(os.Stderr, "benchmark: re-executing with GODEBUG="+lazyFree+":", err)
		}
	}
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	secs := flag.Int("seconds", defaultSeconds, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	out := flag.String("out", "", "write the results as a JSON set to this file")
	repeat := flag.Int("repeat", 1, "with -workload all: how many times to run each workload")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory for Chrome trace-event files")
	flag.Parse()
	if flag.NArg() > 0 || *secs < 1 || *trace < 0 || *trace > 1 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out f.json] | compare a.json b.json")
		os.Exit(2)
	}
	var err error
	if *name == "all" {
		err = runAll(*seed, *secs, *repeat, *out, *traceDir)
	} else {
		err = runOne(*name, *seed, *secs, *trace == 1, *out, *traceDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints every metric by
// name, value and unit; the last line of standard output is the driver's
// JSON object.
func runOne(name string, seed int64, secs int, trace bool, out, traceDir string) error {
	runtime.GOMAXPROCS(workload.Cores)
	cfg := workload.Config{Workload: name, Seed: seed, Duration: time.Duration(secs) * time.Second, Trace: trace, Scale: workload.Full}
	if trace {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		cfg.TraceOut = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.trace.json", name, seed))
	}
	res, err := workload.Run(cfg)
	if err != nil {
		return err
	}
	for _, note := range res.Notes {
		fmt.Fprintln(os.Stderr, "note:", note)
	}
	fmt.Printf("workload %s seed %d seconds %d trace %v schedule %s\n", name, seed, secs, trace, res.ScheduleHash)
	for _, defs := range [][]metrics.Def{metrics.EndToEnd, metrics.PerLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Printf("%-34s %.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	fmt.Printf("%-34s %.6g ratio (%d of %d)\n", "failed_frac", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if out != "" {
		if err := writeSet(out, metrics.Set{Results: []metrics.Result{*res}}); err != nil {
			return err
		}
	}

	// The driver's line: every end-to-end metric untraced, every per-layer
	// metric traced, and nothing else.
	defs := metrics.EndToEnd
	if trace {
		defs = metrics.PerLayer
	}
	line := struct {
		Correct   bool                     `json:"correct"`
		Attempted int64                    `json:"attempted"`
		Failed    int64                    `json:"failed"`
		Metrics   map[string]metrics.Value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metrics.Value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = res.Metrics[d.Name]
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or returned a wrong result", name, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs every workload untraced and traced, each in a child process,
// and gathers the results into one set.
func runAll(seed int64, secs, repeat int, out, traceDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(traceDir, "set-") // the children hand their results over here
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var set metrics.Set
	for rep := 0; rep < repeat; rep++ {
		for _, w := range metrics.Workloads {
			for trace := 0; trace <= 1; trace++ {
				part := filepath.Join(tmp, "result.json")
				cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(secs),
					"--trace", fmt.Sprint(trace), "--out", part, "--trace-dir", traceDir)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (trace %d): %w", w, trace, err)
				}
				one, err := readSet(part)
				if err != nil {
					return err
				}
				set.Results = append(set.Results, one.Results...)
			}
		}
	}
	if out != "" {
		return writeSet(out, set)
	}
	return nil
}

func writeSet(path string, set metrics.Set) error {
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) (metrics.Set, error) {
	var set metrics.Set
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compare applies the bounds to two result sets and returns the exit code.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare base.json change.json")
		return 2
	}
	var sets [2]metrics.Set
	for i, path := range args {
		set, err := readSet(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
		sets[i] = set
	}
	failed := 0
	for _, v := range metrics.Compare(sets[0], sets[1]) {
		fmt.Println(v)
		if v.Failed() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Printf("FAIL: %d metrics outside their bounds\n", failed)
		return 1
	}
	fmt.Println("PASS")
	return 0
}
