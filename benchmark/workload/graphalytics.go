package workload

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/benchmark/metrics"
	"repro/benchmark/span"
	"repro/internal/analytics/algorithms"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/storage/csr"
)

// Operation classes of graphalytics, in cycle order.
const (
	classPageRank uint8 = iota
	classBFS
	classWCC
)

var algorithmNames = [...]string{"algorithms.PageRank", "algorithms.BFS", "algorithms.WCC"}

const (
	pageRankIterations = 20
	pageRankDamping    = 0.85
	bfsRoot            = graph.VID(0)
)

// galyInst is graphalytics: one closed-loop client cycling PageRank → BFS →
// WCC on a static CSR, two fragments. It bypasses the whole query stack.
type galyInst struct {
	cfg    Config
	g      *csr.Graph
	cursor int

	// Sequential references the oracle computes.
	rank   []float64
	levels []float64
	comps  []float64
	edges  uint64 // digest of the generated edge list
}

func buildGraphalytics(cfg Config, parts map[string]float64) (instance, error) {
	t0 := span.Now()
	simple := dataset.Datagen("benchmark", cfg.Scale.Vertices, cfg.Scale.AvgDegree, derive(cfg.Seed, 0))
	t1 := span.Now()
	g, err := simple.ToCSR(true)
	if err != nil {
		return nil, err
	}
	parts["dataset.gen_s"], parts["csr.build_s"] = seconds(t1-t0), seconds(span.Now()-t1)
	h := uint64(fnvOffset)
	for i := range simple.Src {
		h = mix(mix(h, uint64(simple.Src[i])), uint64(simple.Dst[i]))
	}
	return &galyInst{cfg: cfg, g: g, edges: h}, nil
}

func (a *galyInst) close() {}

func (a *galyInst) draw() {} // the dataset is the only seeded input

// oracle computes the sequential references: PageRank by the same
// recurrence the library documents (uniform start, damping, no dangling
// redistribution), BFS levels over out-edges, and each vertex's smallest
// weakly connected vertex.
func (a *galyInst) oracle(*run) error {
	n := a.g.NumVertices()
	rank, next := make([]float64, n), make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	for it := 0; it < pageRankIterations; it++ {
		for v := range next {
			next[v] = (1 - pageRankDamping) / float64(n)
		}
		for v := 0; v < n; v++ {
			out := a.g.AdjSlice(graph.VID(v), graph.Out)
			if len(out) == 0 {
				continue
			}
			share := pageRankDamping * rank[v] / float64(len(out))
			for _, t := range out {
				next[t.Nbr] += share
			}
		}
		rank, next = next, rank
	}
	a.rank = rank

	a.levels = make([]float64, n)
	for v := range a.levels {
		a.levels[v] = algorithms.Unreached
	}
	a.levels[bfsRoot] = 0
	for queue := []graph.VID{bfsRoot}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		for _, t := range a.g.AdjSlice(v, graph.Out) {
			if a.levels[t.Nbr] == algorithms.Unreached {
				a.levels[t.Nbr] = a.levels[v] + 1
				queue = append(queue, t.Nbr)
			}
		}
	}

	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for v := 0; v < n; v++ {
		for _, t := range a.g.AdjSlice(graph.VID(v), graph.Out) {
			// Union by smaller root, so a root is its component's minimum.
			x, y := find(int32(v)), find(int32(t.Nbr))
			if x < y {
				parent[y] = x
			} else {
				parent[x] = y
			}
		}
	}
	a.comps = make([]float64, n)
	for v := range a.comps {
		a.comps[v] = float64(find(int32(v)))
	}
	return nil
}

func (a *galyInst) scheduleHash() uint64 {
	return mix(mix(hashString(fnvOffset, a.cfg.Workload), a.edges), uint64(a.g.NumVertices()))
}

// runAlgorithm runs one algorithm on frags fragments and checks its result
// against the reference, after reading the clock.
func (a *galyInst) runAlgorithm(class uint8, frags int) (end int64, ok bool) {
	var got, want []float64
	var err error
	exact := true
	switch class {
	case classPageRank:
		got, err = algorithms.PageRank(a.g, algorithms.PageRankOptions{Damping: pageRankDamping, Iterations: pageRankIterations, Fragments: frags})
		want, exact = a.rank, false
	case classBFS:
		got, err = algorithms.BFS(a.g, bfsRoot, frags)
		want = a.levels
	default:
		got, err = algorithms.WCC(a.g, frags)
		want = a.comps
	}
	end = span.Now()
	if err != nil || len(got) != len(want) {
		return end, false
	}
	for v := range got {
		// Ranks are summed in a different order than the reference's.
		if got[v] != want[v] && (exact || math.Abs(got[v]-want[v]) > 1e-9*math.Abs(want[v])) {
			return end, false
		}
	}
	return end, true
}

func (a *galyInst) op(int) (uint8, int64, bool) {
	class := uint8(a.cursor % len(algorithmNames))
	a.cursor++
	end, ok := a.runAlgorithm(class, Cores)
	return class, end, ok
}

func (a *galyInst) window(d time.Duration) *window {
	a.cursor = alignUp(a.cursor, len(algorithmNames)) // rounds are whole cycles
	return closedLoop(d, 1, a.op)
}

// roundOps is one cycle PageRank → BFS → WCC.
func (a *galyInst) roundOps() int { return len(algorithmNames) }

func (a *galyInst) report(r *run, w *window) {
	r.setPercentile("pagerank_p50_ms", w.classLatencies(classPageRank), 50, 1e6)
	r.setPercentile("bfs_p50_ms", w.classLatencies(classBFS), 50, 1e6)
	r.setPercentile("wcc_p50_ms", w.classLatencies(classWCC), 50, 1e6)
}

func (a *galyInst) trace(r *run, w *window) error {
	// PageRank on one fragment, against the window's two-fragment median.
	var one []int64
	for i := 0; i < a.cfg.Scale.TraceRounds; i++ {
		t0 := span.Now()
		end, ok := a.runAlgorithm(classPageRank, 1)
		r.attempted++
		if !ok {
			r.failed++
		}
		one = append(one, end-t0)
	}
	slices.Sort(one)
	frag1, _ := metrics.Percentile(one, 50)
	frag2, _ := metrics.Percentile(w.classLatencies(classPageRank), 50)
	r.set("algorithms.pagerank_ms_frag1", millis(frag1))
	r.set("algorithms.pagerank_frag_speedup", ratio(float64(frag1), float64(frag2)))

	// Fixed count: TraceRounds cycles untraced, with a span per run, and
	// untraced again, so that drift cancels out of the overhead.
	rounds := a.cfg.Scale.TraceRounds * len(algorithmNames)
	var failed int64
	cycle := func(rec *span.Recorder) int64 {
		start := span.Now()
		for k := 0; k < rounds; k++ {
			class := uint8(k % len(algorithmNames))
			if rec == nil {
				if _, ok := a.runAlgorithm(class, Cores); !ok {
					failed++
				}
				continue
			}
			rec.Begin("op")
			s := rec.Enter(algorithmNames[class])
			_, ok := a.runAlgorithm(class, Cores)
			rec.Exit(s)
			rec.End()
			if !ok {
				failed++
			}
		}
		return span.Now() - start
	}
	before := cycle(nil)
	rec := span.NewRecorder()
	traced := cycle(rec)
	after := cycle(nil)
	r.attempted += 3 * int64(rounds)
	r.failed += failed
	r.set("algorithms.checksum_ok", float64(3*int64(rounds)-failed))
	r.set("trace.overhead_frac", 1-ratio(float64(before+after)/2, float64(traced)))
	if err := checkSelfTimes(rec); err != nil {
		return err
	}
	if rec.Ops() != rounds {
		return fmt.Errorf("traced %d operations, want %d", rec.Ops(), rounds)
	}
	return writeTrace(a.cfg.TraceOut, rec)
}

func (a *galyInst) verify(*run) error { return nil }
