package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/analytics/algorithms"
	"repro/internal/analytics/baselines"
	"repro/internal/analytics/gpu"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/learning/gnn"
	"repro/internal/learning/pipeline"
	"repro/internal/learning/sampler"
	"repro/internal/query/gremlin"
	"repro/internal/query/hiactor"
	"repro/internal/relational"
	"repro/internal/storage/vineyard"

	"repro/internal/grin"
)

// sortByDegree relabels vertices in descending out-degree order.
func sortByDegree(g *dataset.Simple) {
	deg := make([]int, g.N)
	for _, s := range g.Src {
		deg[s]++
	}
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return deg[order[a]] > deg[order[b]] })
	relabel := make([]graph.VID, g.N)
	for newID, old := range order {
		relabel[old] = graph.VID(newID)
	}
	for i := range g.Src {
		g.Src[i] = relabel[g.Src[i]]
		g.Dst[i] = relabel[g.Dst[i]]
	}
}

func init() {
	register("fig7h", func() (*Table, error) { return cpuAnalytics("fig7h", "PageRank") })
	register("fig7i", func() (*Table, error) { return cpuAnalytics("fig7i", "BFS") })
	register("fig7j", func() (*Table, error) { return gpuAnalytics("fig7j", "PageRank") })
	register("fig7k", func() (*Table, error) { return gpuAnalytics("fig7k", "BFS") })
	register("fig7l", Fig7l)
	register("fig7m", Fig7m)
	register("exp6", Exp6)
	register("exp7", Exp7)
}

// cpuReps is how many runs each cell of Fig 7h/7i takes the median of: the
// jobs last 0.1–100 ms, and on a shared machine a mean of 2 swapped
// winners between two runs of the same binary.
const cpuReps = 7

// cpuAnalytics runs one algorithm across CPU systems (Fig 7h/7i). All
// systems get NumCPU workers so the figure measures multi-core behavior.
func cpuAnalytics(id, algo string) (*Table, error) {
	tab := &Table{ID: id, Title: algo + " on CPUs: GRAPE vs PowerGraph vs Gemini",
		Header: []string{"dataset", "GRAPE", "PowerGraph", "Gemini", "vs PG", "vs Gemini"}}
	workers := runtime.GOMAXPROCS(0)
	for _, name := range []string{"FB0", "FB1", "ZF", "G500", "CF"} {
		g, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		cg, err := g.ToCSR(true)
		if err != nil {
			return nil, err
		}
		var dG, dPG, dGM time.Duration
		switch algo {
		case "PageRank":
			dG = timeIt(cpuReps, func() {
				_, _ = algorithms.PageRank(cg, algorithms.PageRankOptions{Iterations: 10, Fragments: workers})
			})
			pg := baselines.NewPowerGraph(cg, workers)
			dPG = timeIt(cpuReps, func() { pg.PageRank(0.85, 10) })
			gm := baselines.NewGemini(cg, workers)
			dGM = timeIt(cpuReps, func() { gm.PageRank(0.85, 10) })
		default:
			dG = timeIt(cpuReps, func() { _, _ = algorithms.BFS(cg, 0, workers) })
			pg := baselines.NewPowerGraph(cg, workers)
			dPG = timeIt(cpuReps, func() { pg.BFS(0) })
			gm := baselines.NewGemini(cg, workers)
			dGM = timeIt(cpuReps, func() { gm.BFS(0) })
		}
		tab.Rows = append(tab.Rows, []string{
			name, ms(dG), ms(dPG), ms(dGM), speedup(dPG, dG), speedup(dGM, dG),
		})
	}
	tab.Notes = append(tab.Notes,
		"paper: GRAPE avg 25.1x vs PowerGraph (up to 55.7x), 2.3x vs Gemini",
		fmt.Sprintf("all systems run %d workers (NumCPU), each timed as the median of %d runs", workers, cpuReps),
		"GRAPE's time includes grape.NewEngine's partitioning; the baselines are built before their timers")
	return tab, nil
}

// gpuAnalytics runs one algorithm across simulated GPU backends (Fig 7j/7k).
func gpuAnalytics(id, algo string) (*Table, error) {
	tab := &Table{ID: id, Title: algo + " on simulated GPUs: Flex vs Groute vs Gunrock",
		Header: []string{"dataset", "Flex", "Groute", "Gunrock", "vs Groute", "vs Gunrock"}}
	opt := gpu.Options{Devices: 2, WorkersPerDevice: 2}
	for _, name := range []string{"CF", "WB", "UK", "IT", "AR"} {
		g, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		// Crawl-ordered datasets cluster hubs together; relabel by degree so
		// the range-level skew real webgraphs exhibit is present (it is what
		// separates balanced from static thread mappings).
		sortByDegree(g)
		cg, err := g.ToCSR(true)
		if err != nil {
			return nil, err
		}
		run := func(b gpu.Backend) time.Duration {
			return timeIt(2, func() {
				if algo == "PageRank" {
					gpu.PageRank(cg, b, 0.85, 10, opt)
				} else {
					gpu.BFS(cg, b, 0, opt)
				}
			})
		}
		dF := run(gpu.Flex)
		dGr := run(gpu.Groute)
		dGu := run(gpu.Gunrock)
		tab.Rows = append(tab.Rows, []string{
			name, ms(dF), ms(dGr), ms(dGu), speedup(dGr, dF), speedup(dGu, dF),
		})
	}
	tab.Notes = append(tab.Notes, "paper: Flex-GPU avg 3.3x vs both, up to 9.5x/9.9x")
	return tab, nil
}

// learnEpoch measures one training epoch with the given worker counts.
func learnEpoch(ds string, samplers, trainers int) (time.Duration, error) {
	d, err := dataset.GNNByName(ds)
	if err != nil {
		return 0, err
	}
	g, err := d.Graph.ToCSR(false)
	if err != nil {
		return 0, err
	}
	s := sampler.New(g, d.Feats.Features, d.Feats.Labels, sampler.Options{
		Fanouts: []int{15, 10, 5}, Workers: samplers, Seed: 91,
	})
	model := gnn.NewSAGE(d.Feats.Dim, 32, d.Feats.Classes, 3, 92)
	p := pipeline.New(s, model, pipeline.Options{
		SamplingWorkers: samplers, TrainingWorkers: trainers,
		BatchSize: 256, Prefetch: 2, Seed: 93,
	})
	seeds := make([]graph.VID, g.NumVertices())
	for i := range seeds {
		seeds[i] = graph.VID(i)
	}
	seeds = seeds[:scaled(len(seeds), len(seeds)/5+1)]
	start := time.Now()
	p.RunEpoch(seeds, 0)
	return time.Since(start), nil
}

// Fig7l: scale-up — more sampling devices on one node.
func Fig7l() (*Table, error) {
	tab := &Table{ID: "fig7l", Title: "GraphSAGE epoch time, scale-up (#devices on one node)",
		Header: []string{"#devices", "PD epoch", "PA epoch"}}
	for _, n := range []int{1, 2, 4} {
		dPD, err := learnEpoch("PD", n, n)
		if err != nil {
			return nil, err
		}
		dPA, err := learnEpoch("PA", n, n)
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{fmt.Sprintf("%d", n), ms(dPD), ms(dPA)})
	}
	tab.Notes = append(tab.Notes, "paper: near-linear decrease with #GPUs")
	return tab, nil
}

// Fig7m: scale-out — more nodes with 2 devices each.
func Fig7m() (*Table, error) {
	tab := &Table{ID: "fig7m", Title: "GraphSAGE epoch time, scale-out (nodes x 2 devices)",
		Header: []string{"config", "PD epoch", "PA epoch"}}
	for _, nodes := range []int{1, 2, 4} {
		w := nodes * 2
		dPD, err := learnEpoch("PD", w, w)
		if err != nil {
			return nil, err
		}
		dPA, err := learnEpoch("PA", w, w)
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{fmt.Sprintf("%dx2", nodes), ms(dPD), ms(dPA)})
	}
	tab.Notes = append(tab.Notes, "paper: almost-linear scale-out 1x2 -> 4x2")
	return tab, nil
}

// Exp6: equity analysis — GRAPE propagation vs SQL joins.
func Exp6() (*Table, error) {
	opt := dataset.EquityOptions{Persons: scaled(200, 60), Companies: scaled(2000, 400), Seed: 101}
	b := dataset.Equity(opt)
	st, err := vineyard.Load(b)
	if err != nil {
		return nil, err
	}
	pLo, pHi, _ := st.LabelRange(dataset.EquityPerson)

	var controllers int
	dGraph := timeIt(2, func() {
		res, err2 := algorithms.Equity(st, pLo, pHi, algorithms.EquityOptions{Fragments: 4})
		if err2 != nil {
			err = err2
			return
		}
		controllers = 0
		for _, c := range res.Controller {
			if c != graph.NilVID {
				controllers++
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// SQL baseline: owns(owner, company, share) self-joined per layer; each
	// join multiplies shares and re-aggregates — the cost the graph engine
	// avoids. Bounded to 4 join rounds (the paper's baseline could not even
	// finish the full data).
	owns := relational.NewTable("owns", "owner", "company", "share")
	for _, e := range b.Edges {
		_ = owns.Append(graph.IntValue(e.Src), graph.IntValue(e.Dst), e.Props[0])
	}
	dSQL := timeIt(1, func() {
		frontier := owns
		for round := 0; round < 4; round++ {
			joined, err2 := frontier.HashJoin("company", owns, "owner")
			if err2 != nil {
				err = err2
				return
			}
			// share' = share × next share, then aggregate per (owner, final
			// company).
			mult := relational.NewTable("m", "owner", "company", "share")
			oi, _ := joined.Col("owner")
			ci, _ := joined.Col("owns.company")
			s1, _ := joined.Col("share")
			s2, _ := joined.Col("owns.share")
			for _, r := range joined.Rows {
				_ = mult.Append(r[oi], r[ci], graph.FloatValue(r[s1].Float()*r[s2].Float()))
			}
			agg, err2 := mult.GroupSum([]string{"owner", "company"}, "share")
			if err2 != nil {
				err = err2
				return
			}
			frontier = agg
			// Rename back for the next join round.
			frontier.Name = "owns_r"
			renamed := relational.NewTable("f", "owner", "company", "share")
			renamed.Rows = frontier.Rows
			frontier = renamed
		}
	})
	if err != nil {
		return nil, err
	}
	tab := &Table{ID: "exp6", Title: "Equity analysis: GRAPE propagation vs SQL joins",
		Header: []string{"system", "runtime", "result"}}
	tab.Rows = append(tab.Rows,
		[]string{"Flex (GRAPE)", ms(dGraph), fmt.Sprintf("%d controlled companies (full result)", controllers)},
		[]string{"SQL baseline", ms(dSQL), "4 join rounds only (partial depth)"},
	)
	tab.Notes = append(tab.Notes, "paper: Flex full graph in 15 min; SQL >1h on a small subset", "speedup "+speedup(dSQL, dGraph))
	return tab, nil
}

// Exp7: NCN social-relation training with decoupled sampling/training.
func Exp7() (*Table, error) {
	full := dataset.Community("soc", 2000, 10, 10, 0.05, 111)
	train, posU, posV, negU, negV := dataset.TrainTestEdges(full, 0.1, 112)
	g, err := train.ToCSR(false)
	if err != nil {
		return nil, err
	}
	m := gnn.NewNCN(g, 16, 113)
	rng := rand.New(rand.NewSource(114))
	start := time.Now()
	iters := scaled(6000, 800)
	for i := 0; i < iters; i++ {
		if i%2 == 0 {
			k := rng.Intn(train.NumEdges())
			m.TrainStep(train.Src[k], train.Dst[k], 1)
		} else {
			m.TrainStep(graph.VID(rng.Intn(g.NumVertices())), graph.VID(rng.Intn(g.NumVertices())), 0)
		}
	}
	epoch := time.Since(start)
	auc := m.AUCApprox(posU[:40], posV[:40], negU[:40], negV[:40])
	tab := &Table{ID: "exp7", Title: "Social relation prediction (NCN)",
		Header: []string{"metric", "value"}}
	tab.Rows = append(tab.Rows,
		[]string{"epoch time", epoch.String()},
		[]string{"link-prediction AUC", fmt.Sprintf("%.3f", auc)},
	)
	tab.Notes = append(tab.Notes, "paper: 1.5h/epoch on 30 nodes, linear scaling")
	return tab, nil
}

// Exp8: cybersecurity 2-hop traversal — Gremlin on Flex vs SQL double join.
func Exp8() (*Table, error) {
	opt := dataset.FraudOptions{Accounts: 2500, Items: 600, Seeds: 10, Seed: 121}
	b := dataset.FraudBase(opt)
	st, err := vineyard.Load(b)
	if err != nil {
		return nil, err
	}
	// The Trojan-style check: 2-hop neighborhood of one account.
	q := `g.V().hasLabel('Account').has('id', 7).out('KNOWS').out('KNOWS').dedup().count()`
	plan, err := gremlin.Parse(q, st.Schema())
	if err != nil {
		return nil, err
	}
	he := hiactor.NewEngine(func() grin.Graph { return st }, hiactor.Options{Shards: 2})
	defer he.Close()
	if err := he.Install("twohop", plan); err != nil {
		return nil, err
	}
	var innerErr error
	dFlex := timeIt(5, func() {
		if _, err2 := he.Call(benchCtx, "twohop", nil); err2 != nil {
			innerErr = err2
		}
	})
	if innerErr != nil {
		return nil, innerErr
	}

	// SQL baseline: knows ⋈ knows with a filter — no adjacency index means
	// scanning and hashing the whole edge table twice.
	knows := relational.NewTable("knows", "src", "dst")
	for _, e := range b.Edges {
		if e.Label == dataset.FraudKnows {
			_ = knows.Append(graph.IntValue(e.Src), graph.IntValue(e.Dst))
		}
	}
	dSQL := timeIt(2, func() {
		first := knows.Filter(func(r []graph.Value) bool { return r[0].Int() == 7 })
		joined, err2 := first.HashJoin("dst", knows, "src")
		if err2 != nil {
			innerErr = err2
			return
		}
		_ = joined.Distinct()
	})
	if innerErr != nil {
		return nil, innerErr
	}
	tab := &Table{ID: "exp8", Title: "Cybersecurity: 2-hop Gremlin traversal vs SQL joins",
		Header: []string{"system", "latency", "speedup"}}
	tab.Rows = append(tab.Rows,
		[]string{"Flex (Gremlin)", ms(dFlex), "-"},
		[]string{"SQL joins", ms(dSQL), speedup(dSQL, dFlex)},
	)
	tab.Notes = append(tab.Notes, "paper: 2,400x over equivalent SQL (two-hop traversals avoid joins)")
	return tab, nil
}
