package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/hiactor"
	"repro/internal/query/ir"
	"repro/internal/query/naive"
	"repro/internal/query/obsv"
	"repro/internal/query/optimizer"
	"repro/internal/query/procedures"
	"repro/internal/storage/gart"
	"repro/internal/storage/vineyard"
)

func init() {
	register("fig7e", Fig7e)
	register("fig7f", Fig7f)
	register("fig7g", Fig7g)
	register("table2", Table2)
	register("exp8", Exp8)
}

// optQueries are the three query sets of Fig 7e, each exercising one
// optimization: Q1.x stress EdgeVertexFusion (multi-hop expansions), Q2.x
// stress FilterPushIntoMatch (highly selective predicates), Q3.x stress CBO
// (patterns written in a bad order).
func optQueries() map[string][]string {
	return map[string][]string{
		"Q1": {
			`MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person) RETURN COUNT(g) AS c`,
			`MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post) RETURN COUNT(m) AS c`,
			`MATCH (f:Forum)-[:CONTAINER_OF]->(m:Post)-[:HAS_TAG]->(t:Tag) RETURN COUNT(t) AS c`,
			`MATCH (p:Person)-[:LIKES]->(m:Post)<-[:REPLY_OF]-(c:Comment) RETURN COUNT(c) AS c`,
		},
		"Q2": {
			`MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE id(p) = 3 RETURN COUNT(f) AS c`,
			`MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post) WHERE id(p) = 5 RETURN COUNT(m) AS c`,
			`MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post) WHERE id(p) = 7 RETURN COUNT(m) AS c`,
			`MATCH (p:Person)-[:LIKES]->(m:Post) WHERE id(p) = 2 RETURN COUNT(m) AS c`,
		},
		"Q3": {
			`MATCH (m:Post)-[:HAS_TAG]->(t:Tag), (m)-[:HAS_CREATOR]->(p:Person) WHERE t.name = 'art' AND id(p) = 4 RETURN COUNT(m) AS c`,
			`MATCH (m:Post)<-[:LIKES]-(p:Person), (m)-[:HAS_TAG]->(t:Tag) WHERE id(p) = 6 RETURN COUNT(t) AS c`,
			`MATCH (c:Comment)-[:REPLY_OF]->(m:Post)-[:HAS_CREATOR]->(p:Person) WHERE id(p) = 8 RETURN COUNT(c) AS c`,
			`MATCH (f:Forum)-[:HAS_MEMBER]->(p:Person) WHERE id(p) = 9 RETURN COUNT(f) AS c`,
		},
	}
}

// optArm selects the optimizer options contrasted per query set.
func optArm(set string, enabled bool) optimizer.Options {
	if !enabled {
		switch set {
		case "Q1":
			// Everything but fusion.
			return optimizer.Options{FilterPushIntoMatch: true, CBO: true}
		case "Q2":
			return optimizer.Options{EdgeVertexFusion: true, CBO: true}
		default: // Q3
			return optimizer.Options{EdgeVertexFusion: true, FilterPushIntoMatch: true}
		}
	}
	return optimizer.All()
}

// runArm optimizes plan under one optimizer rule set, compiles it and runs it
// on eng.
func runArm(eng *gaia.Engine, plan *ir.Plan, schema *graph.Schema, opt optimizer.Options) error {
	phys, err := optimizer.Optimize(plan, eng.Catalog(), opt)
	if err != nil {
		return err
	}
	c, err := exec.Compile(phys, exec.Options{Schema: schema})
	if err != nil {
		return err
	}
	_, err = eng.Run(benchCtx, c, exec.Request{})
	return err
}

// observe runs plan once on eng with a stats collector and folds its stage
// counters into tab.
func observe(tab *Table, eng *gaia.Engine, plan *ir.Plan, params map[string]graph.Value) error {
	c, err := eng.Compile(plan)
	if err != nil {
		return err
	}
	obs := obsv.NewQueryStats()
	if _, err := eng.Run(benchCtx, c, exec.Request{Params: params, Obs: obs}); err != nil {
		return err
	}
	foldCounters(tab, obs)
	return nil
}

// Fig7e measures each optimization rule's gain on its query set.
func Fig7e() (*Table, error) {
	b := dataset.SNB(dataset.SNBOptions{Persons: scaled(500, 120), Seed: 51})
	st, err := vineyard.Load(b)
	if err != nil {
		return nil, err
	}
	eng := gaia.NewEngine(st, gaia.Options{Parallelism: 4})
	schema := dataset.SNBSchema()
	tab := &Table{ID: "fig7e", Title: "Query optimization (with vs without each rule)",
		Header: []string{"query", "with OPT", "without OPT", "speedup"}}
	for _, set := range []string{"Q1", "Q2", "Q3"} {
		for i, q := range optQueries()[set] {
			plan, err := cypher.Parse(q, schema)
			if err != nil {
				return nil, fmt.Errorf("%s.%d: %w", set, i+1, err)
			}
			run := func(opt optimizer.Options) time.Duration {
				return timeIt(2, func() {
					if err2 := runArm(eng, plan, st.Schema(), opt); err2 != nil {
						err = err2
					}
				})
			}
			dOn := run(optArm(set, true))
			dOff := run(optArm(set, false))
			if err != nil {
				return nil, err
			}
			// One observed run per query (fully optimized arm, outside the
			// timed loops) feeds the experiment's stage-stats counters.
			if err := observe(tab, eng, plan, nil); err != nil {
				return nil, fmt.Errorf("%s.%d: %w", set, i+1, err)
			}
			tab.Rows = append(tab.Rows, []string{
				fmt.Sprintf("%s.%d", set, i+1), ms(dOn), ms(dOff), speedup(dOff, dOn),
			})
		}
	}
	tab.Notes = append(tab.Notes,
		"Q1 ablates EdgeVertexFusion (paper avg 2.9x), Q2 FilterPushIntoMatch (paper avg 279x), Q3 CBO (paper avg 11x)")
	return tab, nil
}

// Fig7f runs the SNB interactive workload on HiActor vs the naive baseline,
// reporting per-class latency and total throughput.
func Fig7f() (*Table, error) {
	persons := scaled(300, 60)
	b := dataset.SNB(dataset.SNBOptions{Persons: persons, Seed: 61})
	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(b); err != nil {
		return nil, err
	}
	sc := procedures.ScaleOf(persons)
	schema := dataset.SNBSchema()
	he := hiactor.NewEngine(func() grin.Graph { return gs.Latest() }, hiactor.Options{Shards: 4})
	defer he.Close()

	tab := &Table{ID: "fig7f", Title: "OLTP-like queries: Flex(HiActor) vs naive baseline (avg latency)",
		Header: []string{"query", "Flex", "baseline", "speedup"}}
	r := rand.New(rand.NewSource(62))
	queries := append(procedures.Interactive(), procedures.Short()...)
	var flexTotal, baseTotal time.Duration
	for _, q := range queries {
		plan, err := cypher.Parse(q.Cypher, schema)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		if err := he.Install(q.Name, plan); err != nil {
			return nil, err
		}
		params := q.Params(r, sc)
		var innerErr error
		dFlex := timeIt(3, func() {
			if _, err2 := he.Call(benchCtx, q.Name, params); err2 != nil {
				innerErr = err2
			}
		})
		snap := gs.Latest()
		dBase := timeIt(1, func() {
			if _, _, err2 := naive.Run(benchCtx, plan, snap, params); err2 != nil {
				innerErr = err2
			}
		})
		if innerErr != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, innerErr)
		}
		flexTotal += dFlex
		baseTotal += dBase
		tab.Rows = append(tab.Rows, []string{q.Name, ms(dFlex), ms(dBase), speedup(dBase, dFlex)})
	}
	// Update operations run on Flex only (the baseline store is static).
	ids := procedures.NewIDAllocator(sc)
	for _, u := range procedures.Updates() {
		var innerErr error
		d := timeIt(3, func() {
			if err := u.Apply(gs, r, sc, ids); err != nil {
				innerErr = err
			}
		})
		if innerErr != nil {
			return nil, innerErr
		}
		tab.Rows = append(tab.Rows, []string{u.Name, ms(d), "-", "-"})
	}
	// Throughput: concurrent mixed reads.
	thpt := func(call func(q procedures.Query, params map[string]graph.Value)) float64 {
		total := scaled(400, 48)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rr := rand.New(rand.NewSource(int64(100 + w)))
				for i := 0; i < total/8; i++ {
					q := queries[rr.Intn(len(queries))]
					call(q, q.Params(rr, sc))
				}
			}(w)
		}
		wg.Wait()
		return float64(total) / time.Since(start).Seconds()
	}
	flexQPS := thpt(func(q procedures.Query, params map[string]graph.Value) {
		_, _ = he.Call(benchCtx, q.Name, params)
	})
	baseQPS := thpt(func(q procedures.Query, params map[string]graph.Value) {
		plan, _ := cypher.Parse(q.Cypher, schema)
		_, _, _ = naive.Run(benchCtx, plan, gs.Latest(), params)
	})
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("throughput: Flex %.0f ops/s vs baseline %.0f ops/s (%.2fx); paper: 2.45x, avg latency 8.92x", flexQPS, baseQPS, flexQPS/baseQPS),
		fmt.Sprintf("total latency: Flex %s vs baseline %s (%s)", flexTotal, baseTotal, speedup(baseTotal, flexTotal)))
	return tab, nil
}

// Fig7g runs the SNB BI workload on Gaia vs the naive baseline.
func Fig7g() (*Table, error) {
	persons := scaled(400, 100)
	b := dataset.SNB(dataset.SNBOptions{Persons: persons, Seed: 71})
	st, err := vineyard.Load(b)
	if err != nil {
		return nil, err
	}
	sc := procedures.ScaleOf(persons)
	schema := dataset.SNBSchema()
	eng := gaia.NewEngine(st, gaia.Options{Parallelism: 8})
	tab := &Table{ID: "fig7g", Title: "OLAP-like queries: Flex(Gaia) vs naive baseline (avg latency)",
		Header: []string{"query", "Flex", "baseline", "speedup"}}
	r := rand.New(rand.NewSource(72))
	for _, q := range procedures.BI() {
		plan, err := cypher.Parse(q.Cypher, schema)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		params := q.Params(r, sc)
		var innerErr error
		dFlex := timeIt(2, func() {
			if _, _, err2 := eng.Submit(benchCtx, plan, params); err2 != nil {
				innerErr = err2
			}
		})
		dBase := timeIt(1, func() {
			if _, _, err2 := naive.Run(benchCtx, plan, st, params); err2 != nil {
				innerErr = err2
			}
		})
		if innerErr != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, innerErr)
		}
		// One observed run per query, outside the timed loops, feeds the
		// experiment's stage-stats counters.
		if err := observe(tab, eng, plan, params); err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		tab.Rows = append(tab.Rows, []string{q.Name, ms(dFlex), ms(dBase), speedup(dBase, dFlex)})
	}
	tab.Notes = append(tab.Notes, "paper: Flex(Gaia) ~10x faster than TigerGraph on SNB-BI")
	return tab, nil
}

// Table2 reproduces the real-time fraud detection throughput scaling.
func Table2() (*Table, error) {
	opt := dataset.FraudOptions{Accounts: scaled(1500, 400), Items: scaled(300, 80), Seeds: 15, Seed: 81}
	base := dataset.FraudBase(opt)
	gs := gart.NewStore(dataset.FraudSchema(), 0)
	if err := gs.LoadBatch(base); err != nil {
		return nil, err
	}
	orders := dataset.FraudStream(opt, scaled(2000, 300))
	schema := dataset.FraudSchema()
	// The detection procedure: direct + indirect co-purchasing with seeds.
	detect := `MATCH (v:Account)-[:BUY]->(i:Item)<-[:BUY]-(s:Account)
WHERE id(v) = $acct AND id(s) < 15
WITH v, COUNT(s) AS cnt1
MATCH (v)-[:KNOWS]->(f:Account)-[:BUY]->(i2:Item)<-[:BUY]-(s2:Account)
WHERE id(s2) < 15
WITH v, cnt1, COUNT(s2) AS cnt2
WHERE cnt1 * 3 + cnt2 > 10
RETURN id(v)`
	plan, err := cypher.Parse(detect, schema)
	if err != nil {
		return nil, err
	}
	// Ingest the order stream once (writers and readers coexist — GART's
	// MVCC serves consistent snapshots throughout), then measure the
	// mandatory-check throughput across thread counts, as the paper does.
	for _, o := range orders {
		if err := gs.AddEdge(dataset.FraudBuy, o.Account, o.Item, graph.IntValue(o.Date)); err != nil {
			return nil, err
		}
	}
	gs.Commit()
	tab := &Table{ID: "table2", Title: "Real-time fraud detection throughput",
		Header: []string{"#threads", "throughput (checks/s)"}}
	for _, threads := range []int{1, 2, 4, 8} {
		he := hiactor.NewEngine(func() grin.Graph { return gs.Latest() }, hiactor.Options{Shards: threads})
		if err := he.Install("detect", plan); err != nil {
			he.Close()
			return nil, err
		}
		n := scaled(800, 80)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += threads {
					o := orders[i%len(orders)]
					_, _ = he.Call(benchCtx, "detect", map[string]graph.Value{"acct": graph.IntValue(o.Account)})
				}
			}(w)
		}
		wg.Wait()
		qps := float64(n) / time.Since(start).Seconds()
		he.Close()
		tab.Rows = append(tab.Rows, []string{fmt.Sprintf("%d", threads), fmt.Sprintf("%.0f", qps)})
	}
	tab.Notes = append(tab.Notes, "paper: 98,907 → 355,813 qps from 10 → 40 threads (near-linear)")
	return tab, nil
}
