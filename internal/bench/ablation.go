package bench

import (
	"fmt"

	"repro/internal/analytics/grape"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/learning/gnn"
	"repro/internal/learning/pipeline"
	"repro/internal/learning/sampler"
	"repro/internal/storage/gart"
)

func init() {
	register("ablation-msg", AblationMsgAggregation)
	register("ablation-gart", AblationGARTSegment)
	register("ablation-pipeline", AblationPipeline)
}

// AblationMsgAggregation contrasts GRAPE's exchange — sends combined into a
// flat accumulator the destination reads in place — against the same
// exchange paying a wire codec per cross-fragment hand-off, and against
// per-message channel sends (the aggregation trade §6 describes).
func AblationMsgAggregation() (*Table, error) {
	g, err := dataset.ByName("FB0")
	if err != nil {
		return nil, err
	}
	cg, err := g.ToCSR(true)
	if err != nil {
		return nil, err
	}
	tab := &Table{ID: "ablation-msg", Title: "Message aggregation vs per-message sends (PageRank, FB0)",
		Header: []string{"exchange", "runtime"}}
	for _, arm := range []struct {
		name string
		opt  grape.Options
	}{
		{"aggregated, read in place", grape.Options{}},
		{"aggregated + wire codec", grape.Options{WireCodec: true}},
		{"per-message channels", grape.Options{PerMessageChannels: true}},
	} {
		arm.opt.Fragments, arm.opt.Combine = 4, grape.Sum
		eng, err := grape.NewEngine(cg, arm.opt)
		if err != nil {
			return nil, err
		}
		prog := &prProgram{g: cg, ranks: make([]float64, cg.NumVertices()), iters: 5}
		dur := timeIt(1, func() { _, _ = eng.Run(prog) })
		tab.Rows = append(tab.Rows, []string{arm.name, ms(dur)})
	}
	return tab, nil
}

// prProgram is a small PageRank PIE program local to the ablation (avoids
// exporting engine options through the algorithms API).
type prProgram struct {
	g     grin.Graph
	ranks []float64
	iters int
}

func (p *prProgram) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	n := float64(p.g.NumVertices())
	for v := lo; v < hi; v++ {
		p.ranks[v] = 1 / n
	}
	p.scatter(f, ctx)
}

func (p *prProgram) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	lo, hi := f.Bounds()
	n := float64(p.g.NumVertices())
	for v := lo; v < hi; v++ {
		p.ranks[v] = 0.15 / n
	}
	for _, m := range msgs {
		p.ranks[m.Target] += 0.85 * m.Value
	}
	if ctx.Superstep() < p.iters {
		p.scatter(f, ctx)
	}
}

func (p *prProgram) scatter(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		if d := p.g.Degree(v, graph.Out); d > 0 {
			ctx.SendToNeighbors(v, graph.Out, p.ranks[v]/float64(d))
		}
	}
}

// AblationGARTSegment sweeps GART's adjacency segment size: small segments
// favor writes, large segments favor scans (GART's segment-size trade).
func AblationGARTSegment() (*Table, error) {
	g, err := dataset.ByName("CF")
	if err != nil {
		return nil, err
	}
	tab := &Table{ID: "ablation-gart", Title: "GART segment size: build vs scan (CF)",
		Header: []string{"segment", "build", "scan"}}
	for _, seg := range []int{4, 16, 64, 256} {
		var gs *gart.Store
		build := timeIt(1, func() {
			gs = gart.NewStore(graph.SimpleSchema(false), seg)
			for v := 0; v < g.N; v++ {
				_ = gs.AddVertex(0, int64(v))
			}
			for i := range g.Src {
				_ = gs.AddEdge(0, int64(g.Src[i]), int64(g.Dst[i]))
			}
			gs.Commit()
		})
		snap := gs.Latest()
		scan := timeIt(3, func() {
			for v := 0; v < g.N; v++ {
				snap.Neighbors(graph.VID(v), graph.Out, func(graph.VID, graph.EID) bool { return true })
			}
		})
		tab.Rows = append(tab.Rows, []string{fmt.Sprintf("%d", seg), ms(build), ms(scan)})
	}
	return tab, nil
}

// AblationPipeline contrasts coupled vs decoupled vs decoupled+prefetch
// training (§8's decoupled-pipeline design).
func AblationPipeline() (*Table, error) {
	d, err := dataset.GNNByName("PD")
	if err != nil {
		return nil, err
	}
	g, err := d.Graph.ToCSR(false)
	if err != nil {
		return nil, err
	}
	seeds := make([]graph.VID, g.NumVertices())
	for i := range seeds {
		seeds[i] = graph.VID(i)
	}
	run := func(opt pipeline.Options) string {
		s := sampler.New(g, d.Feats.Features, d.Feats.Labels, sampler.Options{Fanouts: []int{10, 5}, Workers: 2, Seed: 131})
		model := gnn.NewSAGE(d.Feats.Dim, 32, d.Feats.Classes, 2, 132)
		p := pipeline.New(s, model, opt)
		dur := timeIt(1, func() { p.RunEpoch(seeds, 0) })
		return ms(dur)
	}
	tab := &Table{ID: "ablation-pipeline", Title: "Sampling/training pipeline arrangements (PD, 1 epoch)",
		Header: []string{"arrangement", "epoch time"}}
	tab.Rows = append(tab.Rows,
		[]string{"coupled", run(pipeline.Options{TrainingWorkers: 2, BatchSize: 256, Coupled: true, Seed: 133})},
		[]string{"decoupled", run(pipeline.Options{SamplingWorkers: 2, TrainingWorkers: 2, BatchSize: 256, Prefetch: 1, Seed: 133})},
		[]string{"decoupled+prefetch", run(pipeline.Options{SamplingWorkers: 2, TrainingWorkers: 2, BatchSize: 256, Prefetch: 4, Seed: 133})},
	)
	return tab, nil
}
