// The parity harness every engine matrix of this package runs on.
//
// A fixture is one generated graph and the stores loaded from it, each built
// on first use and kept for the rest of the package's run, every -cpu pass
// included. A test's grid is its cells, store × view × batch size, with one
// set of engines per (store, view): naive, Gaia at every P of pars(), HiActor
// with two shards, and the serial driver on Gaia's plan, of which the test
// picks the ones it runs. A cell runs one plan on them, and the test holds
// each answer to naive's (ref, computed once per query and store) or to its
// own oracle. A failure names the query, the engine with its P, and the
// cell's store, view and batch size.
package query_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/grin/grintest"
	"repro/internal/query"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/gremlin"
	"repro/internal/query/hiactor"
	"repro/internal/query/ir"
	"repro/internal/query/naive"
	"repro/internal/query/obsv"
	"repro/internal/storage/chaos"
	"repro/internal/storage/gart"
	"repro/internal/storage/graphar"
	"repro/internal/storage/livegraph"
	"repro/internal/storage/meter"
	"repro/internal/storage/vineyard"
)

// fixtureDir holds the fixtures' on-disk stores. TestMain owns it, so a
// GraphAr store outlives the test that first asked for it.
var fixtureDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "query-fixtures-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fixtureDir = dir
	code := m.Run()
	for _, f := range fixtures.m {
		for _, c := range f.closers {
			c()
		}
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// fixture is one generated graph and the stores loaded from it.
type fixture struct {
	key    string
	batch  *graph.Batch
	simple *dataset.Simple // a Datagen fixture's edge list; nil for SNB

	mu      sync.Mutex
	stores  map[string]grin.Graph
	refs    map[string]naiveAnswer
	closers []func() error
}

// naiveAnswer is a reference: naive's rows and output columns.
type naiveAnswer struct {
	rows []exec.Row
	out  []string
}

// fixtures holds every fixture of the package run, by key.
var fixtures = struct {
	sync.Mutex
	m map[string]*fixture
}{m: map[string]*fixture{}}

func fixtureOf(key string, gen func() (*graph.Batch, *dataset.Simple)) *fixture {
	fixtures.Lock()
	defer fixtures.Unlock()
	f := fixtures.m[key]
	if f == nil {
		f = &fixture{key: key, stores: map[string]grin.Graph{}, refs: map[string]naiveAnswer{}}
		f.batch, f.simple = gen()
		fixtures.m[key] = f
	}
	return f
}

// snbFixture is dataset.SNB at persons and seed.
func snbFixture(persons int, seed int64) *fixture {
	return fixtureOf(fmt.Sprintf("snb-%d-%d", persons, seed), func() (*graph.Batch, *dataset.Simple) {
		return dataset.SNB(dataset.SNBOptions{Persons: persons, Seed: seed}), nil
	})
}

// datagenFixture is dataset.Datagen's graph. The generator's name seeds
// nothing, so it is not part of the key.
func datagenFixture(n, avgDeg int, seed int64) *fixture {
	return fixtureOf(fmt.Sprintf("datagen-%d-%d-%d", n, avgDeg, seed), func() (*graph.Batch, *dataset.Simple) {
		s := dataset.Datagen("parity", n, avgDeg, seed)
		return s.ToBatch(), s
	})
}

func (f *fixture) schema() *graph.Schema { return f.batch.Schema }

// store returns the named backend loaded with the fixture's graph: vineyard,
// gart (a snapshot), livegraph, graphar or csr (Datagen fixtures only).
func (f *fixture) store(t *testing.T, name string) grin.Graph {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if g, ok := f.stores[name]; ok {
		return g
	}
	g, err := f.load(name)
	if err != nil {
		t.Fatalf("%s from %s: %v", name, f.key, err)
	}
	f.stores[name] = g
	return g
}

// vineyard is the fixture's vineyard store.
func (f *fixture) vineyard(t *testing.T) *vineyard.Store {
	t.Helper()
	return f.store(t, "vineyard").(*vineyard.Store)
}

// storeMap is store for each name.
func (f *fixture) storeMap(t *testing.T, names ...string) map[string]grin.Graph {
	t.Helper()
	m := map[string]grin.Graph{}
	for _, name := range names {
		m[name] = f.store(t, name)
	}
	return m
}

func (f *fixture) load(name string) (grin.Graph, error) {
	b := f.batch
	switch name {
	case "vineyard":
		return vineyard.Load(b)
	case "gart":
		gs := gart.NewStore(b.Schema, 0)
		if err := gs.LoadBatch(b); err != nil {
			return nil, err
		}
		return gs.Latest(), nil
	case "livegraph":
		if f.simple == nil {
			return livegraph.LoadBatch(b)
		}
		lg := livegraph.NewStore(f.simple.N)
		for i := range f.simple.Src {
			if err := lg.AddEdge(f.simple.Src[i], f.simple.Dst[i], 1); err != nil {
				return nil, err
			}
		}
		return lg, nil
	case "graphar":
		dir := filepath.Join(fixtureDir, f.key)
		if err := graphar.Write(dir, b, graphar.Options{ChunkSize: 64}); err != nil {
			return nil, err
		}
		ga, err := graphar.Open(dir)
		if err != nil {
			return nil, err
		}
		f.closers = append(f.closers, ga.Close)
		return ga, nil
	case "csr":
		if f.simple != nil {
			return f.simple.ToCSR(true)
		}
	}
	return nil, fmt.Errorf("no such store")
}

// ref is naive's answer to p over the named bare store, computed once per
// (query, store); text and params identify the query.
func (f *fixture) ref(t *testing.T, store string, p *ir.Plan, text string, params map[string]graph.Value) ([]exec.Row, []string) {
	t.Helper()
	g := f.store(t, store)
	key := fmt.Sprint(store, "\x00", text, "\x00", params)
	f.mu.Lock()
	a, ok := f.refs[key]
	f.mu.Unlock()
	if !ok {
		rows, out, err := naive.Run(context.Background(), p, g, params)
		if err != nil {
			t.Fatalf("naive on %s: %v\n%s", store, err, text)
		}
		a = naiveAnswer{rows, out}
		f.mu.Lock()
		f.refs[key] = a
		f.mu.Unlock()
	}
	return a.rows, a.out
}

// parse parses text in lang, "cypher" or "gremlin".
func parse(t *testing.T, lang, text string, schema *graph.Schema) *ir.Plan {
	t.Helper()
	fn := cypher.Parse
	if lang == "gremlin" {
		fn = gremlin.Parse
	}
	p, err := fn(text, schema)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	return p
}

// view is one way to show a store to the engines. of gives the store under
// the view, which an oracle reads, or nil for a store the view does not apply
// to; with chaos set the engines see that store behind the chaos tap, and a
// metered view is counted by meter into its cell's StoreStats.
type view struct {
	name    string
	of      func(grin.Graph) grin.Graph
	chaos   bool
	metered bool
}

var (
	bareView  = view{name: "bare", of: func(g grin.Graph) grin.Graph { return g }}
	chaosView = view{name: "chaos", of: bareView.of, chaos: true}
	// meteredView is the bare store, metered.
	meteredView = view{name: "metered", of: bareView.of, metered: true}
	// unsegmentedView is vineyard without grin.LabelAdjacency, metered.
	unsegmentedView = view{name: "unsegmented", metered: true, of: func(g grin.Graph) grin.Graph {
		if vy, ok := g.(*vineyard.Store); ok {
			return grintest.Unsegmented(vy)
		}
		return nil
	}}
	// noIndexView is vineyard without grin.Index: id() yields internal IDs.
	noIndexView = view{name: "no index", of: func(g grin.Graph) grin.Graph {
		if vy, ok := g.(*vineyard.Store); ok {
			return indexless{vy, vy, vy, vy, vy, vy}
		}
		return nil
	}}
	noIndexChaosView = view{name: "no index, chaos", of: noIndexView.of, chaos: true}
)

// indexless is a store without grin.Index.
type indexless struct {
	grin.Graph
	grin.PropertyReader
	grin.BatchAdjacency
	grin.BatchProps
	grin.BatchPropsCol
	grin.BatchScan
}

// pars is every cell's Gaia parallelism: 1, 2 and the machine's CPU count,
// each once.
func pars() []int {
	ps := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		ps = append(ps, n)
	}
	return ps
}

// engineSet picks the engines a grid's cells run beside Gaia, which every
// cell runs at each P and whose plan the serial driver shares.
type engineSet uint8

const (
	runNaive engineSet = 1 << iota
	runHiActor
	runSerial
)

// grid names a test's cells: stores × views × batch sizes over one fixture,
// each running Gaia and the engines in runs.
type grid struct {
	stores  []string
	views   []view
	batches []int // nil: 1, 7 and 1024
	runs    engineSet
}

// cells builds the grid's cells over f, with one set of engines per (store,
// view). When the test ends, its HiActor engines close and then the leak
// check runs.
func (gr grid) cells(t *testing.T, f *fixture) []*cell {
	t.Helper()
	// Cleanups run last in, first out: registered first, the check sees
	// every engine below closed.
	t.Cleanup(query.CheckLeaks(t))
	batches := gr.batches
	if batches == nil {
		batches = []int{1, 7, 1024}
	}
	var cells []*cell
	for _, s := range gr.stores {
		st := f.store(t, s)
		for _, v := range gr.views {
			plain := v.of(st)
			if plain == nil {
				continue
			}
			g := plain
			if v.chaos {
				g = chaos.Wrap(g, chaos.Options{})
			}
			e := &engines{runs: gr.runs, plain: plain}
			if v.metered {
				e.stats = &obsv.StoreStats{}
				g = meter.Wrap(g, e.stats)
			}
			for _, p := range pars() {
				e.gaia = append(e.gaia, gaia.NewEngine(g, gaia.Options{Parallelism: p}))
			}
			if gr.runs&runHiActor != 0 {
				e.hiactor = hiactor.NewEngine(func() grin.Graph { return g }, hiactor.Options{Shards: 2})
				t.Cleanup(e.hiactor.Close)
			}
			for _, bs := range batches {
				cells = append(cells, &cell{store: s, view: v.name, st: st, g: g, bs: bs, engines: e})
			}
		}
	}
	return cells
}

// cell is one store × view × batch size of a grid.
type cell struct {
	store, view string
	st          grin.Graph // the bare store
	g           grin.Graph // the store under the view, which the engines run on
	bs          int
	*engines
}

func (c *cell) String() string { return fmt.Sprintf("%s %s bs=%d", c.store, c.view, c.bs) }

// engines are one (store, view)'s engines, shared by its cells.
type engines struct {
	runs    engineSet
	plain   grin.Graph     // view.of's store, without chaos tap or meter
	gaia    []*gaia.Engine // one per pars()
	hiactor *hiactor.Engine
	stats   *obsv.StoreStats // on a metered view, the meter's sink
}

// answer is one engine's result in a cell.
type answer struct {
	engine string // naive, gaia, hiactor or serial
	p      int    // Gaia's parallelism; 0 for the other engines
	rows   []exec.Row
	out    []string
	err    error
	obs    *obsv.QueryStats
	snap   *obsv.Snapshot // obs straight after this run, before the next engine's
}

func (a answer) String() string {
	if a.p > 0 {
		return fmt.Sprintf("%s P=%d", a.engine, a.p)
	}
	return a.engine
}

// run gives p to the cell's engines under req at the cell's batch size,
// naive, Gaia at each P, HiActor, then the serial driver, and returns their
// answers in that order. With observe set each run gets a collector of its
// own from it; the serial driver always runs with one, so a test can compare
// what its stages did. An observed answer's snap is taken before the next
// engine runs: on a metered view the engines share one meter.
func (c *cell) run(p *ir.Plan, req exec.Request, observe func() *obsv.QueryStats) []answer {
	ctx := context.Background()
	req.BatchSize = c.bs
	var as []answer
	do := func(engine string, par int, run func(exec.Request) ([]exec.Row, []string, error)) {
		r := req
		if observe != nil {
			r.Obs = observe()
		}
		if engine == "serial" && r.Obs == nil {
			r.Obs = obsv.NewQueryStats()
		}
		a := answer{engine: engine, p: par, obs: r.Obs}
		a.rows, a.out, a.err = run(r)
		if a.obs != nil {
			a.snap = a.obs.Snapshot()
		}
		as = append(as, a)
	}
	if c.runs&runNaive != 0 {
		do("naive", 0, func(r exec.Request) ([]exec.Row, []string, error) { return naive.RunWith(ctx, p, c.g, r) })
	}
	for i, e := range c.gaia {
		do("gaia", pars()[i], func(r exec.Request) ([]exec.Row, []string, error) { return submit(ctx, e, p, r) })
	}
	if c.runs&runHiActor != 0 {
		do("hiactor", 0, func(r exec.Request) ([]exec.Row, []string, error) { return submit(ctx, c.hiactor, p, r) })
	}
	if c.runs&runSerial != 0 {
		do("serial", 0, func(r exec.Request) ([]exec.Row, []string, error) { return c.serial(ctx, p, r) })
	}
	return as
}

// serial runs Gaia's physical plan for p on the calling goroutine.
func (c *cell) serial(ctx context.Context, p *ir.Plan, req exec.Request) ([]exec.Row, []string, error) {
	compiled, err := c.gaia[0].Compile(p)
	if err != nil {
		return nil, nil, err
	}
	rows, err := compiled.Run(ctx, &exec.Env{Graph: c.g, Request: req})
	return rows, compiled.Out, err
}

// observe returns a collector that traces and, on a metered view, reads the
// cell's meter, zeroed for this run.
func (c *cell) observe() *obsv.QueryStats {
	obs := obsv.NewQueryStats()
	obs.Trace = obsv.NewTrace()
	if c.stats != nil {
		*c.stats = obsv.StoreStats{}
		meter.Wrap(c.plain, c.stats) // records the backend and the native sites again
		obs.Store = c.stats
	}
	return obs
}
