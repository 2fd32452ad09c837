package hiactor

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/naive"
	"repro/internal/storage/chaos"
	"repro/internal/storage/gart"
)

func engineOverGART(t *testing.T) (*Engine, *gart.Store) {
	t.Helper()
	b := dataset.SNB(dataset.SNBOptions{Persons: 100, Seed: 4})
	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(b); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(func() grin.Graph { return gs.Latest() }, Options{Shards: 3})
	t.Cleanup(e.Close)
	return e, gs
}

func TestConcurrentCallsAcrossShards(t *testing.T) {
	e, _ := engineOverGART(t)
	plan, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person)
WHERE id(p) = $pid RETURN COUNT(f) AS c`, dataset.SNBSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Install("friends", plan); err != nil {
		t.Fatal(err)
	}
	// Reference counts computed serially.
	want := make([]int64, 50)
	for pid := range want {
		rows, err := e.Call(context.Background(), "friends", map[string]graph.Value{"pid": graph.IntValue(int64(pid))})
		if err != nil {
			t.Fatal(err)
		}
		want[pid] = rows[0][0].Int()
	}
	// Hammer concurrently: results must match the serial reference.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pid := (i + w) % 50
				rows, err := e.Call(context.Background(), "friends", map[string]graph.Value{"pid": graph.IntValue(int64(pid))})
				if err != nil {
					errs <- err
					return
				}
				if rows[0][0].Int() != want[pid] {
					t.Errorf("pid %d: got %d want %d", pid, rows[0][0].Int(), want[pid])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestQueriesSeeCommittedUpdates(t *testing.T) {
	e, gs := engineOverGART(t)
	plan, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person)
WHERE id(p) = $pid RETURN COUNT(f) AS c`, dataset.SNBSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Install("friends", plan); err != nil {
		t.Fatal(err)
	}
	params := map[string]graph.Value{"pid": graph.IntValue(1)}
	before, err := e.Call(context.Background(), "friends", params)
	if err != nil {
		t.Fatal(err)
	}
	// Add a friendship and commit: the next call sees it (the provider
	// returns the latest snapshot).
	if err := gs.AddEdge(dataset.SNBKnows, 1, 99, graph.IntValue(0)); err != nil {
		t.Fatal(err)
	}
	gs.Commit()
	after, err := e.Call(context.Background(), "friends", params)
	if err != nil {
		t.Fatal(err)
	}
	if after[0][0].Int() != before[0][0].Int()+1 {
		t.Fatalf("update invisible: %d -> %d", before[0][0].Int(), after[0][0].Int())
	}
}

// TestActorSurvivesPanickingQuery pins panic isolation at the actor loop: a
// query whose storage read panics fails alone with a typed error, the actor
// keeps serving its mailbox, and closing the pool leaks nothing. The leak
// check brackets the engine's whole lifetime, so it also proves Close joins
// every actor goroutine.
func TestActorSurvivesPanickingQuery(t *testing.T) {
	checkLeaks := query.CheckLeaks(t)
	b := dataset.SNB(dataset.SNBOptions{Persons: 50, Seed: 4})
	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(b); err != nil {
		t.Fatal(err)
	}
	// One shard: the poisoned query and its survivors share an actor, so
	// success after failure proves the loop recovered rather than a sibling
	// picking up the slack.
	faulty := chaos.Wrap(gs.Latest(), chaos.Options{
		Seed:   11,
		Faults: []chaos.Fault{{Site: grin.SiteExpandBatch, Kind: chaos.KindPanic, N: 1}},
	})
	e := NewEngine(func() grin.Graph { return faulty }, Options{Shards: 1})
	plan, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN COUNT(f) AS c`, dataset.SNBSchema())
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), c, exec.Request{}); err == nil {
		t.Fatal("poisoned query succeeded")
	} else {
		var pe *exec.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("poisoned query failed with %v, want *exec.PanicError", err)
		}
	}
	// The fault fired once; the same actor must now serve clean queries.
	for i := 0; i < 3; i++ {
		if _, err := e.Run(context.Background(), c, exec.Request{}); err != nil {
			t.Fatalf("query %d after the panic failed: %v", i, err)
		}
	}
	e.Close()
	checkLeaks()
}

func TestClosedEngineRejectsCalls(t *testing.T) {
	b := dataset.SNB(dataset.SNBOptions{Persons: 20, Seed: 6})
	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(b); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(func() grin.Graph { return gs.Latest() }, Options{Shards: 1})
	plan, _ := cypher.Parse(`MATCH (p:Person) RETURN COUNT(p) AS c`, dataset.SNBSchema())
	if err := e.Install("count", plan); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Call(context.Background(), "count", nil); err == nil {
		t.Fatal("closed engine accepted a call")
	}
	if _, err := e.Procedure("nope"); err == nil {
		t.Fatal("unknown procedure output resolved")
	}
	if c, err := e.Procedure("count"); err != nil || len(c.Out) != 1 {
		t.Fatalf("Procedure: %v %v", c, err)
	}
}

// hookedSnap is a GART snapshot with test hooks on two trait calls; every
// other trait is the embedded snapshot's, so the engine sees a full backend.
type hookedSnap struct {
	*gart.Snapshot
	onLookup func(ext int64)
	onExpand func()
}

func (h hookedSnap) LookupVertex(label graph.LabelID, ext int64) (graph.VID, bool) {
	if h.onLookup != nil {
		h.onLookup(ext)
	}
	return h.Snapshot.LookupVertex(label, ext)
}

func (h hookedSnap) ExpandBatch(frontier []graph.VID, dir graph.Direction, out *grin.AdjBatch) {
	if h.onExpand != nil {
		h.onExpand()
	}
	h.Snapshot.ExpandBatch(frontier, dir, out)
}

// gate parks the next armed calls that reach wait: each parked call announces
// itself on parked with the channel that releases it.
type gate struct {
	armed  atomic.Int32
	parked chan chan struct{}
}

// newGate sizes parked above what any test arms, so a parking call never
// blocks announcing itself.
func newGate() *gate { return &gate{parked: make(chan chan struct{}, 16)} }

func (g *gate) wait() {
	for {
		n := g.armed.Load()
		if n <= 0 {
			return
		}
		if g.armed.CompareAndSwap(n, n-1) {
			release := make(chan struct{})
			g.parked <- release
			<-release
			return
		}
	}
}

const friendsQuery = `MATCH (p:Person)-[:KNOWS]->(f:Person)
WHERE id(p) = $pid RETURN COUNT(f) AS c`

const twoHopQuery = `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person)
WHERE id(p) = $pid RETURN id(f), g.firstName`

func pidParam(pid int64) map[string]graph.Value {
	return map[string]graph.Value{"pid": graph.IntValue(pid)}
}

// gatedEngine builds an engine over a 100-person GART store whose provider
// parks on g, with the given procedures installed (the gate is armed by the
// test, after installation).
func gatedEngine(t *testing.T, g *gate, opt Options, perShard int, hooks hookedSnap, procs map[string]string) (*Engine, *gart.Store) {
	t.Helper()
	b := dataset.SNB(dataset.SNBOptions{Persons: 100, Seed: 4})
	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(b); err != nil {
		t.Fatal(err)
	}
	e := newEngine(func() grin.Graph {
		g.wait()
		h := hooks
		h.Snapshot = gs.Latest()
		return h
	}, opt, perShard)
	t.Cleanup(e.Close)
	for name, q := range procs {
		plan, err := cypher.Parse(q, dataset.SNBSchema())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Install(name, plan); err != nil {
			t.Fatal(err)
		}
	}
	return e, gs
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestWorkConservingDispatch pins the shared run queue's defining property: a
// request never waits while an actor is idle. One of two actors is parked
// inside the provider; a hundred short calls must all complete on the other
// before the gate opens. (Round-robin mailboxes would queue every second
// call behind the parked actor.)
func TestWorkConservingDispatch(t *testing.T) {
	g := newGate()
	e, _ := gatedEngine(t, g, Options{Shards: 2}, queuePerShard, hookedSnap{}, map[string]string{"friends": friendsQuery})
	g.armed.Store(1)
	parkedDone := make(chan error, 1)
	go func() {
		_, err := e.Call(context.Background(), "friends", pidParam(1))
		parkedDone <- err
	}()
	release := <-g.parked

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 100; i++ {
		if _, err := e.Call(ctx, "friends", pidParam(int64(i%50))); err != nil {
			t.Fatalf("short call %d beside a parked actor: %v", i, err)
		}
	}
	select {
	case err := <-parkedDone:
		t.Fatalf("parked call finished before its gate opened: %v", err)
	default:
	}
	close(release)
	if err := <-parkedDone; err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.Enqueued != 101 || m.Shed != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestSharedQueueDrainsFIFO runs more clients than actors: with both actors
// parked, six calls queue up in a known order; one actor is released and must
// start them in exactly that order.
func TestSharedQueueDrainsFIFO(t *testing.T) {
	var mu sync.Mutex
	var started []int64
	hooks := hookedSnap{onLookup: func(ext int64) {
		mu.Lock()
		started = append(started, ext)
		mu.Unlock()
	}}
	g := newGate()
	e, _ := gatedEngine(t, g, Options{Shards: 2}, queuePerShard, hooks, map[string]string{"friends": friendsQuery})
	g.armed.Store(2)
	var wg sync.WaitGroup
	call := func(pid int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Call(context.Background(), "friends", pidParam(pid)); err != nil {
				t.Errorf("pid %d: %v", pid, err)
			}
		}()
	}
	call(90)
	call(91)
	releaseA, releaseB := <-g.parked, <-g.parked
	queued := []int64{7, 3, 9, 1, 8, 2}
	for i, pid := range queued {
		call(pid)
		waitFor(t, "enqueue", func() bool { return e.Metrics().Enqueued == int64(3+i) })
	}
	if d := e.Metrics().MaxDepth; d != int64(len(queued)-1) {
		t.Fatalf("MaxDepth %d with %d calls queued one after another", d, len(queued))
	}
	close(releaseA)
	waitFor(t, "drain", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(started) == 1+len(queued)
	})
	close(releaseB)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	// started[0] is the released parked call (90 or 91); the queue follows.
	for i, pid := range queued {
		if started[1+i] != pid {
			t.Fatalf("start order %v, want the parked call then %v", started, queued)
		}
	}
}

// TestFullQueueShedsWithDeadline is the admission-control path on the shared
// queue: with the only actor busy and the queue (one shard × one slot = 1)
// full, a call with a deadline is rejected at enqueue with the typed error,
// and a queued call whose deadline passes is shed by the actor unexecuted.
// Both count in Metrics().Shed.
func TestFullQueueShedsWithDeadline(t *testing.T) {
	checkLeaks := query.CheckLeaks(t)
	g := newGate()
	e, _ := gatedEngine(t, g, Options{Shards: 1}, 1, hookedSnap{}, map[string]string{"friends": friendsQuery})
	g.armed.Store(1)
	running := make(chan error, 1)
	go func() {
		_, err := e.Call(context.Background(), "friends", pidParam(1))
		running <- err
	}()
	release := <-g.parked

	queuedCtx, cancelQueued := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancelQueued()
	queued := make(chan error, 1)
	go func() {
		_, err := e.Call(queuedCtx, "friends", pidParam(2))
		queued <- err
	}()
	waitFor(t, "queue to fill", func() bool { return e.Metrics().Enqueued == 2 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := e.Call(ctx, "friends", pidParam(3)); !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("call into a full queue: %v, want ErrDeadlineExceeded", err)
	}
	if m := e.Metrics(); m.Shed != 1 || m.Enqueued != 2 {
		t.Fatalf("after the rejected enqueue: %+v", m)
	}
	if err := <-queued; !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("queued call past its deadline: %v, want ErrDeadlineExceeded", err)
	}
	close(release)
	if err := <-running; err != nil {
		t.Fatal(err)
	}
	e.Close() // joins the actor, which has shed the expired task by now
	if m := e.Metrics(); m.Shed != 2 {
		t.Fatalf("expired queued task not shed: %+v", m)
	}
	checkLeaks()
}

// TestArenaReuseAllocations pins what the actor-owned arena buys: a warmed
// two-hop procedure allocates a small constant per call (the reply channel,
// the environment, the source buffer, the snapshot and the result rows — the
// result-materialization floor), far below the same plan driven with no arena
// given: Drive then installs a fresh one per run, and every accumulator, stage
// buffer and scratch slice is grown afresh.
func TestArenaReuseAllocations(t *testing.T) {
	e, gs := gatedEngine(t, newGate(), Options{Shards: 1}, queuePerShard, hookedSnap{}, map[string]string{"twohop": twoHopQuery})
	params := pidParam(1)
	ctx := context.Background()
	rows, err := e.Call(ctx, "twohop", params)
	if err != nil || len(rows) == 0 {
		t.Fatalf("two-hop: %d rows, %v", len(rows), err)
	}
	withArena := testing.AllocsPerRun(200, func() {
		if _, err := e.Call(ctx, "twohop", params); err != nil {
			t.Fatal(err)
		}
	})

	e.mu.RLock()
	c := e.procs["twohop"]
	e.mu.RUnlock()
	noArena := testing.AllocsPerRun(200, func() {
		env := &exec.Env{Graph: gs.Latest(), Request: exec.Request{Params: params}}
		if _, err := c.Run(ctx, env); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per call: %.0f with the arena, %.0f without", withArena, noArena)
	if !raceEnabled && withArena > 20 {
		t.Fatalf("warmed two-hop call allocates %.0f times, want the materialization floor (<= 20)", withArena)
	}
	if noArena < 2*withArena {
		t.Fatalf("arena saves too little: %.0f allocs with, %.0f without", withArena, noArena)
	}
}

// TestShortAfterComplexAllocations runs a point read on an actor whose arena
// a three-hop read has just grown: the short call must reuse that memory
// untouched — no allocation beyond the parent commit's count, which drew the
// same scratch from sync.Pools.
func TestShortAfterComplexAllocations(t *testing.T) {
	e, _ := gatedEngine(t, newGate(), Options{Shards: 1}, queuePerShard, hookedSnap{}, map[string]string{
		"short": `MATCH (p:Person) WHERE id(p) = $pid RETURN p.firstName, p.lastName, p.birthday + 1`,
		"complex": `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(h:Person)-[:KNOWS]->(g:Person)
WHERE id(p) = $pid RETURN g.firstName, g.birthday + 1`,
	})
	ctx := context.Background()
	if rows, err := e.Call(ctx, "complex", pidParam(1)); err != nil || len(rows) < 1000 {
		t.Fatalf("complex: %d rows, %v", len(rows), err)
	}
	params := pidParam(2)
	allocs := testing.AllocsPerRun(200, func() {
		if rows, err := e.Call(ctx, "short", params); err != nil || len(rows) != 1 {
			t.Fatalf("short: %d rows, %v", len(rows), err)
		}
	})
	t.Logf("short call after a complex one: %.0f allocs", allocs)
	const parent = 18 // the parent commit, measured with this test
	if !raceEnabled && allocs > parent {
		t.Fatalf("short call after a complex one allocates %.0f times, want <= %d", allocs, parent)
	}
}

// rowsEqual compares two result sets row for row, value for value.
func rowsEqual(a, b []exec.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// arenaProcs are procedures of different widths, column kinds and segment
// counts, so one arena's buffers are reshaped between them.
var arenaProcs = map[string]string{
	"friends": friendsQuery,
	"twohop":  twoHopQuery,
	"posts": `MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post)
WHERE id(p) = $pid RETURN f.firstName, m.creationDate ORDER BY m.creationDate DESC LIMIT 5`,
	"grouped": `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person)
WHERE id(p) = $pid WITH f, COUNT(g) AS c RETURN f.firstName, c ORDER BY c DESC`,
}

// TestArenaResultsMatchNaive interleaves differently shaped procedures on one
// actor — every call reshapes the buffers its predecessor grew — and checks
// each result row for row against the naive engine, which runs every query on
// a fresh arena.
func TestArenaResultsMatchNaive(t *testing.T) {
	checkLeaks := query.CheckLeaks(t)
	e, gs := gatedEngine(t, newGate(), Options{Shards: 1}, queuePerShard, hookedSnap{}, arenaProcs)
	names := []string{"twohop", "friends", "posts", "grouped", "friends", "twohop", "grouped", "posts"}
	for round := 0; round < 3; round++ {
		for i, name := range names {
			params := pidParam(int64((7*round + 3*i) % 100))
			got, err := e.call(context.Background(), name, exec.Request{Params: params, BatchSize: 16})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			plan, err := cypher.Parse(arenaProcs[name], dataset.SNBSchema())
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := naive.Run(context.Background(), plan, gs.Latest(), params)
			if err != nil {
				t.Fatalf("naive %s: %v", name, err)
			}
			if !rowsEqual(got, want) {
				t.Fatalf("round %d %s %v: hiactor rows differ from naive\n got %v\nwant %v", round, name, params, got, want)
			}
		}
	}
	e.Close()
	checkLeaks()
}

// TestArenaSurvivesPanicAndAbandonedQuery leaves the arena in the two states
// a clean run never does — buffers half-written by a query that panicked in
// its second expansion, and a query still running on the actor after its
// caller gave up on the deadline — and checks that the next queries on the
// same actor are row-identical to their references.
func TestArenaSurvivesPanicAndAbandonedQuery(t *testing.T) {
	checkLeaks := query.CheckLeaks(t)
	var expands atomic.Int32 // ExpandBatch calls of the current query
	var panicAt atomic.Int32 // panic at this call (0: never)
	stall := newGate()       // parks an armed ExpandBatch
	hooks := hookedSnap{onExpand: func() {
		n := expands.Add(1)
		if n == panicAt.Load() {
			panic("injected: second expansion")
		}
		if n == 2 {
			stall.wait()
		}
	}}
	e, _ := gatedEngine(t, newGate(), Options{Shards: 1}, queuePerShard, hooks, arenaProcs)
	ctx := context.Background()
	call := func(ctx context.Context, name string, pid int64) ([]exec.Row, error) {
		expands.Store(0)
		return e.call(ctx, name, exec.Request{Params: pidParam(pid), BatchSize: 16})
	}
	want := map[string][]exec.Row{}
	for name := range arenaProcs {
		rows, err := call(ctx, name, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = rows
	}
	check := func(after string) {
		t.Helper()
		for _, name := range []string{"twohop", "posts", "friends", "grouped"} {
			rows, err := call(ctx, name, 1)
			if err != nil {
				t.Fatalf("%s after %s: %v", name, after, err)
			}
			if !rowsEqual(rows, want[name]) {
				t.Fatalf("%s after %s: rows differ\n got %v\nwant %v", name, after, rows, want[name])
			}
		}
	}

	panicAt.Store(2)
	_, err := call(ctx, "twohop", 1)
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("poisoned query: %v, want *exec.PanicError", err)
	}
	panicAt.Store(0)
	check("a panic")

	stall.armed.Store(1)
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	abandoned := make(chan error, 1)
	go func() {
		_, err := call(short, "twohop", 1)
		abandoned <- err
	}()
	release := <-stall.parked // the query is mid-flight on the actor
	if err := <-abandoned; !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("abandoned query: %v, want ErrDeadlineExceeded", err)
	}
	close(release) // the actor resumes a query nobody waits for
	check("an abandoned query")

	e.Close()
	checkLeaks()
}

// TestCloseRacesCalls closes the engine while callers are mid-enqueue, many
// times over: every call must end in rows or an error — "pending calls
// complete, new calls fail" — and none may panic sending on the closed queue.
func TestCloseRacesCalls(t *testing.T) {
	checkLeaks := query.CheckLeaks(t)
	b := dataset.SNB(dataset.SNBOptions{Persons: 50, Seed: 4})
	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(b); err != nil {
		t.Fatal(err)
	}
	plan, err := cypher.Parse(friendsQuery, dataset.SNBSchema())
	if err != nil {
		t.Fatal(err)
	}
	params := pidParam(1)
	for round := 0; round < 300; round++ {
		e := NewEngine(func() grin.Graph { return gs.Latest() }, Options{Shards: 2})
		if err := e.Install("friends", plan); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("round %d: Call panicked: %v", round, r)
					}
				}()
				for {
					if _, err := e.Call(context.Background(), "friends", params); err != nil {
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(round) * time.Microsecond)
		e.Close()
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	checkLeaks()
}
