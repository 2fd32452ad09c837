package gaia

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/ir"
	"repro/internal/query/naive"
	"repro/internal/query/optimizer"
	"repro/internal/storage/vineyard"
)

func snbStore(t *testing.T, persons int) *vineyard.Store {
	t.Helper()
	b := dataset.SNB(dataset.SNBOptions{Persons: persons, Seed: 33})
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestErrorMidStreamReturnsAndLeaksNothing drives a predicate that fails on
// one specific expanded row: the engine must surface the error at every
// parallelism, and every worker goroutine must have returned once it does.
// Run with -race in CI.
func TestErrorMidStreamReturnsAndLeaksNothing(t *testing.T) {
	st := snbStore(t, 200)
	schema := dataset.SNBSchema()

	// Find a person id that actually appears as someone's friend, so the
	// failing division sits mid-stream rather than being unreachable.
	probe, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN id(f)`, schema)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st, Options{Parallelism: 4})
	rows, _, err := eng.Submit(context.Background(), probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no friendships in test store")
	}
	victim := rows[len(rows)/2][0]

	// 1 % (id(f) - $k) divides by zero exactly when f is the victim.
	bad, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person)
WHERE 1 % (id(f) - $k) = 0 RETURN id(f)`, schema)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]graph.Value{"k": victim}

	// Every worker must have wound down by test end.
	defer query.CheckLeaks(t)()
	for _, par := range []int{1, 2, runtime.NumCPU()} {
		e := NewEngine(st, Options{Parallelism: par})
		for i := 0; i < 10; i++ {
			if _, _, err := e.submit(context.Background(), bad, exec.Request{Params: params, BatchSize: 7}); err == nil {
				t.Fatalf("par=%d: mid-stream predicate error was swallowed", par)
			}
		}
	}
}

// TestLimitVersusErrorAgreesWithSerial: when a LIMIT and a failing predicate
// race, the serial driver and the parallel driver must agree — both succeed
// (error sits past the morsel where the limit was satisfied) or both fail
// (error sits before it). exec.Drive gives both drivers the same morsel
// partition, so the race resolves identically.
func TestLimitVersusErrorAgreesWithSerial(t *testing.T) {
	st := snbStore(t, 200)
	schema := dataset.SNBSchema()
	probe, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN id(f)`, schema)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st, Options{Parallelism: 4})
	friends, _, err := eng.Submit(context.Background(), probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(friends) < 20 {
		t.Fatal("test store too small")
	}
	// OR short-circuits left to right, so the division by zero fires exactly
	// when f is the victim.
	bad, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person)
WHERE 1 % (id(f) - $k) = 0 OR id(f) >= 0 RETURN id(f) LIMIT 5`, schema)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := optimizer.Optimize(bad, eng.Catalog(), optimizer.All())
	if err != nil {
		t.Fatal(err)
	}
	c, err := exec.Compile(phys, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Victims early (before the limit) and late (after it) in stream order.
	for _, victim := range []graph.Value{friends[0][0], friends[len(friends)-1][0]} {
		params := map[string]graph.Value{"k": victim}
		serialRows, serialErr := c.Run(context.Background(), &exec.Env{Graph: st, Request: exec.Request{Params: params}})
		for _, par := range []int{1, 2, runtime.NumCPU()} {
			e := NewEngine(st, Options{Parallelism: par})
			gaiaRows, gaiaErr := e.Run(context.Background(), c, exec.Request{Params: params})
			if (serialErr != nil) != (gaiaErr != nil) {
				t.Fatalf("victim=%v par=%d: serial err=%v, gaia err=%v", victim, par, serialErr, gaiaErr)
			}
			if serialErr != nil {
				continue
			}
			if len(gaiaRows) != len(serialRows) {
				t.Fatalf("victim=%v par=%d: %d rows vs %d", victim, par, len(gaiaRows), len(serialRows))
			}
			for i := range gaiaRows {
				if !gaiaRows[i][0].Equal(serialRows[i][0]) {
					t.Fatalf("victim=%v par=%d: row %d: %v vs %v", victim, par, i, gaiaRows[i][0], serialRows[i][0])
				}
			}
		}
	}
}

// TestParallelOrderMatchesSerial pins the determinism guarantee directly in
// the engine: the same compiled plan returns rows in identical order at
// parallelism 1 and NumCPU, without any ORDER BY to hide behind.
func TestParallelOrderMatchesSerial(t *testing.T) {
	st := snbStore(t, 150)
	schema := dataset.SNBSchema()
	plan, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person)-[:LIKES]->(m:Post)
RETURN f.firstName, m.creationDate`, schema)
	if err != nil {
		t.Fatal(err)
	}
	serial := NewEngine(st, Options{Parallelism: 1})
	want, _, err := serial.Submit(context.Background(), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 64, 1024} {
		par := NewEngine(st, Options{Parallelism: runtime.NumCPU()})
		got, _, err := par.submit(context.Background(), plan, exec.Request{BatchSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("bs=%d: %d rows vs %d", bs, len(got), len(want))
		}
		for i := range got {
			for j := range got[i] {
				if !got[i][j].Equal(want[i][j]) {
					t.Fatalf("bs=%d: row %d col %d: %v vs %v", bs, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// concurrentQueries differ in width, column kinds, segment count and barrier
// mix, so a recycled arena is reshaped by whichever query takes it next.
var concurrentQueries = []string{
	`MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN id(p) + 1, id(f)`,
	`MATCH (p:Person)-[:KNOWS]->(f:Person)-[:LIKES]->(m:Post) WHERE m.length > 40
RETURN f.firstName, m.creationDate`,
	`MATCH (p:Person)-[:KNOWS]->(f:Person) WITH f, COUNT(p) AS c
RETURN f.lastName, c ORDER BY c DESC, f.lastName LIMIT 10`,
	`MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post) WHERE p.birthday % 2 = 0
RETURN p.firstName, m.length ORDER BY m.length DESC, p.firstName LIMIT 25`,
	`MATCH (p:Person) RETURN p.browserUsed`,
}

// TestConcurrentQueriesRecycleArenas runs differently shaped queries on one
// engine from many goroutines at once — more than its arena free list holds,
// so arenas are recycled between overlapping queries, allocated fresh, and
// dropped — and checks every result against the naive engine.
func TestConcurrentQueriesRecycleArenas(t *testing.T) {
	checkLeaks := query.CheckLeaks(t)
	st := snbStore(t, 150)
	schema := dataset.SNBSchema()
	plans := make([]*ir.Plan, len(concurrentQueries))
	want := make([][]exec.Row, len(concurrentQueries))
	for i, q := range concurrentQueries {
		var err error
		if plans[i], err = cypher.Parse(q, schema); err != nil {
			t.Fatal(err)
		}
		if want[i], _, err = naive.Run(context.Background(), plans[i], st, nil); err != nil {
			t.Fatal(err)
		}
		if len(want[i]) == 0 {
			t.Fatalf("query %d returns no rows", i)
		}
	}
	e := NewEngine(st, Options{Parallelism: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6*len(plans); i++ {
				q := (g + i) % len(plans)
				got, _, err := e.submit(context.Background(), plans[q], exec.Request{BatchSize: 64})
				if err != nil {
					t.Errorf("goroutine %d query %d: %v", g, q, err)
					return
				}
				if !sameRows(got, want[q], !strings.Contains(concurrentQueries[q], "ORDER BY")) {
					t.Errorf("goroutine %d query %d: rows differ from naive\n got %v\nwant %v", g, q, got, want[q])
					return
				}
			}
		}()
	}
	wg.Wait()
	checkLeaks()
}

// sameRows compares two result sets value for value, in order or — for
// queries whose row order the plan shape decides — as multisets.
func sameRows(a, b []exec.Row, unordered bool) bool {
	if len(a) != len(b) {
		return false
	}
	render := func(rows []exec.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		if unordered {
			sort.Strings(out)
		}
		return out
	}
	ra, rb := render(a), render(b)
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// TestWarmedQueryAllocations pins the allocation count of a warmed three-
// segment query: worker arenas, the calling goroutine's arena and the pooled
// batches are all recycled, so a run allocates per segment only its shared
// state, its spawned workers and their Env copies, plus its result rows.
const warmedQueryAllocs = 76 // measured with this test

func TestWarmedQueryAllocations(t *testing.T) {
	st := snbStore(t, 150)
	plan, err := cypher.Parse(concurrentQueries[2], dataset.SNBSchema())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, Options{Parallelism: 2})
	c, err := e.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := e.Run(context.Background(), c, exec.Request{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(100, run)
	t.Logf("warmed query: %.0f allocs per run", allocs)
	if !raceEnabled && allocs > warmedQueryAllocs {
		t.Fatalf("warmed query allocates %.0f times per run, want <= %d", allocs, warmedQueryAllocs)
	}
}

// TestParallelErrorIsTheSerialError pins which error a parallel run returns
// when two morsels fail with different errors: the earlier morsel's, the one
// the serial driver meets first, however the workers happen to be scheduled.
// The modulo victim's rows close one morsel and the division victim's open
// the next, so the later morsel's error is usually the first one raised.
func TestParallelErrorIsTheSerialError(t *testing.T) {
	st := snbStore(t, 200)
	schema := dataset.SNBSchema()
	eng := NewEngine(st, Options{Parallelism: 1})
	compile := func(q string) *exec.Compiled {
		t.Helper()
		plan, err := cypher.Parse(q, schema)
		if err != nil {
			t.Fatal(err)
		}
		c, err := eng.Compile(plan)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// The optimizer starts at f, so a row's morsel is its f's place in the
	// scan, and each f's rows are contiguous.
	friends, err := compile(`MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN f, id(f)`).Run(context.Background(), &exec.Env{Graph: st})
	if err != nil {
		t.Fatal(err)
	}
	lo, _, _ := st.LabelRange(dataset.SNBPerson)
	var a, b graph.Value // a opens morsel 1, b closes morsel 0
	for _, r := range friends {
		if m := int(r[0].Vertex()-lo) / exec.MorselRows(exec.DefaultBatchSize); m == 0 {
			b = r[1]
		} else if m == 1 {
			a = r[1]
			break
		}
	}
	if a.IsNull() || b.IsNull() {
		t.Fatal("morsels 0 and 1 hold no friends")
	}
	c := compile(`MATCH (p:Person)-[:KNOWS]->(f:Person)
WHERE 1 / (id(f) - $a) + 1 % (id(f) - $b) >= 0 RETURN id(f)`)
	params := map[string]graph.Value{"a": a, "b": b}
	_, serialErr := c.Run(context.Background(), &exec.Env{Graph: st, Request: exec.Request{Params: params}})
	if serialErr == nil || !strings.Contains(serialErr.Error(), "modulo by zero") {
		t.Fatalf("serial run returned %v, want the modulo error of morsel 0", serialErr)
	}
	for _, par := range []int{2, 4, 8} {
		e := NewEngine(st, Options{Parallelism: par})
		for i := 0; i < 50; i++ {
			_, err := e.Run(context.Background(), c, exec.Request{Params: params})
			if err == nil || err.Error() != serialErr.Error() {
				t.Fatalf("par=%d run %d: error %v, the serial driver's is %v", par, i, err, serialErr)
			}
		}
	}
}
