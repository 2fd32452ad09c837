// An oracle for GROUP that shares none of its code: naive runs the same
// GROUP stages as the other engines, so it cannot be the reference for them.
// Every generated count-shaped query also runs un-aggregated — its MATCH with
// `RETURN k, x` — the test folds those rows into counts itself, and every
// engine × backend × batch size × parallelism must return that multiset, in
// one row order per engine.
package query_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
)

// rawCountQuery is the un-aggregated form of a count query: the grouped
// vertex's id as k, the counted vertex's id as x (absent under COUNT(*)).
func rawCountQuery(q countQuery) string {
	var cols []string
	if q.key != "" {
		cols = append(cols, fmt.Sprintf("id(%s) AS k", q.key))
	}
	if q.counted != "*" {
		cols = append(cols, fmt.Sprintf("id(%s) AS x", q.counted))
	}
	if len(cols) == 0 {
		cols = append(cols, "id(v0) AS z")
	}
	return q.match + "\nRETURN " + strings.Join(cols, ", ")
}

// foldCounts is the oracle: one "k|count" line per key (one "count" line for
// a global count, present over no rows too), sorted. A NULL x is not counted,
// but its key still forms a group.
func foldCounts(rows []exec.Row, out []string, keyed bool) []string {
	k, x := slices.Index(out, "k"), slices.Index(out, "x")
	counts := map[string]int64{}
	if !keyed {
		counts[""] = 0
	}
	for _, r := range rows {
		key := ""
		if keyed {
			key = r[k].String() + "|"
		}
		counts[key] += 0
		if x < 0 || !r[x].IsNull() {
			counts[key]++
		}
	}
	var lines []string
	for key, c := range counts {
		lines = append(lines, key+strconv.FormatInt(c, 10))
	}
	sort.Strings(lines)
	return lines
}

// countRows renders a count query's result rows in order as "k|c" or "c".
func countRows(rows []exec.Row, out []string) []string {
	k, c := slices.Index(out, "k"), slices.Index(out, "c")
	lines := make([]string, len(rows))
	for i, r := range rows {
		if k >= 0 {
			lines[i] = r[k].String() + "|"
		}
		lines[i] += r[c].String()
	}
	return lines
}

// TestGeneratedGroupCountOracle checks generated COUNT queries — COUNT(*),
// COUNT(alias), EXPAND_DEGREE-weighted, keyed and global, split into
// GROUP(partial) + merge or not — plus global counts over an empty match,
// which must yield exactly one row, 0.
func TestGeneratedGroupCountOracle(t *testing.T) {
	schema := dataset.SNBSchema()
	f := snbFixture(16, 4)
	cells := grid{
		stores: []string{"vineyard", "gart", "livegraph"},
		views:  []view{bareView},
		runs:   runNaive | runHiActor,
	}.cells(t, f)
	rng := rand.New(rand.NewSource(20261015))
	var queries []countQuery
	for len(queries) < 40 {
		queries = append(queries, genCountQuery(rng, schema))
	}
	const empty = "MATCH (v0:Person)-[:KNOWS]->(v1:Person)-[:KNOWS]->(v2:Person)\nWHERE id(v0) = id(v2) AND id(v0) <> id(v2)"
	for _, counted := range []string{"v2", "*", "v1"} { // folded leaf, folded star, unfolded middle
		queries = append(queries, countQuery{
			text:  empty + fmt.Sprintf("\nRETURN COUNT(%s) AS c", counted),
			match: empty, counted: counted,
		})
	}
	queries = append(queries, countQuery{
		text:  empty + "\nWITH v0, COUNT(v2) AS c\nRETURN id(v0) AS k, c",
		match: empty, key: "v0", counted: "v2",
	})

	var split, star, alias, folded, global int
	for qi, q := range queries {
		plan, err := cypher.Parse(q.text, schema)
		if err != nil {
			t.Fatalf("query %d: %v\n%s", qi, err, q.text)
		}
		raw, err := cypher.Parse(rawCountQuery(q), schema)
		if err != nil {
			t.Fatalf("query %d raw: %v\n%s", qi, err, rawCountQuery(q))
		}
		compiled, err := cells[0].gaia[0].Compile(plan) // vineyard
		if err != nil {
			t.Fatalf("query %d: %v\n%s", qi, err, q.text)
		}
		if slices.Contains(compiled.StageNames(), "GROUP(partial)") {
			split++
		}
		if q.counted == "*" {
			star++
		} else {
			alias++
		}
		if q.fold {
			folded++
		}
		if q.key == "" {
			global++
		}
		want := map[string][]string{}  // by store
		order := map[string][]string{} // by store and engine
		for _, c := range cells {
			if q.props && c.store == "livegraph" {
				continue
			}
			if _, ok := want[c.store]; !ok {
				rawRows, rawOut := f.ref(t, c.store, raw, rawCountQuery(q), nil)
				want[c.store] = foldCounts(rawRows, rawOut, q.key != "")
			}
			for _, a := range c.run(plan, exec.Request{}, nil) {
				if a.err != nil {
					t.Fatalf("query %d %s on %s: %v\n%s", qi, a, c, a.err, q.text)
				}
				got := countRows(a.rows, a.out)
				sorted := slices.Sorted(slices.Values(got))
				if !slices.Equal(sorted, want[c.store]) {
					t.Fatalf("query %d %s on %s:\n%s\ngot\n%s\nfolded from the un-aggregated rows\n%s",
						qi, a, c, q.text, strings.Join(sorted, "\n"), strings.Join(want[c.store], "\n"))
				}
				key := c.store + " " + a.engine
				if ref, ok := order[key]; !ok {
					order[key] = got
				} else if !slices.Equal(got, ref) {
					t.Fatalf("query %d %s on %s: row order\n%s\nanother batch size or parallelism gave\n%s\n%s",
						qi, a, c, strings.Join(got, "\n"), strings.Join(ref, "\n"), q.text)
				}
			}
		}
	}
	if split < len(queries)/3 || star == 0 || alias == 0 || folded == 0 || global == 0 {
		t.Fatalf("coverage: %d of %d queries split their GROUP; %d COUNT(*), %d COUNT(alias), %d folded, %d global",
			split, len(queries), star, alias, folded, global)
	}
}
