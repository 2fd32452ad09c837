package allocgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a small source file the canned diagnostics point into; the
// parser attributes by line span, so the line numbers below must agree with
// the diagnostic lines in the canned output.
const fixture = `package fix

var global = alloc() // line 3

func alloc() []int { // line 5
	return make([]int, 8)
}

type T struct{ buf []int }

func (t *T) fill(n int) { // line 11
	t.buf = make([]int, n)
}
`

func writeFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	sub := filepath.Join(dir, "internal", "query", "exec")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "fix.go"), []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

const canned = `# repro/internal/query/exec
internal/query/exec/fix.go:6:13: make([]int, 8) escapes to heap:
internal/query/exec/fix.go:6:13:   flow: {heap} = &{storage for make([]int, 8)}:
internal/query/exec/fix.go:6:13:     from make([]int, 8) (spill) at internal/query/exec/fix.go:6:13
internal/query/exec/fix.go:6:13: make([]int, 8) escapes to heap
internal/query/exec/fix.go:12:14: make([]int, n) escapes to heap
internal/query/exec/fix.go:11:9: leaking param: t
internal/query/exec/fix.go:11:9: t does not escape
internal/query/exec/fix.go:3:5: moved to heap: global
internal/query/exec/fix.go:5:6: can inline alloc with cost 20
`

// TestParseAttribution checks the three attribution cases: plain function,
// method (receiver-qualified), and package-level declaration; verbose flow
// traces and non-allocation chatter must be ignored.
func TestParseAttribution(t *testing.T) {
	dir := writeFixture(t)
	r, err := Parse(dir, canned)
	if err != nil {
		t.Fatal(err)
	}
	pkg := r["internal/query/exec"]
	if pkg == nil {
		t.Fatalf("no package entry: %v", r)
	}
	if n := pkg["alloc"]["make([]int, 8) escapes to heap"]; n != 1 {
		t.Errorf("alloc escape count = %d, want 1 (verbose duplicate must not double-count)", n)
	}
	if n := pkg["T.fill"]["make([]int, n) escapes to heap"]; n != 1 {
		t.Errorf("method escape not attributed to T.fill: %v", pkg)
	}
	if n := pkg["<init>"]["moved to heap: global"]; n != 1 {
		t.Errorf("package-level move not attributed to <init>: %v", pkg)
	}
	if _, ok := pkg["T.fill"]["leaking param: t"]; ok {
		t.Error("leaking-param note must not count as an allocation")
	}
	total := 0
	for _, msgs := range pkg {
		for _, n := range msgs {
			total += n
		}
	}
	if total != 3 {
		t.Errorf("total attributed allocations = %d, want 3", total)
	}
}

// TestDiff checks the gate semantics: the budget is exact, so growth, new
// functions, shrinkage and vanished entries all fail, and only an identical
// report passes.
func TestDiff(t *testing.T) {
	base := Report{"p": {"f": {"x escapes to heap": 1, "y escapes to heap": 2}}}

	if d := Diff(base, base); len(d) != 0 {
		t.Errorf("an identical report must pass, got %v", d)
	}
	d := Diff(base, Report{"p": {"f": {"x escapes to heap": 1, "y escapes to heap": 1}}})
	if len(d) != 1 || !strings.Contains(d[0], `"y escapes to heap" ×1 (baseline 2): stale baseline entry`) {
		t.Errorf("count shrinkage must fail as stale with the counts, got %v", d)
	}
	d = Diff(base, Report{"p": {"f": {"x escapes to heap": 1}}})
	if len(d) != 1 || !strings.Contains(d[0], `"y escapes to heap" ×0 (baseline 2): stale baseline entry`) {
		t.Errorf("a vanished entry must fail as stale, got %v", d)
	}
	d = Diff(base, Report{"p": {"f": {"x escapes to heap": 2, "y escapes to heap": 2}}})
	if len(d) != 1 || !strings.Contains(d[0], `"x escapes to heap" ×2 (baseline 1)`) {
		t.Errorf("count growth must fail with the counts, got %v", d)
	}
	d = Diff(base, Report{"p": {"f": base["p"]["f"], "g": {"z escapes to heap": 1}}})
	if len(d) != 1 || !strings.Contains(d[0], "p: g:") || !strings.Contains(d[0], "new hot-path heap allocation") {
		t.Errorf("new function must fail, got %v", d)
	}
	if d := Diff(Report{}, Report{"p": {"f": {"x escapes to heap": 1}}}); len(d) != 1 {
		t.Errorf("empty baseline fails everything, got %v", d)
	}
	if d := Diff(base, Report{}); len(d) != 2 {
		t.Errorf("an empty report leaves every baseline entry stale, got %v", d)
	}
}

// TestLoadSaveRoundTrip checks the baseline file format, including the
// missing-file-is-empty convention.
func TestLoadSaveRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	r, err := Load(path)
	if err != nil || len(r) != 0 {
		t.Fatalf("missing baseline should load empty: %v, %v", r, err)
	}
	want := Report{"p": {"f": {"m": 2}}}
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got["p"]["f"]["m"] != 2 {
		t.Errorf("round trip lost data: %v", got)
	}
}

// TestCollectSelf runs the real compiler over the repo's own hot packages:
// the report must be non-empty (the runtime allocates somewhere) and every
// key must point into a hot package — or into internal/parallel, whose
// generic reducers the compiler instantiates inside the package that calls
// them while reporting the generic's own source position.
func TestCollectSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the hot packages")
	}
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Collect(root, HotPackages)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) == 0 {
		t.Fatal("no allocations found in the hot path; the parser is dropping diagnostics")
	}
	hot := map[string]bool{"internal/parallel": true}
	for _, pkg := range HotPackages {
		hot[strings.TrimPrefix(pkg, "./")] = true
	}
	for pkg := range r {
		if !hot[pkg] {
			t.Errorf("report contains non-hot package %q", pkg)
		}
	}
	// The gate's core property: a report diffed against itself is clean.
	if d := Diff(r, r); len(d) != 0 {
		t.Errorf("self-diff must be empty, got %v", d)
	}
}
