// Package allocgate is the compiler-backed allocation budget: it runs the
// gc escape analysis (`go build -gcflags='-m -m'`) over the hot-path
// packages, attributes every heap-allocation diagnostic to its enclosing
// function, and diffs the result against a checked-in baseline
// (lint/allocs_baseline.json). A change that introduces a new heap
// allocation on the hot path — a fresh escape site, or more escapes in a
// function that already had some — fails `flexlint -allocs`, and so does one
// that removes an allocation without shrinking the baseline; deliberate
// changes refresh the baseline with `flexlint -allocs -update`.
//
// Keys are (package, function, diagnostic message), never line numbers, so
// unrelated edits that shift code around do not churn the baseline. Counts
// matter: two `make([]graph.Value, ...) escapes to heap` in one function is
// worse than one, even though the message is identical.
package allocgate

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// HotPackages are the packages the budget covers: the three query engines,
// the shared stage runtime, the GRIN helper layer every frontier crosses, and
// the analytics engine with the PIE programs whose per-edge send path it
// runs.
var HotPackages = []string{
	"./internal/query/exec",
	"./internal/query/gaia",
	"./internal/query/hiactor",
	"./internal/query/naive",
	"./internal/grin",
	"./internal/analytics/grape",
	"./internal/analytics/algorithms",
}

// Report maps package → function → diagnostic message → count.
type Report map[string]map[string]map[string]int

func (r Report) add(pkg, fn, msg string) {
	if r[pkg] == nil {
		r[pkg] = map[string]map[string]int{}
	}
	if r[pkg][fn] == nil {
		r[pkg][fn] = map[string]int{}
	}
	r[pkg][fn][msg]++
}

// diagLine matches one terse diagnostic: "path.go:line:col: message". The
// verbose -m -m flow traces end with a colon or are indented continuation
// lines; both are filtered by the caller.
var diagLine = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: (.*)$`)

// isAllocMsg keeps only heap-allocation diagnostics: escape sites and
// stack-to-heap moves. Leaking-param notes and inlining chatter are not
// allocations; verbose trace headers end with ":".
func isAllocMsg(msg string) bool {
	return strings.HasSuffix(msg, "escapes to heap") ||
		strings.HasPrefix(msg, "moved to heap:")
}

// Collect builds the hot-path packages with escape-analysis diagnostics
// enabled and returns the attributed report. dir is the module root.
func Collect(dir string, pkgs []string) (Report, error) {
	// -o to a discarded binary is unnecessary for package builds; the
	// diagnostics land on stderr whether or not the cache is warm (the gc
	// flag change forces recompilation of exactly the named packages).
	args := append([]string{"build", "-gcflags=-m -m"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("allocgate: go build: %v\n%s", err, out)
	}
	return Parse(dir, string(out))
}

// Parse attributes diagnostic lines to enclosing functions. dir resolves
// the relative file paths the compiler prints.
func Parse(dir, output string) (Report, error) {
	report := Report{}
	files := map[string]*fileIndex{}
	for _, line := range strings.Split(output, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, " ") {
			continue
		}
		m := diagLine.FindStringSubmatch(line)
		if m == nil || !isAllocMsg(m[3]) {
			continue
		}
		path, msg := m[1], m[3]
		lineNo, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		idx, ok := files[path]
		if !ok {
			idx, err = indexFile(filepath.Join(dir, path))
			if err != nil {
				return nil, fmt.Errorf("allocgate: %s: %w", path, err)
			}
			files[path] = idx
		}
		report.add(filepath.ToSlash(filepath.Dir(path)), idx.funcAt(lineNo), msg)
	}
	return report, nil
}

// fileIndex maps line ranges to enclosing declarations of one source file.
type fileIndex struct {
	spans []funcSpan
}

type funcSpan struct {
	name       string
	start, end int
}

func indexFile(path string) (*fileIndex, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	idx := &fileIndex{}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			if rt := recvName(fd.Recv.List[0].Type); rt != "" {
				name = rt + "." + name
			}
		}
		idx.spans = append(idx.spans, funcSpan{
			name:  name,
			start: fset.Position(fd.Pos()).Line,
			end:   fset.Position(fd.End()).Line,
		})
	}
	return idx, nil
}

func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// funcAt names the innermost function declaration covering a line;
// diagnostics outside any function (package-level vars) land in "<init>".
func (idx *fileIndex) funcAt(line int) string {
	best, bestSpan := "<init>", 1<<31-1
	for _, s := range idx.spans {
		if s.start <= line && line <= s.end && s.end-s.start < bestSpan {
			best, bestSpan = s.name, s.end-s.start
		}
	}
	return best
}

// Diff lists budget violations in both directions: allocations in the
// current report that the baseline does not cover, then baseline entries
// whose count exceeds the current one (shrunk or vanished). The budget is
// exact because slack left in the baseline is room a later allocation could
// take unnoticed.
func Diff(baseline, current Report) []string {
	var out []string
	for _, pkg := range sortedKeys(current) {
		for _, fn := range sortedKeys(current[pkg]) {
			for _, msg := range sortedKeys(current[pkg][fn]) {
				n, base := current[pkg][fn][msg], baseline[pkg][fn][msg]
				if n > base {
					out = append(out, fmt.Sprintf(
						"%s: %s: %q ×%d (baseline %d): new hot-path heap allocation; hoist it, pool it, or refresh with -allocs -update",
						pkg, fn, msg, n, base))
				}
			}
		}
	}
	for _, pkg := range sortedKeys(baseline) {
		for _, fn := range sortedKeys(baseline[pkg]) {
			for _, msg := range sortedKeys(baseline[pkg][fn]) {
				n, base := current[pkg][fn][msg], baseline[pkg][fn][msg]
				if base > n {
					out = append(out, fmt.Sprintf(
						"%s: %s: %q ×%d (baseline %d): stale baseline entry; refresh with -allocs -update",
						pkg, fn, msg, n, base))
				}
			}
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	//lint:allow determinism order-independent: sorted immediately below
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Load reads a baseline file; a missing file is an empty baseline (every
// allocation is then "new", which is the right failure mode for a repo that
// has not checked one in).
func Load(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Report{}, nil
	}
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("allocgate: %s: %w", path, err)
	}
	return r, nil
}

// Save writes a baseline (sorted keys — json.Marshal sorts map keys — so
// diffs stay reviewable).
func Save(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
