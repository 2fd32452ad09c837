// Package traitcomplete keeps README's backend capability matrix honest:
// the vectorized runtime dispatches the batched GRIN traits once per
// frontier, so a backend that implements a scalar trait but silently relies
// on the generic fallback for its batched counterpart hides a per-batch
// fast path the engines expect. Every such gap must be either closed with a
// native implementation or declared with a `// grin:fallback` marker on the
// type, which is what the matrix's "fallback" cells point at. A marker that
// goes on to name one batched method (`// grin:fallback ExpandLabelBatch
// <reason>`) declares that gap alone.
//
// It also keeps GRIN interposition in one place: a type that declares
// HasTrait(grin.Trait) bool is a wrapper masking its own method set, and the
// tree has exactly one of those, the tap in internal/grin. Fault injection,
// metering and tracing are grin.Hooks on it; a second masking wrapper is a
// second copy of every trait forwarder waiting to drift.
package traitcomplete

import (
	"go/ast"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer flags backend types with scalar traits whose batched
// counterparts are neither implemented nor declared fallback.
var Analyzer = &analysis.Analyzer{
	Name: "traitcomplete",
	Doc: "every storage backend type implementing a scalar GRIN trait must implement its " +
		"batched counterpart (BatchAdjacency/BatchProps/BatchScan; LabelAdjacency for a " +
		"labelled store with ExpandBatch) or carry a // grin:fallback marker on the type " +
		"declaration; no type outside internal/grin " +
		"declares HasTrait(grin.Trait) bool (interpose through grin.Tap)",
	Targets: []string{"./internal/...", "./cmd/..."},
	Run:     run,
}

// backendPaths are the concrete store packages the rule applies to.
var backendPaths = []string{
	"/storage/vineyard",
	"/storage/csr",
	"/storage/gart",
	"/storage/livegraph",
	"/storage/graphar",
}

// pairs maps a scalar trait's marker method to the batched method that must
// accompany it. A type with any method of the scalar set is treated as
// implementing the trait; signatures are checked by the compiler when the
// type is used through grin, so names suffice here.
var pairs = []struct {
	scalar  []string // any of these methods ⇒ type implements the scalar trait
	with    string   // and, when set, this method too
	trait   string   // scalar trait name, for the message
	batched string   // required batched method
	btrait  string   // batched trait name, for the message
}{
	{[]string{"Neighbors"}, "", "Graph (topology)", "ExpandBatch", "BatchAdjacency"},
	{[]string{"VertexProp"}, "", "PropertyReader", "GatherVertexProp", "BatchProps"},
	{[]string{"ScanVertices", "LabelRange"}, "", "PredicatePush/Index (scan)", "ScanBatch", "BatchScan"},
	// A store that expands in batches and labels its edges either segments
	// its adjacency by label or says why engines filter its expansions.
	{[]string{"ExpandBatch"}, "EdgeLabel", "BatchAdjacency over labelled edges", "ExpandLabelBatch", "LabelAdjacency"},
}

const marker = "grin:fallback"

func applies(path string) bool {
	for _, p := range backendPaths {
		if strings.Contains("/"+path, p) {
			return true
		}
	}
	return false
}

// isTraitMask reports whether d declares grin.TraitMasker's method:
// HasTrait(grin.Trait) bool on some receiver.
func isTraitMask(d *ast.FuncDecl) bool {
	if d.Recv == nil || d.Name.Name != "HasTrait" || len(d.Type.Params.List) != 1 ||
		d.Type.Results == nil || len(d.Type.Results.List) != 1 {
		return false
	}
	param, ok := d.Type.Params.List[0].Type.(*ast.SelectorExpr)
	if !ok || param.Sel.Name != "Trait" {
		return false
	}
	pkg, _ := param.X.(*ast.Ident)
	res, _ := d.Type.Results.List[0].Type.(*ast.Ident)
	return pkg != nil && pkg.Name == "grin" && res != nil && res.Name == "bool"
}

func run(pass *analysis.Pass) error {
	if !strings.HasSuffix(pass.Path, "internal/grin") {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok && isTraitMask(d) {
					pass.Reportf(d.Pos(),
						"type %s declares HasTrait(grin.Trait): a second masking wrapper re-implements every trait forwarder; interpose through grin.Tap with a grin.Hook",
						receiverType(d.Recv.List[0].Type))
				}
			}
		}
	}
	if !applies(pass.Path) {
		return nil
	}
	methods := map[string]map[string]bool{} // type name → method set
	specs := map[string]*ast.TypeSpec{}
	fallback := map[string]map[string]bool{} // type name → declared gaps ("": all)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil || len(d.Recv.List) == 0 {
					continue
				}
				name := receiverType(d.Recv.List[0].Type)
				if name == "" {
					continue
				}
				if methods[name] == nil {
					methods[name] = map[string]bool{}
				}
				methods[name][d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					specs[ts.Name.Name] = ts
					gaps := map[string]bool{}
					for _, cg := range []*ast.CommentGroup{d.Doc, ts.Doc, ts.Comment} {
						markedGaps(cg, gaps)
					}
					fallback[ts.Name.Name] = gaps
				}
			}
		}
	}
	for name, ms := range methods {
		for _, p := range pairs {
			if ms[p.batched] || fallback[name][""] || fallback[name][p.batched] || p.with != "" && !ms[p.with] {
				continue
			}
			scalarName := ""
			for _, s := range p.scalar {
				if ms[s] {
					scalarName = s
					break
				}
			}
			if scalarName == "" {
				continue
			}
			pos := pass.Files[0].Pos()
			if ts, ok := specs[name]; ok {
				pos = ts.Pos()
			}
			pass.Reportf(pos,
				"backend type %s implements scalar trait %s (%s) but not batched %s.%s; implement it or mark the type with // grin:fallback <reason>",
				name, p.trait, scalarName, p.btrait, p.batched)
		}
	}
	return nil
}

// markedGaps records the gaps a comment group's grin:fallback markers
// declare: the batched method named right after the marker, or "" (every
// gap) when what follows is not one.
func markedGaps(cg *ast.CommentGroup, gaps map[string]bool) {
	if cg == nil {
		return
	}
	for _, c := range cg.List {
		_, rest, ok := strings.Cut(c.Text, marker)
		if !ok {
			continue
		}
		gap := ""
		if words := strings.Fields(rest); len(words) > 0 {
			for _, p := range pairs {
				if words[0] == p.batched {
					gap = p.batched
				}
			}
		}
		gaps[gap] = true
	}
}

// receiverType unwraps a method receiver to its base type name.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
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
