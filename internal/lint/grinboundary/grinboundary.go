// Package grinboundary enforces the stack's central composition rule
// (paper §2, §4.1): execution layers talk to storage only through GRIN
// traits, and interpose on a store only through grin.Tap.
//
// A query or analytics package that imports a storage package other than
// the shared column library has punched through the boundary — it will keep
// working against that one store and silently stop composing with the
// others. A type outside internal/grin that declares HasTrait(grin.Trait)
// bool is a wrapper masking its own method set: a second copy of every
// trait forwarder waiting to drift. Fault injection, metering and tracing
// are grin.Hooks on the one tap.
package grinboundary

import (
	"go/ast"
	"slices"
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer flags storage imports from runtime packages and masking
// wrappers outside internal/grin.
var Analyzer = &analysis.Analyzer{
	Name: "grinboundary",
	Doc: "runtime packages (internal/query/..., internal/analytics/...) must access storage " +
		"through internal/grin traits, never by importing a package under internal/storage " +
		"other than internal/storage/column; no type outside internal/grin declares " +
		"HasTrait(grin.Trait) bool (interpose through grin.Tap)",
	Targets: []string{"./internal/...", "./cmd/..."},
	Run:     run,
}

// runtimePaths marks the layers the import rule protects.
var runtimePaths = []string{"/internal/query/", "/internal/analytics/"}

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
	path := "/" + pass.Path + "/"
	if !slices.ContainsFunc(runtimePaths, func(p string) bool { return strings.Contains(path, p) }) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			target, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			// column is the shared typed-column library, a data layout
			// rather than a store; every other storage package is a brick.
			if _, pkg, ok := strings.Cut(target, "internal/storage/"); ok && pkg != "column" {
				pass.Reportf(imp.Pos(),
					"runtime package imports concrete backend %q; go through internal/grin traits instead",
					target)
			}
		}
	}
	return nil
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
