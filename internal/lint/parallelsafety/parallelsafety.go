// Package parallelsafety guards the one invariant of the shared parallel
// runtime nothing else checks: every goroutine needs a join, cancel or
// error path, so an engine cannot leak workers on failure. (Copied sync
// primitives are go vet's copylocks check, which CI runs.)
package parallelsafety

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer flags goroutines nothing can join, cancel, or observe failing.
var Analyzer = &analysis.Analyzer{
	Name: "parallelsafety",
	Doc: "flag goroutines launched with no join/cancel/error path (use internal/parallel " +
		"or a WaitGroup/channel/context exit)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				checkGo(pass, g)
			}
			return true
		})
	}
	return nil
}

// checkGo requires a join, cancel, or error path inside goroutine bodies:
// a select, channel operation, close, WaitGroup/Cond signalling, or a
// context value. Bare `go method()` launches are invisible to a per-package
// pass and are left to the method's own package.
func checkGo(pass *analysis.Pass, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	if hasJoinPath(pass, lit.Body) {
		return
	}
	pass.Reportf(g.Pos(),
		"goroutine has no join, cancel, or error path; route the work through internal/parallel "+
			"(For/ForDynamic own panic and completion) or give it a WaitGroup/channel exit")
}

func hasJoinPath(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				switch fun.Sel.Name {
				case "Done", "Wait", "Signal", "Broadcast":
					found = true
				}
			}
		case *ast.Ident:
			if t := pass.TypesInfo.TypeOf(n); t != nil && isContext(t) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}
