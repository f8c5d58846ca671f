// Package hotpath keeps the zero-allocation paths zero-allocation at the
// source level. PR 7 flattened submit→exec→commit, WAL append, and codec
// encode to 0 allocs/op, and CI's allocs/op gate catches regressions —
// but only with a number, not an explanation. This analyzer names the
// usual suspects in any function whose doc comment carries
// //homeo:hotpath:
//
//   - calls into package fmt (Sprintf/Errorf/... all allocate); move
//     cold-path error construction into an unannotated helper instead
//   - calls into encoding/json or reflect (reflection-driven: the commit
//     path has a hand-written codec in homeo/wire); hand the rare body
//     that needs them to an unannotated helper
//   - string concatenation inside loops (quadratic garbage)
//   - map composite literals anywhere, and slice/array composite
//     literals inside loops (per-iteration allocations that escape the
//     pool discipline)
//
// Function literals declared inside a hot function are scanned too —
// they run on the same path. A reviewed exception carries
// //homeo:allowalloc <reason> on the offending line.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the hot-path allocation checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "//homeo:hotpath functions may not format, reflect, concatenate in loops, or build map/slice literals",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := analysis.FuncDirective(fd, "hotpath"); ok {
				check(pass, fd)
			}
		}
	}
	return nil
}

func check(pass *analysis.Pass, fd *ast.FuncDecl) {
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ForStmt:
				if m.Init != nil {
					walk(m.Init, inLoop)
				}
				if m.Cond != nil {
					walk(m.Cond, true)
				}
				if m.Post != nil {
					walk(m.Post, true)
				}
				walk(m.Body, true)
				return false
			case *ast.RangeStmt:
				walk(m.X, inLoop)
				walk(m.Body, true)
				return false
			case *ast.CallExpr:
				if fn := pass.CalleeFunc(m); fn != nil && fn.Pkg() != nil {
					switch path := fn.Pkg().Path(); path {
					case "fmt":
						report(pass, m.Pos(), fd, "call to fmt.%s allocates; hoist cold-path formatting into an unannotated helper", fn.Name())
					case "encoding/json", "reflect":
						report(pass, m.Pos(), fd, "call to %s.%s reflects; hand the body to an unannotated helper", path, fn.Name())
					}
				}
			case *ast.BinaryExpr:
				if inLoop && m.Op == token.ADD && isString(pass, m.X) {
					report(pass, m.Pos(), fd, "string concatenation in a loop allocates per iteration; use a preallocated buffer")
				}
			case *ast.AssignStmt:
				if inLoop && m.Tok == token.ADD_ASSIGN && len(m.Lhs) == 1 && isString(pass, m.Lhs[0]) {
					report(pass, m.Pos(), fd, "string += in a loop allocates per iteration; use a preallocated buffer")
				}
			case *ast.CompositeLit:
				tv, ok := pass.TypesInfo.Types[m]
				if !ok {
					return true
				}
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					report(pass, m.Pos(), fd, "map literal allocates; reuse a pooled map or index structure")
				case *types.Slice:
					if inLoop {
						report(pass, m.Pos(), fd, "slice literal in a loop allocates per iteration; hoist or pool it")
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, false)
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func report(pass *analysis.Pass, pos token.Pos, fd *ast.FuncDecl, format string, args ...any) {
	if _, ok := pass.DirectiveAt(pos, "allowalloc"); ok {
		return
	}
	pass.Reportf(pos, "hot path %s: "+format, append([]any{fd.Name.Name}, args...)...)
}
