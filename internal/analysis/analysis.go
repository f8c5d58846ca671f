// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. The repo
// cannot vendor x/tools (the build is fully offline), so homeovet — the
// invariant-checker suite under internal/analysis/... and cmd/homeovet —
// carries this shim instead. The API mirrors the upstream shape closely
// enough that the analyzers would port to the real framework by changing
// an import path.
//
// # Directives
//
// The analyzers are configured and suppressed through //homeo: comment
// directives (written like //go: directives — no space after the
// slashes). The catalogue lives in docs/DEVELOPMENT.md; this package
// provides the shared scanner. A directive attaches to a function when
// it appears in the function's doc comment, and to a statement when it
// appears on the statement's line or on the line immediately above it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker: a name (used in diagnostics
// and docs), a short Doc string, and the Run function applied to each
// package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each diagnostic. The drivers set it; analyzers
	// call Reportf.
	Report func(Diagnostic)

	directives map[string][]Directive // filename -> directives, lazily built
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Directive is one //homeo: comment: its name (the word after the
// colon), the remainder of the line (arguments / rationale), and where
// it sits.
type Directive struct {
	Name string // e.g. "hotpath", "leak", "nondet"
	Args string // rest of the comment line, space-trimmed
	Pos  token.Pos
	Line int // line the comment sits on
}

// ParseDirective splits one comment's text into a directive, reporting
// ok=false for ordinary comments.
func ParseDirective(c *ast.Comment) (Directive, bool) {
	text, found := strings.CutPrefix(c.Text, "//homeo:")
	if !found {
		return Directive{}, false
	}
	name, args, _ := strings.Cut(text, " ")
	if name == "" {
		return Directive{}, false
	}
	return Directive{Name: name, Args: strings.TrimSpace(args), Pos: c.Pos()}, true
}

// fileDirectives scans (and memoizes) every //homeo: directive in the
// file holding pos.
func (p *Pass) fileDirectives(file *ast.File) []Directive {
	if p.directives == nil {
		p.directives = make(map[string][]Directive)
	}
	name := p.Fset.Position(file.Pos()).Filename
	if ds, ok := p.directives[name]; ok {
		return ds
	}
	var ds []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if d, ok := ParseDirective(c); ok {
				d.Line = p.Fset.Position(c.Pos()).Line
				ds = append(ds, d)
			}
		}
	}
	p.directives[name] = ds
	return ds
}

// File returns the *ast.File containing pos, or nil.
func (p *Pass) File(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// DirectiveAt reports the named directive attached to the statement at
// pos: on the same line, or alone on the line immediately above.
func (p *Pass) DirectiveAt(pos token.Pos, name string) (Directive, bool) {
	file := p.File(pos)
	if file == nil {
		return Directive{}, false
	}
	line := p.Fset.Position(pos).Line
	for _, d := range p.fileDirectives(file) {
		if d.Name == name && (d.Line == line || d.Line == line-1) {
			return d, true
		}
	}
	return Directive{}, false
}

// FuncDirective reports the named directive in fn's doc comment.
func FuncDirective(fn *ast.FuncDecl, name string) (Directive, bool) {
	if fn.Doc == nil {
		return Directive{}, false
	}
	for _, c := range fn.Doc.List {
		if d, ok := ParseDirective(c); ok && d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// DeclDirective reports the named directive attached to a GenDecl or one
// of its specs (doc comment or trailing line comment).
func DeclDirective(decl *ast.GenDecl, name string) (Directive, bool) {
	groups := []*ast.CommentGroup{decl.Doc}
	for _, spec := range decl.Specs {
		switch s := spec.(type) {
		case *ast.ValueSpec:
			groups = append(groups, s.Doc, s.Comment)
		case *ast.TypeSpec:
			groups = append(groups, s.Doc, s.Comment)
		}
	}
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if d, ok := ParseDirective(c); ok && d.Name == name {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// PkgMatches reports whether the package path is, or ends with, one of
// the given suffixes ("internal/sim" matches both "internal/sim" in
// testdata and "repro/internal/sim" in the module).
func PkgMatches(pkgPath string, suffixes ...string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// InTestFile reports whether pos sits in a *_test.go file; the vet
// driver analyzes test-augmented packages, but the invariants govern
// production code only.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// CalleeFunc resolves a call expression to the declared *types.Func it
// invokes (package function or method), or nil for calls through
// function values, built-ins, and conversions.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel := p.TypesInfo.Selections[fun]; sel != nil {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := p.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// SortDiagnostics orders diagnostics by position for stable output.
func SortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}
