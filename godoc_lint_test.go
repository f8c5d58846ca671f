package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestPublicGodoc lints the public API surface (and the fabric, whose
// peer protocol external processes implement against): every exported
// top-level identifier must carry a doc comment. The generated reference
// is part of the deliverable — see docs/ — so a silent gap is a CI
// failure, not a style nit.
func TestPublicGodoc(t *testing.T) {
	dirs := []string{"homeo", "homeo/client", "homeo/wire", "homeo/httpapi", "internal/fabric", "internal/wal", "internal/analysis", "internal/drive"}
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, f := range pkg.Files {
				rel := filepath.ToSlash(path)
				for _, decl := range f.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if d.Name.IsExported() && d.Doc == nil && exportedRecv(d) {
							t.Errorf("%s: exported %s %s has no doc comment", rel, declKind(d), d.Name.Name)
						}
					case *ast.GenDecl:
						if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
							continue
						}
						for _, spec := range d.Specs {
							switch s := spec.(type) {
							case *ast.TypeSpec:
								if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
									t.Errorf("%s: exported type %s has no doc comment", rel, s.Name.Name)
								}
							case *ast.ValueSpec:
								for _, name := range s.Names {
									if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
										t.Errorf("%s: exported %s %s has no doc comment", rel, d.Tok, name.Name)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// exportedRecv reports whether a function is package-level API: a plain
// function, or a method on an exported receiver type.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.IsExported()
	}
	return true
}

func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "func"
}
