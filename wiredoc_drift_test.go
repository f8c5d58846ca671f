package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// TestWireDocMatchesPeerSurface holds docs/WIRE.md to the code it
// describes, one for one and in order: its `### POST /v1/peer/*` headings
// are the endpoints NewPeerHandler registers, and its Kinds list is the
// codec's Kind block. An endpoint or a message kind can then be neither
// added nor deleted with its documentation left behind.
func TestWireDocMatchesPeerSurface(t *testing.T) {
	doc, err := os.ReadFile("docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}

	var docEndpoints []string
	for _, m := range regexp.MustCompile("(?m)^### `POST (/v1/peer/[^`]+)`").FindAllSubmatch(doc, -1) {
		docEndpoints = append(docEndpoints, string(m[1]))
	}
	endpoints := handleFuncPaths(t, "internal/fabric/http.go", "/v1/peer/")
	if len(endpoints) == 0 || !slices.Equal(docEndpoints, endpoints) {
		t.Errorf("docs/WIRE.md documents POST endpoints\n  %v\ninternal/fabric/http.go registers\n  %v", docEndpoints, endpoints)
	}

	var docKinds []string
	if m := regexp.MustCompile(`(?s)\*\*Kinds\.\*\*(.*?)—`).FindSubmatch(doc); m != nil {
		for _, k := range regexp.MustCompile("`([a-z-]+)`").FindAllSubmatch(m[1], -1) {
			docKinds = append(docKinds, string(k[1]))
		}
	}
	var kinds []string
	for _, decl := range parseFile(t, "internal/fabric/codec/peer.go").Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			for _, name := range spec.(*ast.ValueSpec).Names {
				if rest, ok := strings.CutPrefix(name.Name, "Kind"); ok {
					kinds = append(kinds, kebab(rest))
				}
			}
		}
	}
	if len(kinds) == 0 || !slices.Equal(docKinds, kinds) {
		t.Errorf("docs/WIRE.md lists message kinds\n  %v\ninternal/fabric/codec/peer.go declares\n  %v", docKinds, kinds)
	}
}

// TestWireDocMatchesHandlerMux does the same for the rest of the /v1 mux:
// docs/WIRE.md's `### METHOD /v1/…` headings outside the peer mutations
// are, one for one and in order, the /v1 paths httpapi.NewHandler
// registers — the client and topology surfaces and the peer introspection
// endpoints. An endpoint deleted from the handler cannot stay documented.
func TestWireDocMatchesHandlerMux(t *testing.T) {
	doc, err := os.ReadFile("docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	var docEndpoints []string
	for _, m := range regexp.MustCompile("(?m)^### `(GET|POST) (/v1/[^`]+)`").FindAllSubmatch(doc, -1) {
		if path := string(m[2]); string(m[1]) != "POST" || !strings.HasPrefix(path, "/v1/peer/") {
			docEndpoints = append(docEndpoints, path)
		}
	}
	endpoints := handleFuncPaths(t, "homeo/httpapi/httpapi.go", "/v1/")
	if len(endpoints) == 0 || !slices.Equal(docEndpoints, endpoints) {
		t.Errorf("docs/WIRE.md documents\n  %v\nhomeo/httpapi/httpapi.go registers\n  %v", docEndpoints, endpoints)
	}
}

// handleFuncPaths lists, in source order, the paths under prefix that the
// file passes to a HandleFunc call as a string literal.
func handleFuncPaths(t *testing.T, file, prefix string) []string {
	t.Helper()
	var paths []string
	ast.Inspect(parseFile(t, file), func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		lit, isLit := call.Args[0].(*ast.BasicLit)
		if ok && isLit && sel.Sel.Name == "HandleFunc" {
			if path, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(path, prefix) {
				paths = append(paths, path)
			}
		}
		return true
	})
	return paths
}

func parseFile(t *testing.T, path string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// kebab renders a CamelCase name the way WIRE.md spells a message kind:
// InstallState as install-state.
func kebab(camel string) string {
	var b strings.Builder
	for i, r := range camel {
		if unicode.IsUpper(r) && i > 0 {
			b.WriteByte('-')
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}
