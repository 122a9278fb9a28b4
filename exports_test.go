package symbol

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.golden from the package's exported declarations")

const apiGolden = "testdata/api.golden"

// exportedDecls lists the package's exported declarations in its non-test
// files, one line each, sorted: "const X", "func F", "method (*T) M",
// "type T", "var V". A method counts when its name and its receiver's type
// are both exported.
func exportedDecls(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					out = append(out, "func "+d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				star := ""
				if s, ok := recv.(*ast.StarExpr); ok {
					star, recv = "*", s.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					out = append(out, "method ("+star+id.Name+") "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							out = append(out, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								out = append(out, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestExportedAPI pins the package's exported surface: adding or removing
// an exported declaration fails here until testdata/api.golden is
// regenerated with `go test -run TestExportedAPI -update .`, so the count
// of entry points is a checked number.
func TestExportedAPI(t *testing.T) {
	got := strings.Join(exportedDecls(t), "\n") + "\n"
	if *updateAPI {
		if err := os.WriteFile(apiGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for _, l := range wl {
		if l != "" && !slices.Contains(gl, l) {
			t.Errorf("removed from the exported API: %s", l)
		}
	}
	for _, l := range gl {
		if l != "" && !slices.Contains(wl, l) {
			t.Errorf("added to the exported API: %s", l)
		}
	}
	t.Logf("%d exported declarations; regenerate %s with -update if the change is intended", len(gl)-1, apiGolden)
}
