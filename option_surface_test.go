package aigre_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// optionStructs are the option structs of the public API and of the layers
// beneath it: the package directory and the type name.
var optionStructs = []struct{ dir, typ string }{
	{".", "Options"}, {".", "Batch"}, {".", "BatchOptions"},
	{"internal/sched", "Policy"}, {"internal/sched", "Job"}, {"internal/sched", "Options"},
	{"internal/partition", "Split"}, {"internal/partition", "Options"},
	{"internal/flow", "Config"},
	{"internal/cec", "Options"},
	{"internal/queue", "Options"},
	{"internal/rewrite", "Options"},
	{"internal/refactor", "Options"},
}

// TestOptionSurface pins the exported field names of every option struct
// against testdata/option_surface.golden, so adding or removing a knob is a
// reviewed edit of that file. An embedded struct counts as one field, named
// after its type.
func TestOptionSurface(t *testing.T) {
	var lines []string
	total := 0
	for _, o := range optionStructs {
		fields := exportedFields(t, o.dir, o.typ)
		total += len(fields)
		pkg := "aigre"
		if o.dir != "." {
			pkg = filepath.Base(o.dir)
		}
		lines = append(lines, fmt.Sprintf("%s.%s: %s", pkg, o.typ, strings.Join(fields, " ")))
	}
	lines = append(lines, fmt.Sprintf("total: %d", total))
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(filepath.Join("testdata", "option_surface.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("option surface changed; if intended, edit testdata/option_surface.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// exportedFields parses the non-test Go files of dir and returns the
// exported field names of struct type typ in declaration order.
func exportedFields(t *testing.T, dir, typ string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if ts.Name.Name != typ || !ok {
					continue
				}
				var fields []string
				for _, fl := range st.Fields.List {
					if len(fl.Names) == 0 { // embedded: named after its type
						fl.Names = []*ast.Ident{ast.NewIdent(embeddedName(fl.Type))}
					}
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, id.Name)
						}
					}
				}
				return fields
			}
		}
	}
	t.Fatalf("no struct type %s in %s", typ, dir)
	return nil
}

// embeddedName is the field name of an embedded type expression.
func embeddedName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return embeddedName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}
