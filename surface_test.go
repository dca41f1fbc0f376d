package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"repro"
)

// Public surface budget: the functional options (exported With*
// constructors returning Option or CompileOption) and the fields of the
// runtime's Config. Each is a value a caller can set, so each doubles
// the configurations tests and benchmarks must cover; a change that
// needs one more must first delete one.
const (
	maxOptions      = 12
	maxConfigFields = 13
)

func TestPublicSurfaceBudget(t *testing.T) {
	fset := token.NewFileSet()
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, ".", notTest, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var options []string
	for _, f := range pkgs["repro"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || !strings.HasPrefix(fn.Name.Name, "With") {
				continue
			}
			if res := fn.Type.Results; res != nil && len(res.List) == 1 {
				if id, ok := res.List[0].Type.(*ast.Ident); ok && (id.Name == "Option" || id.Name == "CompileOption") {
					options = append(options, fn.Name.Name)
				}
			}
		}
	}
	if len(options) > maxOptions {
		t.Errorf("%d options %v, budget %d", len(options), options, maxOptions)
	}
	if n := reflect.TypeOf(repro.Config{}).NumField(); n > maxConfigFields {
		t.Errorf("Config has %d fields, budget %d", n, maxConfigFields)
	}
}
