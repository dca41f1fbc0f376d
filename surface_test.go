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
// needs one more must first delete one. The exported methods of
// *Runtime and *Ctx are budgeted too, so that a second entry point for
// a job the façade already does (an untyped future beside Future[T], a
// blocking loop beside SubmitLoop) cannot come back unnoticed.
const (
	maxOptions        = 7
	maxConfigFields   = 12
	maxRuntimeMethods = 15
	maxCtxMethods     = 16
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
	for _, b := range []struct {
		typ reflect.Type
		max int
	}{
		{reflect.TypeOf((*repro.Runtime)(nil)), maxRuntimeMethods},
		{reflect.TypeOf((*repro.Ctx)(nil)), maxCtxMethods},
	} {
		if n := b.typ.NumMethod(); n > b.max {
			var names []string
			for i := 0; i < n; i++ {
				names = append(names, b.typ.Method(i).Name)
			}
			t.Errorf("%v has %d exported methods %v, budget %d", b.typ, n, names, b.max)
		}
	}
}
