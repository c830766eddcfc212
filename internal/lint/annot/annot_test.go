package annot

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"testing"
)

// src's line numbers are part of the tables below.
const src = `package p

//ndlint:hotpath
//ndlint:noalloc
func hot() {
	block() //ndlint:allowblock trailing reason
	//ndlint:allowblock
	block()

	block()
}

// exempt's doc text.
//ndlint:allowblock whole function // commentary after the reason
func exempt() {}

//ndlint:noaloc
func typo() {}

//ndlint:cacheline
type padded struct{}

func block() {}

//ndlint:allowplain stale
var x int
`

func parse(t *testing.T) (*token.FileSet, *ast.File, *File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, NewFile(fset, f)
}

func TestKnown(t *testing.T) {
	var names []string
	for name := range Known {
		names = append(names, name)
	}
	sort.Strings(names)
	if want := []string{"allowblock", "hotpath", "noalloc"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("Known = %v, want %v", names, want)
	}
}

// TestUnknown: a typo and the retired cacheline and allowplain
// directives are unknown, so the driver reports each of them.
func TestUnknown(t *testing.T) {
	_, _, af := parse(t)
	var got []string
	var lines []int
	for _, d := range af.Unknown {
		got = append(got, d.Name)
		lines = append(lines, d.Line)
	}
	if want := []string{"noaloc", "cacheline", "allowplain"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Unknown = %v, want %v", got, want)
	}
	if want := []int{17, 20, 25}; !reflect.DeepEqual(lines, want) {
		t.Fatalf("Unknown lines = %v, want %v", lines, want)
	}
}

// TestFuncDirective: declaration directives attach through the doc
// comment only; a directive inside the body or an unknown name does
// not attach.
func TestFuncDirective(t *testing.T) {
	_, f, af := parse(t)
	funcs := make(map[string]*ast.FuncDecl)
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			funcs[fd.Name.Name] = fd
		}
	}
	for _, tc := range []struct {
		fn, name string
		found    bool
		args     string
	}{
		{"hot", "hotpath", true, ""},
		{"hot", "noalloc", true, ""},
		{"hot", "allowblock", false, ""},
		{"exempt", "allowblock", true, "whole function"},
		{"typo", "noalloc", false, ""},
		{"block", "noalloc", false, ""},
	} {
		d, ok := af.FuncDirective(funcs[tc.fn], tc.name)
		if ok != tc.found || d.Args != tc.args {
			t.Errorf("FuncDirective(%s, %s) = %q, %v; want %q, %v", tc.fn, tc.name, d.Args, ok, tc.args, tc.found)
		}
	}
}

// TestSuppressed: a suppression attaches to its own line (trailing) or
// to the line below it (full-line), and keeps an empty reason empty so
// the analyzer can report it.
func TestSuppressed(t *testing.T) {
	fset, f, af := parse(t)
	tf := fset.File(f.Pos())
	for _, tc := range []struct {
		line  int
		found bool
		args  string
	}{
		{6, true, "trailing reason"},
		{8, true, ""},
		{10, false, ""},
		{23, false, ""},
	} {
		d, ok := af.Suppressed(tf.LineStart(tc.line), "allowblock")
		if ok != tc.found || d.Args != tc.args {
			t.Errorf("Suppressed(line %d) = %q, %v; want %q, %v", tc.line, d.Args, ok, tc.args, tc.found)
		}
	}
}
