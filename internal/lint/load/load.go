// Package load turns `go list` package patterns into fully
// type-checked packages for the ndlint analyzers, using only the
// standard library and the go tool itself.
//
// The pipeline is the offline half of what x/tools' go/packages does in
// LoadAllSyntax mode: one `go list -e -export -deps -test -json`
// invocation yields every package in the build closure, the test
// variants of the named packages among them, together with compiler
// export data (the go tool builds missing archives as a side effect),
// then each target package's sources are parsed and type-checked
// against that export data through the standard gc importer. Only the
// named patterns are parsed and checked; dependencies — including the
// whole standard library — are consumed as export data, which keeps a
// full-module lint run in the low seconds.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked target package.
type Package struct {
	ImportPath string
	Dir        string
	GoFiles    []string // base names, as compiled
	// Test marks a test variant (the package with its _test.go files, or
	// its external _test package): Syntax holds only the _test.go files,
	// so no file is analyzed twice. Info covers every compiled file.
	Test bool

	Fset   *token.FileSet
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info

	// Export maps every import path in the build closure (this package
	// and all dependencies) to its compiler export-data file — the raw
	// material for an importcfg (see the escape package).
	Export map[string]string
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ForTest    string            // set on test variants
	ImportMap  map[string]string // import path → variant, in test variants
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load lists patterns from dir and type-checks every matched package.
// Patterns follow the go tool's syntax (`./...`, import paths); note
// that `...` wildcards skip testdata directories, while explicitly
// named testdata packages load fine — which is exactly what the
// linttest harness relies on.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-test", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// The generated test main (import path "P.test") is not source.
		if !p.DepOnly && (p.ForTest != "" || !strings.HasSuffix(p.ImportPath, ".test")) {
			q := p
			targets = append(targets, &q)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, t := range targets {
		// A test variant imports the variants its ImportMap names (the
		// package under test recompiled with its _test.go files).
		lookup := func(path string) (io.ReadCloser, error) {
			if v, ok := t.ImportMap[path]; ok {
				path = v
			}
			e, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(e)
		}
		if len(t.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		// Each target gets a fresh importer: the gc importer caches
		// loaded packages per instance, and sharing one across targets
		// that also appear in each other's dep closures is fine, but a
		// fresh one keeps failure attribution per package.
		conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
		path, _, _ := strings.Cut(t.ImportPath, " [")
		tpkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", t.ImportPath, err)
		}
		if t.ForTest != "" {
			var tests []*ast.File
			for i, name := range t.GoFiles {
				if strings.HasSuffix(name, "_test.go") {
					tests = append(tests, files[i])
				}
			}
			files = tests
		}
		pkgs = append(pkgs, &Package{
			ImportPath: t.ImportPath,
			Dir:        t.Dir,
			GoFiles:    t.GoFiles,
			Test:       t.ForTest != "",
			Fset:       fset,
			Syntax:     files,
			Types:      tpkg,
			Info:       info,
			Export:     exports,
		})
	}
	return pkgs, nil
}
