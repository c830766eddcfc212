// Package padalign implements the ndlint analyzer that verifies
// cache-line padding claims.
//
// Structs annotated `//ndlint:cacheline` exist to keep concurrently
// written hot fields on separate cache lines — telemetry counter
// cells, tracer lanes. The claim is only
// true when the struct's size is a whole multiple of 64 bytes:
// elements of a slice of such structs then start on distinct lines
// (given a 64-byte-aligned base), and adjacent elements never share a
// line. Padding is maintained by hand (`_ [56]byte` tails); every
// field added without re-balancing the tail silently re-introduces
// false sharing, which no test catches — only a measured regression
// months later would. The analyzer recomputes the size with the
// compiler's own layout rules (types.Sizes) on every lint run.
package padalign

import (
	"go/ast"

	"github.com/ndflow/ndflow/internal/lint/analysis"
	"github.com/ndflow/ndflow/internal/lint/annot"
)

// CacheLine is the line size the annotation asserts. 64 bytes covers
// the deployment targets (amd64, arm64's typical implementations);
// machines with 128-byte destructive-interference ranges (Apple M
// series) degrade to sharing at worst one neighbour, same as today.
const CacheLine = 64

// Analyzer is the cache-line padding checker.
var Analyzer = &analysis.Analyzer{
	Name: "padalign",
	Doc:  "structs annotated //ndlint:cacheline must be a multiple of 64 bytes",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		af := annot.NewFile(pass.Fset, f)
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if _, ok := af.GenDirective(gd, ts.Doc, "cacheline"); !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[ts.Name]
				if obj == nil {
					continue
				}
				sz := pass.Sizes.Sizeof(obj.Type())
				if sz <= 0 || sz%CacheLine != 0 {
					pass.Reportf(ts.Pos(),
						"%s is marked //ndlint:cacheline but is %d bytes (want a positive multiple of %d); rebalance its padding tail",
						ts.Name.Name, sz, CacheLine)
				}
			}
		}
	}
	return nil
}
