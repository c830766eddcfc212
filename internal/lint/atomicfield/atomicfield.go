// Package atomicfield implements the ndlint analyzer that keeps shared
// memory on the typed atomics.
//
// The engine's lock-free invariants assume every cross-thread location
// is accessed through one memory model. The sync/atomic types
// (atomic.Int32, atomic.Pointer[T], ...) hold that in the type system:
// their value is reachable only through atomic methods, so a plain load
// or store of one does not compile, and go vet's copylocks check
// rejects copying one by value. The package-level functions
// (`atomic.AddInt32(&x, 1)`, ...) instead operate on plain memory that
// any other line may still read or write plainly, which voids the
// ordering the algorithm depends on. So every use of a sync/atomic
// package-level function is a finding: the typed atomics are the only
// way in. Test files are checked too: a test that drives the engine's
// counters through plain memory races them all the same.
package atomicfield

import (
	"go/ast"
	"go/types"

	"github.com/ndflow/ndflow/internal/lint/analysis"
)

// Analyzer is the function-style sync/atomic checker.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc:  "forbid sync/atomic package-level functions; shared memory goes through the typed atomics",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, _ := n.(*ast.Ident)
			if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Signature().Recv() == nil {
				pass.Reportf(id.Pos(), "atomic.%s operates on plain memory that other code can access plainly; use a typed atomic (atomic.Int64, atomic.Pointer[T], ...)", fn.Name())
			}
			return true
		})
	}
	return nil
}
