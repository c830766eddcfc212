// Package analysis is a minimal, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough driver surface for the
// ndlint suite. The module vendors no third-party code, so the suite
// runs on the standard library alone — an Analyzer receives one fully
// type-checked package per Run call and reports position-anchored
// diagnostics through the Pass.
//
// The deliberate differences from x/tools are small: there is no Fact
// propagation across packages (each ndlint invariant is package-local
// by construction — cross-package hot paths are annotated in the
// package that owns them), and escape-analysis input for the noalloc
// analyzer is delivered on the Pass by the driver instead of through a
// Result dependency.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker. Name appears in findings;
// Doc is the one-paragraph contract shown by
// `ndlint -help`.
type Analyzer struct {
	Name string
	Doc  string

	// NeedsEscapes asks the driver to run the compiler's escape
	// analysis over each package (see the escape package) and attach
	// the marks to Pass.Escapes before Run is called.
	NeedsEscapes bool

	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Escapes holds the package's compiler escape-analysis marks when
	// Analyzer.NeedsEscapes is set; nil otherwise.
	Escapes []Escape

	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, anchored to a position in the package's
// file set.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Escape is one escape-analysis mark from `go tool compile -m`:
// file is the base name of the source file within the package
// directory, and Msg the compiler's diagnostic text (for example
// "make([]T, n) escapes to heap").
type Escape struct {
	File string
	Line int
	Col  int
	Msg  string
}
