// Command ndlint runs the engine's invariant-verification suite — the
// internal/lint analyzers — over the module and fails on findings:
//
//	go run ./cmd/ndlint ./...
//
// The suite mechanizes the hand-maintained concurrency invariants the
// lock-free engine's correctness rests on (see DESIGN.md, "static
// verification"): atomicfield forbids mixed atomic/plain access to one
// location; noalloc gates `//ndlint:noalloc` functions on the
// compiler's escape analysis; nonblocking walks the call graph from
// `//ndlint:hotpath` roots and flags blocking operations; padalign
// sizes `//ndlint:cacheline` structs. CI runs ndlint as a required job
// next to vet and staticcheck.
//
// Findings print one per line as file:line:col: analyzer: message.
// Exit status: 0 clean, 1 findings, 2 driver error (unloadable
// patterns, type errors, escape-analysis failure).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/ndflow/ndflow/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ndlint [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Suite() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	os.Exit(run(flag.Args(), os.Stdout, os.Stderr))
}

// run executes the suite over patterns (default ./...) and writes
// findings to out, returning the process exit code.
func run(patterns []string, out, errw io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.Run(".", patterns, lint.Suite())
	if err != nil {
		fmt.Fprintf(errw, "ndlint: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintf(out, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(errw, "ndlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
