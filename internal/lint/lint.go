// Package lint assembles the ndlint analyzer suite and drives it over
// loaded packages. cmd/ndlint is a thin CLI over this package; the
// linttest harness drives individual analyzers through the same Pass
// construction so tests and production runs cannot drift.
//
// The suite mechanizes the concurrency invariants DESIGN.md documents
// for the lock-free engine (see the "static verification" section):
// shared memory only through the typed atomics (atomicfield),
// allocation-free annotated hot functions (noalloc), and non-blocking
// hot paths (nonblocking).
package lint

import (
	"path/filepath"
	"sort"

	"github.com/ndflow/ndflow/internal/lint/analysis"
	"github.com/ndflow/ndflow/internal/lint/annot"
	"github.com/ndflow/ndflow/internal/lint/atomicfield"
	"github.com/ndflow/ndflow/internal/lint/escape"
	"github.com/ndflow/ndflow/internal/lint/load"
	"github.com/ndflow/ndflow/internal/lint/noalloc"
	"github.com/ndflow/ndflow/internal/lint/nonblocking"
)

// Suite returns the ndlint analyzers in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicfield.Analyzer,
		noalloc.Analyzer,
		nonblocking.Analyzer,
	}
}

// Finding is one diagnostic in driver form: resolved position plus the
// analyzer that produced it.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// Run loads the patterns from dir and applies the analyzers to every
// matched package, returning sorted findings. Escape analysis runs at
// most once per package, and only when an analyzer in the suite asks
// for it. Unknown //ndlint: directives are reported as findings of the
// pseudo-analyzer "ndlint" so vocabulary typos cannot silently disable
// a check.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	// rel shortens absolute file names to dir-relative ones: stable
	// across checkouts, so findings diff cleanly between commits.
	rel := func(file string) string {
		if r, err := filepath.Rel(absDir, file); err == nil && !filepath.IsAbs(r) && r != "" && r[0] != '.' {
			return r
		}
		return file
	}
	var out []Finding
	for _, p := range pkgs {
		needEscapes := false
		for _, a := range analyzers {
			needEscapes = needEscapes || a.NeedsEscapes
		}
		var escapes []analysis.Escape
		if needEscapes && !p.Test {
			if escapes, err = escape.Analyze(p); err != nil {
				return nil, err
			}
		}
		for _, f := range p.Syntax {
			for _, d := range annot.NewFile(p.Fset, f).Unknown {
				pos := p.Fset.Position(d.Pos)
				out = append(out, Finding{
					File: rel(pos.Filename), Line: pos.Line, Col: pos.Column,
					Analyzer: "ndlint",
					Message:  "unknown //ndlint:" + d.Name + " directive",
				})
			}
		}
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Fset:      p.Fset,
				Files:     p.Syntax,
				Pkg:       p.Types,
				TypesInfo: p.Info,
			}
			if a.NeedsEscapes {
				pass.Escapes = escapes
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				pos := p.Fset.Position(d.Pos)
				out = append(out, Finding{
					File: rel(pos.Filename), Line: pos.Line, Col: pos.Column,
					Analyzer: name,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}
