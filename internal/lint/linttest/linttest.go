// Package linttest is the test harness for ndlint analyzers, a
// stdlib-only analogue of golang.org/x/tools/go/analysis/analysistest.
//
// Testdata packages live under the analyzer's testdata/src/ directory —
// the go tool skips testdata directories when expanding `./...`
// wildcards (so the module build, vet, and ndlint itself never see the
// deliberately-broken packages) but loads them fine when named
// explicitly, which is how the harness reaches them.
//
// Expectations are `// want` comments on the line a diagnostic anchors
// to, each carrying one or more quoted regular expressions:
//
//	func (c *counter) bad() int64 { return c.n } // want `plain access`
//
// Every expectation must be matched by a diagnostic on its line and
// every diagnostic must match an expectation — unexpected findings and
// missing findings both fail the test, so the failing cases are the
// analyzer's executable specification.
package linttest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/ndflow/ndflow/internal/lint/analysis"
	"github.com/ndflow/ndflow/internal/lint/escape"
	"github.com/ndflow/ndflow/internal/lint/load"
)

// wantRE extracts the quoted patterns of a // want comment; both
// backquotes and double quotes are accepted.
var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Run loads pattern (relative to the test's working directory — the
// analyzer package dir) and checks a's diagnostics against the // want
// expectations in the loaded sources.
func Run(t *testing.T, a *analysis.Analyzer, pattern string) {
	t.Helper()
	pkgs, err := load.Load(".", pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("pattern %s matched no packages", pattern)
	}
	for _, p := range pkgs {
		runPkg(t, a, p)
	}
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

func runPkg(t *testing.T, a *analysis.Analyzer, p *load.Package) {
	t.Helper()
	// Collect expectations keyed by file:line.
	wants := make(map[string][]*expectation)
	for _, f := range p.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "// want ")
				if i < 0 {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, m := range wantRE.FindAllStringSubmatch(text[i+len("// want "):], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}

	pass := &analysis.Pass{
		Fset:      p.Fset,
		Files:     p.Syntax,
		Pkg:       p.Types,
		TypesInfo: p.Info,
		Sizes:     p.Sizes,
	}
	if a.NeedsEscapes {
		marks, err := escape.Analyze(p)
		if err != nil {
			t.Fatalf("escape analysis of %s: %v", p.ImportPath, err)
		}
		pass.Escapes = marks
	}
	var diags []analysis.Diagnostic
	pass.Report = func(d analysis.Diagnostic) { diags = append(diags, d) }
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s on %s: %v", a.Name, p.ImportPath, err)
	}

	for _, d := range diags {
		pos := p.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
		if !claim(wants[key], d.Message) {
			t.Errorf("%s: unexpected %s diagnostic: %s", position(p.Fset, d.Pos), a.Name, d.Message)
		}
	}
	for key, exps := range wants {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s: expected %s diagnostic matching %q, got none", key, a.Name, e.re)
			}
		}
	}
}

// claim marks the first unmatched expectation whose pattern matches.
func claim(exps []*expectation, msg string) bool {
	for _, e := range exps {
		if !e.matched && e.re.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

func position(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", filepath.Base(p.Filename), p.Line, p.Column)
}
