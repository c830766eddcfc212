// Package annot parses the //ndlint: annotation vocabulary the
// analyzers share. Annotations are ordinary line comments with the
// directive shape Go tooling already reserves (no space after //):
//
//	//ndlint:noalloc                 — function must not heap-allocate
//	//ndlint:hotpath                 — function roots a non-blocking call-graph walk
//	//ndlint:cacheline               — struct must be a 64-byte multiple
//	//ndlint:allowblock <reason>     — suppress one nonblocking finding
//	//ndlint:allowplain <reason>     — suppress one atomicfield finding
//
// Declaration annotations (noalloc, hotpath, cacheline)
// attach through the declaration's doc comment. Suppression
// annotations (allowblock, allowplain) attach to a line: either as a
// trailing comment on the offending line or as a full-line comment
// immediately above it. Suppressions require a reason — an empty
// reason is itself a finding, so the vocabulary cannot rot into bare
// switch-it-off markers.
package annot

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefix is the comment prefix shared by all ndlint directives.
const Prefix = "//ndlint:"

// Known directive names. Anything else after the prefix is reported by
// the driver as an unknown directive (typo protection).
var Known = map[string]bool{
	"noalloc":    true,
	"hotpath":    true,
	"cacheline":  true,
	"allowblock": true,
	"allowplain": true,
}

// Directive is one parsed //ndlint: comment.
type Directive struct {
	Name string // "noalloc", "allowblock", ...
	Args string // trimmed text after the name; the reason for suppressions
	Pos  token.Pos
	Line int // line the comment itself sits on
}

// File indexes one source file's directives.
type File struct {
	fset *token.FileSet
	// byLine holds directives keyed by the line of the comment.
	byLine map[int][]Directive
	// Unknown collects //ndlint: comments whose name is not in Known.
	Unknown []Directive
}

// NewFile scans f's comments for ndlint directives.
func NewFile(fset *token.FileSet, f *ast.File) *File {
	af := &File{fset: fset, byLine: make(map[int][]Directive)}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, Prefix) {
				continue
			}
			rest := c.Text[len(Prefix):]
			name, args := rest, ""
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				name, args = rest[:i], strings.TrimSpace(rest[i+1:])
			}
			// A nested "//" ends the args: it is commentary about the
			// directive (the linttest harness puts // want expectations
			// there), not part of a reason.
			if i := strings.Index(args, "//"); i >= 0 {
				args = strings.TrimSpace(args[:i])
			}
			d := Directive{Name: name, Args: args, Pos: c.Pos(), Line: fset.Position(c.Pos()).Line}
			if !Known[name] {
				af.Unknown = append(af.Unknown, d)
				continue
			}
			af.byLine[d.Line] = append(af.byLine[d.Line], d)
		}
	}
	return af
}

// at returns the directives named name on the given source line.
func (af *File) at(line int, name string) []Directive {
	var out []Directive
	for _, d := range af.byLine[line] {
		if d.Name == name {
			out = append(out, d)
		}
	}
	return out
}

// Suppressed reports whether a finding at pos is suppressed by the
// named directive (trailing on the same line, or a full-line comment
// on the line above), returning the directive when so.
func (af *File) Suppressed(pos token.Pos, name string) (Directive, bool) {
	line := af.fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		if ds := af.at(l, name); len(ds) > 0 {
			return ds[0], true
		}
	}
	return Directive{}, false
}

// FuncDirective returns the named directive attached to fn's doc
// comment, if any.
func (af *File) FuncDirective(fn *ast.FuncDecl, name string) (Directive, bool) {
	return docDirective(af, fn.Doc, name)
}

// GenDirective returns the named directive attached to a declaration
// inside a GenDecl: the spec's own doc comment wins, then the group
// declaration's.
func (af *File) GenDirective(decl *ast.GenDecl, specDoc *ast.CommentGroup, name string) (Directive, bool) {
	if d, ok := docDirective(af, specDoc, name); ok {
		return d, ok
	}
	return docDirective(af, decl.Doc, name)
}

func docDirective(af *File, doc *ast.CommentGroup, name string) (Directive, bool) {
	if doc == nil {
		return Directive{}, false
	}
	start := af.fset.Position(doc.Pos()).Line
	end := af.fset.Position(doc.End()).Line
	for l := start; l <= end; l++ {
		if ds := af.at(l, name); len(ds) > 0 {
			return ds[0], true
		}
	}
	return Directive{}, false
}
