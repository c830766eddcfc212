package core

import (
	"strings"
	"testing"
)

// TestStrandDepthsFigure3 pins the depth-to-sink table on the paper's
// Figure 3 example (arrows A→B, C→D from the serial nodes, A→C from the
// fire rule): depth includes the strand's own work, the sink strands
// carry just their work, and the deepest initially-ready strand carries
// the span.
func TestStrandDepthsFigure3(t *testing.T) {
	a, b, c, d := strand("A", 3), strand("B", 5), strand("C", 7), strand("D", 2)
	main := NewFire("FG", NewSeq(a, b), NewSeq(c, d))
	p := mustProgram(t, main, RuleSet{"FG": {R("1", FullDep, "1")}})
	g := MustRewrite(p)
	eg := g.Exec()

	want := map[*Node]int64{
		b: 5,         // sink: own work only
		d: 2,         // sink: own work only
		c: 7 + 2,     // C then D
		a: 3 + 7 + 2, // A → C → D, the critical path (span 12)
	}
	for leaf, w := range want {
		if got := eg.StrandDepth(eg.StrandID(leaf)); got != w {
			t.Errorf("depth(%s) = %d, want %d", leaf.Label, got, w)
		}
	}
	if depths := eg.StrandDepths(); int64(len(depths)) != int64(eg.NumStrands()) {
		t.Fatalf("StrandDepths length %d, want %d", len(depths), eg.NumStrands())
	}
	if got, span := eg.StrandDepth(eg.StrandID(a)), g.Span(); got != span {
		t.Errorf("root-of-critical-path depth %d != span %d", got, span)
	}
}

// TestWritePriorityDOT smoke-checks the priority rendering: one filled
// ellipse per strand, depth labels, doubled borders on initial strands,
// and the span in the graph label.
func TestWritePriorityDOT(t *testing.T) {
	a, b, c, d := strand("A", 3), strand("B", 5), strand("C", 7), strand("D", 2)
	main := NewFire("FG", NewSeq(a, b), NewSeq(c, d))
	p := mustProgram(t, main, RuleSet{"FG": {R("1", FullDep, "1")}})
	g := MustRewrite(p)

	var sb strings.Builder
	if err := WritePriorityDOT(&sb, g); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{
		"digraph priority {",
		"span=12",
		"d=12",          // A, the deepest strand
		"peripheries=2", // the initially-ready strand
		"style=filled",
		"}",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("priority DOT missing %q:\n%s", frag, out)
		}
	}
	if got := strings.Count(out, "shape=ellipse"); got != 4 {
		t.Errorf("priority DOT has %d strand ellipses, want 4:\n%s", got, out)
	}
}
