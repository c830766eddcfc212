package core

import (
	"strings"
	"testing"

	"github.com/ndflow/ndflow/internal/footprint"
)

func strand(label string, work int64) *Node {
	return NewStrand(label, work, nil, nil, nil)
}

func mustProgram(t *testing.T, root *Node, rules RuleSet) *Program {
	t.Helper()
	p, err := NewProgram(root, rules)
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}
	return p
}

func TestParsePedigree(t *testing.T) {
	cases := []struct {
		in   string
		want Pedigree
		ok   bool
	}{
		{"", nil, true},
		{"1", Pedigree{1}, true},
		{"2.1.1", Pedigree{2, 1, 1}, true},
		{"0", nil, false},
		{"1.x", nil, false},
		{"-1", nil, false},
	}
	for _, c := range cases {
		got, err := ParsePedigree(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParsePedigree(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !got.Equal(c.want) {
			t.Errorf("ParsePedigree(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPedigreeString(t *testing.T) {
	if s := (Pedigree{}).String(); s != "ε" {
		t.Errorf("empty pedigree String = %q", s)
	}
	if s := (Pedigree{2, 1}).String(); s != "2.1" {
		t.Errorf("String = %q, want 2.1", s)
	}
}

// TestPaperFigure3 reproduces the paper's Figure 3/4 example: MAIN composes
// F = (A ; B) and G = (C ; D) with a fire construct whose single rule puts a
// full dependency from F's first subtask (A) to G's first subtask (C).
func TestPaperFigure3(t *testing.T) {
	a, b, c, d := strand("A", 3), strand("B", 5), strand("C", 7), strand("D", 2)
	f := NewSeq(a, b)
	gTask := NewSeq(c, d)
	main := NewFire("FG", f, gTask)
	rules := RuleSet{"FG": {R("1", FullDep, "1")}}
	p := mustProgram(t, main, rules)
	g, err := Rewrite(p)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}

	// Arrows: A→B and C→D from the serial nodes, plus A→C from the rule.
	arrows := g.SortedArrows()
	if len(arrows) != 3 {
		t.Fatalf("got %d arrows %v, want 3", len(arrows), arrows)
	}
	found := false
	for _, ar := range arrows {
		if ar.From == a && ar.To == c {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing fire-induced arrow A→C in %v", arrows)
	}

	// T1 = 17. Span: max(A+B, A+C+D) = max(8, 12) = 12 (see §2 work-span
	// analysis of Figure 3).
	if w := p.Work(); w != 17 {
		t.Errorf("work = %d, want 17", w)
	}
	if s := g.Span(); s != 12 {
		t.Errorf("span = %d, want 12", s)
	}
	cp := g.CriticalPath()
	var labels []string
	for _, n := range cp {
		labels = append(labels, n.Label)
	}
	if got := strings.Join(labels, ""); got != "ACD" {
		t.Errorf("critical path = %s, want ACD", got)
	}
}

// TestFireAsSeq checks that a fire construct with the four "refine both
// pairs" rules behaves exactly like a serial composition, per §2's remark
// that ";" is a special case of the fire construct.
func TestFireAsSeq(t *testing.T) {
	mk := func() *Node {
		return NewPar(NewSeq(strand("w", 4), strand("x", 4)), NewSeq(strand("y", 4), strand("z", 4)))
	}
	rules := RuleSet{"S": {
		R("1", "S", "1"), R("1", "S", "2"), R("2", "S", "1"), R("2", "S", "2"),
	}}

	fireProg := mustProgram(t, NewFire("S", mk(), mk()), rules)
	seqProg := mustProgram(t, NewSeq(mk(), mk()), nil)

	fireSpan := MustRewrite(fireProg).Span()
	seqSpan := MustRewrite(seqProg).Span()
	if fireSpan != seqSpan {
		t.Fatalf("fire-as-seq span = %d, seq span = %d", fireSpan, seqSpan)
	}
	if fireSpan != 16 {
		t.Fatalf("span = %d, want 16 (two chained seq pairs)", fireSpan)
	}
}

// TestFireAsPar checks that a fire type with no rules behaves like "‖".
func TestFireAsPar(t *testing.T) {
	rules := RuleSet{"P": nil}
	p := mustProgram(t, NewFire("P", strand("a", 10), strand("b", 20)), rules)
	g := MustRewrite(p)
	if arrows := g.SortedArrows(); len(arrows) != 0 {
		t.Fatalf("arrows = %v, want none", arrows)
	}
	if s := g.Span(); s != 20 {
		t.Fatalf("span = %d, want 20", s)
	}
}

// TestRecursiveFire exercises a two-level recursive fire pattern similar to
// the paper's matrix-multiplication construct: the rule set refines the
// dependency pair-wise until strands are reached.
func TestRecursiveFire(t *testing.T) {
	leafPair := func(l1, l2 string) *Node { return NewPar(strand(l1, 1), strand(l2, 1)) }
	src := NewPar(leafPair("s11", "s12"), leafPair("s21", "s22"))
	dst := NewPar(leafPair("d11", "d12"), leafPair("d21", "d22"))
	rules := RuleSet{"MM": {R("1", "MM", "1"), R("2", "MM", "2")}}
	p := mustProgram(t, NewFire("MM", src, dst), rules)
	g := MustRewrite(p)

	// Expect exactly the four strand-to-strand arrows s_ij → d_ij.
	arrows := g.SortedArrows()
	if len(arrows) != 4 {
		t.Fatalf("arrows = %v, want 4", arrows)
	}
	for _, a := range arrows {
		if a.From.Label[1:] != a.To.Label[1:] {
			t.Errorf("arrow %s→%s does not preserve position", a.From.Label, a.To.Label)
		}
	}
	if s := g.Span(); s != 2 {
		t.Fatalf("span = %d, want 2", s)
	}
}

func TestDescendStopsAtStrand(t *testing.T) {
	s := strand("s", 1)
	root := NewPar(s, strand("t", 1))
	mustProgram(t, root, nil)
	got, err := root.Descend(Pedigree{1, 2, 2})
	if err != nil {
		t.Fatalf("Descend: %v", err)
	}
	if got != s {
		t.Fatalf("Descend = %v, want the strand", got)
	}
	if _, err := root.Descend(Pedigree{3}); err == nil {
		t.Fatal("Descend past arity should fail")
	}
}

func TestRuleSetValidate(t *testing.T) {
	cases := []struct {
		name string
		rs   RuleSet
		ok   bool
	}{
		{"empty", RuleSet{}, true},
		{"undefined type", RuleSet{"A": {R("1", "B", "1")}}, false},
		{"fulldep ok", RuleSet{"A": {R("1", FullDep, "1")}}, true},
		{"no progress", RuleSet{"A": {R("", "A", "")}}, false},
		{"zero-descent cycle", RuleSet{
			"A": {R("", "B", "")},
			"B": {R("", "A", "")},
		}, false},
		{"zero-descent chain", RuleSet{
			"A": {R("", "B", "")},
			"B": {R("1", "A", "1")},
		}, true},
		{"reserved name", RuleSet{FullDep: nil}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.rs.Validate()
			if c.ok != (err == nil) {
				t.Fatalf("Validate = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestProgramValidation(t *testing.T) {
	if _, err := NewProgram(nil, nil); err == nil {
		t.Error("nil root accepted")
	}
	dup := strand("dup", 1)
	if _, err := NewProgram(NewPar(dup, dup), nil); err == nil {
		t.Error("shared subtree accepted")
	}
	if _, err := NewProgram(NewFire("X", strand("a", 1), strand("b", 1)), nil); err == nil {
		t.Error("undefined fire type accepted")
	}
	if _, err := NewProgram(&Node{Kind: KindSeq, Children: []*Node{strand("a", 1)}}, nil); err == nil {
		t.Error("single-child seq accepted")
	}
	if _, err := NewProgram(NewStrand("neg", -1, nil, nil, nil), nil); err == nil {
		t.Error("negative work accepted")
	}
}

func TestSizesAndLeafRanges(t *testing.T) {
	a := NewStrand("a", 1, footprint.Single(0, 10), nil, nil)
	b := NewStrand("b", 1, footprint.Single(5, 15), footprint.Single(20, 25), nil)
	root := NewSeq(a, b)
	p := mustProgram(t, root, nil)
	if got := a.Size(); got != 10 {
		t.Errorf("size(a) = %d, want 10", got)
	}
	if got := b.Size(); got != 15 {
		t.Errorf("size(b) = %d, want 15", got)
	}
	if got := root.Size(); got != 20 {
		t.Errorf("size(root) = %d, want 20 (union dedups overlap)", got)
	}
	lo, hi := root.LeafRange()
	if lo != 0 || hi != 2 {
		t.Errorf("leaf range = [%d,%d), want [0,2)", lo, hi)
	}
	if !root.Contains(a) || !root.Contains(b) || a.Contains(b) {
		t.Error("Contains misbehaves")
	}
	if len(p.Leaves) != 2 {
		t.Errorf("leaves = %d, want 2", len(p.Leaves))
	}
}

func TestArrowValidation(t *testing.T) {
	// An arrow between nested tasks is rejected.
	inner := strand("inner", 1)
	outer := NewSeq(inner, strand("x", 1))
	root := NewFire("BAD", outer, strand("y", 1))
	rules := RuleSet{"BAD": {R("", FullDep, "")}} // outer → y is fine
	p := mustProgram(t, root, rules)
	if _, err := Rewrite(p); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}

	nested := RuleSet{"BAD": {R("1", FullDep, "")}}
	root2 := NewFire("BAD", NewSeq(strand("p", 1), strand("q", 1)), strand("z", 1))
	p2 := mustProgram(t, root2, nested)
	if _, err := Rewrite(p2); err != nil {
		t.Fatalf("arrow p→z should be fine: %v", err)
	}
}

func TestCycleDetection(t *testing.T) {
	// Two strands with mutually dependent fire rules create a cycle.
	rules := RuleSet{
		"F": {R("1", FullDep, "2"), R("2", FullDep, "1")},
	}
	src := NewPar(strand("a", 1), strand("b", 1))
	dst := NewPar(strand("c", 1), strand("d", 1))
	p := mustProgram(t, NewSeq(NewFire("F", src, dst), strand("t", 1)), rules)
	if _, err := Rewrite(p); err != nil {
		t.Fatalf("a→d, b→c is acyclic; got error %v", err)
	}

	// Now force a genuine cycle: x→y via fire and y→x via another fire.
	x, y := strand("x", 1), strand("y", 1)
	cyc := RuleSet{"FWD": {R("", FullDep, "")}}
	root := NewPar(NewFire("FWD", x, y), strand("pad", 1))
	p2 := mustProgram(t, root, cyc)
	g2, err := Rewrite(p2)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if err := g2.addArrow(y, x); err != nil {
		t.Fatalf("addArrow: %v", err)
	}
	if err := g2.finish(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestDOTOutputs(t *testing.T) {
	a, b := strand("A", 1), strand("B", 1)
	p := mustProgram(t, NewSeq(a, b), nil)
	g := MustRewrite(p)
	var sb strings.Builder
	if err := WriteSpawnTreeDOT(&sb, p, g); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph spawntree", "n0", "style=dashed"} {
		if !strings.Contains(out, want) {
			t.Errorf("spawn tree DOT missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := WriteLeafDAGDOT(&sb, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "l0 -> l1") {
		t.Errorf("leaf DAG DOT missing edge:\n%s", sb.String())
	}
}

func TestMerge(t *testing.T) {
	a := RuleSet{"X": {R("1", FullDep, "1")}}
	b := RuleSet{"Y": {R("2", FullDep, "2")}}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("merged = %v", m)
	}
	same := RuleSet{"X": {R("1", FullDep, "1")}}
	if _, err := Merge(a, same); err != nil {
		t.Fatalf("identical duplicate rejected: %v", err)
	}
	diff := RuleSet{"X": {R("2", FullDep, "1")}}
	if _, err := Merge(a, diff); err == nil {
		t.Fatal("conflicting duplicate accepted")
	}
}
