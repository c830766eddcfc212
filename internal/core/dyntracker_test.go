package core

import (
	"strings"
	"testing"
)

func TestDynTrackerLifecycle(t *testing.T) {
	var trk DynTracker
	if !trk.Done() {
		t.Fatal("fresh tracker not Done")
	}
	trk.Spawned() // root
	if trk.Done() {
		t.Fatal("tracker Done with the root live")
	}
	if !trk.Completed() {
		t.Fatal("root completion did not report the run over")
	}
	if !trk.Done() {
		t.Fatal("tracker not Done after all completions")
	}
	if trk.Generation() != 0 {
		t.Fatalf("generation = %d before first Reset", trk.Generation())
	}
	trk.Reset()
	if trk.Generation() != 1 {
		t.Fatalf("generation = %d after Reset", trk.Generation())
	}
	// The counters drained themselves; a second generation behaves like
	// the first.
	trk.Spawned()
	if !trk.Completed() {
		t.Fatal("second generation did not terminate")
	}
}

func TestDynTrackerResetPanicsWhilePending(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with live frames did not panic")
		}
	}()
	var trk DynTracker
	trk.Spawned()
	trk.Reset()
}

func TestWriteWakeGraphDOT(t *testing.T) {
	// a ; (b ‖ c) ; d — every gate and edge of the collapsed wake graph
	// must appear, with the initially-ready strand double-bordered.
	mk := func(name string) *Node { return NewStrand(name, 1, nil, nil, nil) }
	p, err := NewProgram(NewSeq(mk("a"), NewPar(mk("b"), mk("c")), mk("d")), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteWakeGraphDOT(&sb, g); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	wg := g.Exec().Wake()
	for _, want := range []string{
		"digraph wakegraph {",
		"peripheries=2,label=\"a", // a is initially ready
		"need=2",                  // d's gate needs both b and c
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("wake DOT missing %q:\n%s", want, dot)
		}
	}
	if got := strings.Count(dot, "->"); got != wg.NumWakeEdges() {
		t.Fatalf("wake DOT has %d edges, wake graph %d", got, wg.NumWakeEdges())
	}
	if strings.Count(dot, "[shape=ellipse") != wg.NumStrands() ||
		strings.Count(dot, "[shape=box") != wg.NumRelays() {
		t.Fatalf("wake DOT node counts disagree with the wake graph:\n%s", dot)
	}
}
