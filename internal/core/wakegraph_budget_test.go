package core_test

import (
	"fmt"
	"testing"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/fw"
	"github.com/ndflow/ndflow/internal/algos/lcs"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/experiments"
	"github.com/ndflow/ndflow/internal/matrix"
)

// TestWakeGraphAtomicsBudget pins the perf claim of the collapse on the
// scheduling instance (FW-256 base 4, the shape the allocation tests run):
// one run over the wake graph must execute at least 2× fewer atomic
// decrements than the event-graph cascade it replaced. Both counts are
// structural — every wake edge is exactly one atomic add per run, and the
// event cascade performed one per residual event edge — so the assertion
// is exact, not sampled.
//
// It also pins the tracker's shared read-modify-writes per run at
// NumWakeEdges + NumSinks: one add per wake edge, and one on the
// termination latch per sink completion. Before the sink latch every
// completion also paid an executed count and a pending-latch add,
// NumWakeEdges + 2·NumStrands in all.
func TestWakeGraphAtomicsBudget(t *testing.T) {
	inst := fw.NewInstance(matrix.NewSpace(), 256, 11)
	prog, err := fw.New(algos.ND, inst, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Rewrite(prog)
	if err != nil {
		t.Fatal(err)
	}
	eg := g.Exec()
	w := eg.Wake()

	wake := int64(w.NumWakeEdges())
	event := w.EventDecrements()
	t.Logf("FW-256/4: strands=%d relays=%d counters=%d (event vertices=%d); wake decrements/run=%d, event decrements/run=%d (%.1f× fewer)",
		w.NumStrands(), w.NumRelays(), w.NumCounters(), eg.NumVertices(), wake, event, float64(event)/float64(wake))

	if 2*wake > event {
		t.Fatalf("wake graph performs %d atomic decrements per run; event cascade performed %d (< 2× reduction)", wake, event)
	}
	if w.NumCounters() >= eg.NumVertices() {
		t.Fatalf("collapse kept %d counters; event graph had %d vertices", w.NumCounters(), eg.NumVertices())
	}

	if got := w.NumSinks(); got != 63 {
		t.Fatalf("FW-256/4 has %d sinks, want 63", got)
	}
	if rmw := wake + int64(latchTouches(t, eg)); rmw != 8319 {
		t.Fatalf("FW-256/4 pays %d shared atomics per run, want 8 256 + 63 = 8 319 (16 448 before the sink latch)", rmw)
	}

	lg, err := lcs.New(algos.ND, lcs.NewInstance(matrix.NewSpace(), 256, 3, 6), 4)
	if err != nil {
		t.Fatal(err)
	}
	lcsGraph, err := core.Rewrite(lg)
	if err != nil {
		t.Fatal(err)
	}
	lw := lcsGraph.Exec().Wake()
	if got := lw.NumSinks(); got != 1 {
		t.Fatalf("LCS 256/4 has %d sinks, want 1", got)
	}
	if rmw := lw.NumWakeEdges() + latchTouches(t, lcsGraph.Exec()); rmw != 9089 {
		t.Fatalf("LCS 256/4 pays %d shared atomics per run, want 9 088 + 1 = 9 089 (17 280 before the sink latch)", rmw)
	}
}

// latchTouches completes one run of eg serially on a ConcurrentTracker,
// checks that done fires exactly at the last completion, and returns the
// number of completions that touched the termination latch: those of
// strands with an empty wake row.
func latchTouches(t *testing.T, eg *core.ExecGraph) int {
	t.Helper()
	ct := core.NewConcurrentTracker(eg)
	w := eg.Wake()
	pool := append([]int32(nil), ct.InitialReady()...)
	var ready, scratch []int32
	touches, completed := 0, 0
	for len(pool) > 0 {
		id := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if row, _ := w.Row(id); len(row) == 0 {
			touches++
		}
		var done bool
		ready, scratch, done = ct.Complete(id, ready[:0], scratch)
		completed++
		pool = append(pool, ready...)
		if done != (len(pool) == 0) {
			t.Fatalf("done = %v after %d of %d completions", done, completed, eg.NumStrands())
		}
	}
	if completed != eg.NumStrands() {
		t.Fatalf("run completed %d of %d strands", completed, eg.NumStrands())
	}
	return touches
}

// TestSinkLatchPremiseBuilders runs the sink-latch premise check
// (checkSinkLatch, beside TestQuickSinkLatchPremise) over every difftest
// builder at the difftest's 16/4 size, in both models, on the contracted
// wake graph and on the uncontracted fallback.
func TestSinkLatchPremiseBuilders(t *testing.T) {
	check := func(name string, g *core.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := core.CheckSinkLatch(g.Exec().Wake()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := core.CheckSinkLatch(core.BuildFlatWakeGraph(g.Exec())); err != nil {
			t.Errorf("%s, uncontracted: %v", name, err)
		}
	}
	for _, b := range experiments.Builders() {
		for _, model := range []algos.Model{algos.NP, algos.ND} {
			g, err := b.Build(model, 16, 4)
			check(fmt.Sprintf("%s/%v", b.Name, model), g, err)
		}
	}
	// The 2-D Floyd–Warshall tree is NP-only and not an experiment builder.
	prog, err := fw.New2D(fw.NewAPSP(matrix.NewSpace(), 16, 46), 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Rewrite(prog)
	check("FW-2D", g, err)
}
