package core_test

import (
	"testing"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/fw"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/matrix"
)

// TestWakeGraphAtomicsBudget pins the perf claim of the collapse on the
// scheduling instance (FW-256 base 4, the shape the allocation tests run):
// one run over the wake graph must execute at least 2× fewer atomic
// decrements than the event-graph cascade it replaced. Both counts are
// structural — every wake edge is exactly one atomic add per run, and the
// event cascade performed one per residual event edge — so the assertion
// is exact, not sampled.
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
}
