// Allocation budgets for the cold path (build → Rewrite → Wake), so the
// diet of the footprint algebra, the DRS and the wake-graph collapse cannot
// rot one convenient make() at a time. Budgets are the measured counts
// plus 10 %; the counts are exact and machine-independent, so a failure is
// a change in the code, never noise.
package ndflow_test

import (
	"testing"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/fw"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/matrix"
)

// withinBudget fails the test when got exceeds the measured count by over 10 %.
func withinBudget(t *testing.T, what string, got float64, measured int) {
	t.Helper()
	if budget := float64(measured) * 1.1; got > budget {
		t.Errorf("%s: %.0f allocations, budget %.0f (measured %d + 10 %%)", what, got, budget, measured)
	}
}

func TestColdPathAllocBudgets(t *testing.T) {
	// Measured at the cold-pipeline sizes. Before the diet the builds were
	// 2976 (MM), 8544 (LU) and 13773 (FW-1D) allocations, Rewrite 378, 1567
	// and 3507, Wake 116, 742 and 504.
	measured := map[string]struct{ build, rewrite, wake int }{
		"mm-16/4":   {656, 23, 21},
		"lu-32/4":   {2007, 23, 23}, // keeps a "*"-pedigree rule (TU) on the path
		"fw1d-64/4": {2420, 23, 18},
	}
	for _, s := range coldSpecs() {
		m, ok := measured[s.name]
		if !ok {
			continue
		}
		p, err := s.build()
		if err != nil {
			t.Fatal(err)
		}
		withinBudget(t, s.name+" build", testing.AllocsPerRun(10, func() { s.build() }), m.build)
		withinBudget(t, s.name+" Rewrite", testing.AllocsPerRun(10, func() { core.Rewrite(p) }), m.rewrite)
		graphs := make([]*core.Graph, 11) // AllocsPerRun warms up once
		for i := range graphs {
			graphs[i] = core.MustRewrite(p)
		}
		next := 0
		withinBudget(t, s.name+" Wake", testing.AllocsPerRun(10, func() {
			graphs[next].Exec().Wake()
			next++
		}), m.wake)
	}
}

// TestRewriteAllocsIndependentOfRuleApplications: on a wildcard-free rule
// set the DRS allocates a fixed set of tables sized from the program —
// nothing per rule application — so a 256× larger table (65 536 strands
// against 256, with as many times the rule applications) costs exactly as
// many allocations.
func TestRewriteAllocsIndependentOfRuleApplications(t *testing.T) {
	rewriteAllocs := func(n int) (allocs float64, arrows int) {
		p, err := fw.New(algos.ND, fw.NewInstance(matrix.NewSpace(), n, 1), 4)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() { core.Rewrite(p) }), len(core.MustRewrite(p).SortedArrows())
	}
	small, smallArrows := rewriteAllocs(64)
	large, largeArrows := rewriteAllocs(1024)
	if largeArrows < 100*smallArrows {
		t.Fatalf("FW-1D 1024/4 has %d arrows against %d: not the larger instance this test needs", largeArrows, smallArrows)
	}
	if large != small {
		t.Errorf("Rewrite allocations grew with the program: %.0f for FW-1D 64/4, %.0f for 1024/4", small, large)
	}
}
