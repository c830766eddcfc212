// Structural tests for the compile-time priority table (depth-to-sink
// per strand, core.ExecGraph.StrandDepths): on every difftest builder
// and model, the table must satisfy the wake-graph recurrence
//
//	depth(s) = work(s) + max(0, max over wake successors of depth)
//
// with relay counters contributing the max of their own wake rows, and
// must agree with the independently-computed Span/CriticalPath analysis:
// the deepest initially-ready strand IS the span, and the critical
// path's first strand carries it.
package ndflow_test

import (
	"fmt"
	"testing"
)

func TestPriorityTableStructure(t *testing.T) {
	for _, c := range diffCases() {
		for _, model := range c.models {
			t.Run(fmt.Sprintf("%s/%s", c.name, model), func(t *testing.T) {
				g, _, err := c.build(model)
				if err != nil {
					t.Fatal(err)
				}
				eg := g.Exec()
				wg := eg.Wake()
				depths := eg.StrandDepths()
				nS := wg.NumStrands()
				if len(depths) != nS {
					t.Fatalf("depth table has %d entries for %d strands", len(depths), nS)
				}

				// Relay depths from the relay wake rows. A relay's targets
				// were discovered earlier in the reverse-topo collapse, so
				// they always carry smaller relay row indices — asserted as
				// we go — and one increasing pass resolves the recursion.
				relay := make([]int64, wg.NumRelays())
				depthOf := func(tgt int32) int64 {
					if int(tgt) < nS {
						return depths[tgt]
					}
					return relay[int(tgt)-nS]
				}
				for r := 0; r < wg.NumRelays(); r++ {
					targets, _ := wg.Row(int32(nS + r))
					var best int64
					for _, tgt := range targets {
						if int(tgt) >= nS && int(tgt)-nS >= r {
							t.Fatalf("relay %d wakes relay %d: relay rows are not topologically ordered", r, int(tgt)-nS)
						}
						if d := depthOf(tgt); d > best {
							best = d
						}
					}
					relay[r] = best
				}

				// The recurrence, exactly: own work plus the deepest strand
				// reachable through this strand's wake row (0 when the row
				// only reaches the sink).
				for s := 0; s < nS; s++ {
					targets, _ := wg.Row(int32(s))
					var succ int64
					for _, tgt := range targets {
						if d := depthOf(tgt); d > succ {
							succ = d
						}
					}
					want := eg.Strand(int32(s)).Work + succ
					if depths[s] != want {
						t.Fatalf("strand %d: depth %d, want work %d + deepest successor %d = %d",
							s, depths[s], eg.Strand(int32(s)).Work, succ, want)
					}
				}

				// Cross-check against the forward longest-path analysis: the
				// deepest initially-ready strand is the span, and the
				// critical path realizes it end to end.
				span := g.Span()
				var maxInit int64
				for _, s := range wg.InitialReady() {
					if depths[s] > maxInit {
						maxInit = depths[s]
					}
				}
				if maxInit != span {
					t.Fatalf("deepest initially-ready strand has depth %d, Span() = %d", maxInit, span)
				}
				cp := g.CriticalPath()
				if len(cp) == 0 {
					t.Fatal("empty critical path")
				}
				var cpWork int64
				for _, leaf := range cp {
					cpWork += leaf.Work
				}
				if cpWork != span {
					t.Fatalf("critical path works sum to %d, Span() = %d", cpWork, span)
				}
				if first := eg.StrandID(cp[0]); depths[first] != span {
					t.Fatalf("critical path head strand %d has depth %d, want the span %d", first, depths[first], span)
				}
			})
		}
	}
}
