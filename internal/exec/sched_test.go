package exec

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"testing"
)

// allPolicies is the Policy enum, default first.
var allPolicies = []Policy{PolicyFIFO, PolicyRelaxed}

// TestPolicyReporting: the policy an engine was built with is the one
// Policy() and the workers' pprof label report.
func TestPolicyReporting(t *testing.T) {
	want := map[Policy]string{PolicyFIFO: "fifo", PolicyRelaxed: "relaxed"}
	for _, p := range allPolicies {
		e := NewEngine(2, WithPolicy(p))
		if e.Policy() != p || p.String() != want[p] {
			t.Errorf("WithPolicy(%v): Policy() = %v, name %q, want %q", p, e.Policy(), p.String(), want[p])
		}
		ctx := pprof.WithLabels(context.Background(), e.workerLabels(0))
		if label, _ := pprof.Label(ctx, "policy"); label != want[p] {
			t.Errorf("%v engine labels its workers policy=%q", p, label)
		}
		e.Close()
	}
}

// TestUnknownPolicyPanics: a Policy value outside the enum prints as
// Policy(n) and is a construction-time panic naming it — never a silent
// FIFO engine reporting a policy it does not run.
func TestUnknownPolicyPanics(t *testing.T) {
	for _, p := range []Policy{Policy(len(allPolicies)), -1} {
		name := fmt.Sprintf("Policy(%d)", p)
		if p.String() != name {
			t.Errorf("String() = %q, want %q", p.String(), name)
		}
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, name) {
					t.Errorf("NewEngine(2, WithPolicy(%s)) panicked with %q, want the value named", name, msg)
				}
			}()
			NewEngine(2, WithPolicy(p)).Close()
		}()
	}
}

// TestSweepContract checks the readyQueue contract as a property: with
// words placed in structures a worker other than the sweeper can publish
// into — the other workers' deques and every MultiQueue queue (the
// sweeper's own pair included) — repeated sweeps by one worker return
// each word exactly once and then false. Each site is tried alone, so a
// full structure elsewhere cannot mask one the sweep misses, and then
// with every site full. The engine is built without starting its
// workers, so nothing else moves the words.
func TestSweepContract(t *testing.T) {
	const workers = 4
	for _, p := range allPolicies {
		t.Run(p.String(), func(t *testing.T) {
			for self := 0; self < workers; self++ {
				nSites := len(sweepSites(sweepEngine(p, workers), self))
				for only := 0; only <= nSites; only++ { // only == nSites: every site
					e := sweepEngine(p, workers)
					taken := make(map[int64]int)
					var id int32
					for i, push := range sweepSites(e, self) {
						if only < nSites && i != only {
							continue
						}
						for k := 0; k < 3; k++ {
							word := packTask(0, id)
							id++
							taken[word] = 0
							push(word)
						}
					}

					w := newWorker(e, self)
					for sweeps := 0; ; sweeps++ {
						word, ok := e.rs.sweep(w)
						if !ok {
							break
						}
						if sweeps > len(taken) {
							t.Fatalf("worker %d: %d successful sweeps for %d words", self, sweeps, len(taken))
						}
						if _, placed := taken[word]; !placed {
							t.Fatalf("worker %d: sweep returned %#x, which was never placed", self, word)
						}
						taken[word]++
					}
					for word, n := range taken {
						if n != 1 {
							t.Errorf("worker %d, site %d of %d: word %#x taken %d times, want exactly once", self, only, nSites, word, n)
						}
					}
				}
			}
		})
	}
}

// sweepEngine builds an engine under the policy without starting its
// workers: newReadyQueue needs only workers, deques and met.
func sweepEngine(p Policy, workers int) *Engine {
	e := &Engine{workers: workers, deques: make([]*wsDeque, workers), policy: p, met: newMetricsSet(workers)}
	for i := range e.deques {
		e.deques[i] = newWSDeque(4)
	}
	e.rs = newReadyQueue(e)
	return e
}

// sweepSites returns one push per structure a worker other than self can
// publish into under the engine's policy.
func sweepSites(e *Engine, self int) []func(word int64) {
	var sites []func(word int64)
	for v, d := range e.deques {
		if v != self {
			sites = append(sites, d.push)
		}
	}
	if rs, ok := e.rs.(*relaxedSched); ok {
		for q := range rs.mq.qs {
			sites = append(sites, func(word int64) { rs.mq.qs[q].push(word%5, word) })
		}
	}
	return sites
}
