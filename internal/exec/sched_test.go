package exec

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"testing"
)

// allPolicies is the Policy enum, default first.
var allPolicies = []Policy{PolicyFIFO, PolicyRelaxed, PolicyLocality}

// TestPolicyReporting: the policy an engine was built with is the one
// Policy() and the workers' pprof label report, and a topology exists
// exactly under PolicyLocality.
func TestPolicyReporting(t *testing.T) {
	want := map[Policy]string{
		PolicyFIFO: "fifo", PolicyRelaxed: "relaxed", PolicyLocality: "locality",
	}
	for _, p := range allPolicies {
		e := NewEngine(2, WithPolicy(p))
		if e.Policy() != p || p.String() != want[p] {
			t.Errorf("WithPolicy(%v): Policy() = %v, name %q, want %q", p, e.Policy(), p.String(), want[p])
		}
		ctx := pprof.WithLabels(context.Background(), e.workerLabels(0))
		if label, _ := pprof.Label(ctx, "policy"); label != want[p] {
			t.Errorf("%v engine labels its workers policy=%q", p, label)
		}
		if got := e.Topology() != nil; got != (p == PolicyLocality) {
			t.Errorf("%v engine: Topology() != nil is %v", p, got)
		}
		e.Close()
	}
}

// TestWithTopology: a caller-built topology selects PolicyLocality and
// supplies the worker count; a disagreeing explicit count is a
// construction-time panic naming both; the last of WithPolicy and
// WithTopology wins.
func TestWithTopology(t *testing.T) {
	newTopo := func() *Topology {
		topo, err := NewTopology(topoSpec4(), 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	topo := newTopo()
	e := NewEngine(0, WithTopology(topo))
	if e.Workers() != 4 || e.Policy() != PolicyLocality || e.Topology() != topo {
		t.Errorf("NewEngine(0, WithTopology): %d workers, policy %v, adopted %v", e.Workers(), e.Policy(), e.Topology() == topo)
	}
	e.Close()

	e = NewEngine(4, WithTopology(newTopo()), WithPolicy(PolicyRelaxed))
	if e.Policy() != PolicyRelaxed || e.Topology() != nil {
		t.Errorf("WithPolicy after WithTopology: policy %v, topology %v", e.Policy(), e.Topology())
	}
	e.Close()

	topo = newTopo()
	e = NewEngine(4, WithPolicy(PolicyRelaxed), WithTopology(topo))
	if e.Policy() != PolicyLocality || e.Topology() != topo {
		t.Errorf("WithTopology after WithPolicy: policy %v", e.Policy())
	}
	e.Close()

	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "6 workers") || !strings.Contains(msg, "built for 4") {
			t.Errorf("NewEngine(6, WithTopology(4-worker topology)) panicked with %q, want both counts named", msg)
		}
	}()
	NewEngine(6, WithTopology(newTopo()))
	t.Error("NewEngine accepted a worker count its topology was not built for")
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
// into — the other workers' deques, every MultiQueue queue (the sweeper's
// own pair included) and every domain mailbox — repeated sweeps by one
// worker return each word exactly once and then false. Each site is
// tried alone, so a full structure elsewhere cannot mask one the sweep
// misses, and then with every site full. Between sweeps the sweeper pops
// its own deque dry, as the worker loop does: a batched mailbox take
// lands its surplus there. The engine is built without starting its
// workers, so nothing else moves the words.
func TestSweepContract(t *testing.T) {
	const workers = 4
	for _, p := range allPolicies {
		t.Run(p.String(), func(t *testing.T) {
			for self := 0; self < workers; self++ {
				nSites := len(sweepSites(sweepEngine(t, p, workers), self))
				for only := 0; only <= nSites; only++ { // only == nSites: every site
					e := sweepEngine(t, p, workers)
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

					w, own := newWorker(e, self), e.deques[self]
					for sweeps := 0; ; sweeps++ {
						word, ok := e.rs.sweep(w)
						if !ok {
							break
						}
						if sweeps > len(taken) {
							t.Fatalf("worker %d: %d successful sweeps for %d words", self, sweeps, len(taken))
						}
						for ; ok; word, ok = own.pop() {
							if _, placed := taken[word]; !placed {
								t.Fatalf("worker %d: sweep returned %#x, which was never placed", self, word)
							}
							taken[word]++
						}
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
// workers: newReadyQueue needs only workers, deques, met and topo.
func sweepEngine(t *testing.T, p Policy, workers int) *Engine {
	e := &Engine{workers: workers, deques: make([]*wsDeque, workers), policy: p, met: newMetricsSet(workers)}
	for i := range e.deques {
		e.deques[i] = newWSDeque(4)
	}
	if p == PolicyLocality {
		topo, err := NewTopology(topoSpec4(), workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		e.topo = topo
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
	switch rs := e.rs.(type) {
	case *relaxedSched:
		for q := range rs.mq.qs {
			sites = append(sites, func(word int64) { rs.mq.qs[q].push(word%5, word) })
		}
	case *localSched:
		for _, level := range rs.topo.mail {
			for _, box := range level {
				sites = append(sites, func(word int64) {
					box.push(word)
					rs.topo.mailPending.Add(1)
				})
			}
		}
	}
	return sites
}
