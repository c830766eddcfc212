package exec

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"testing"
)

// allPolicies is the Policy enum, default first.
var allPolicies = []Policy{PolicyFIFO, PolicyCriticalPath, PolicyRelaxed, PolicyLocality}

// TestPolicyReporting: the policy an engine was built with is the one
// Policy() and the workers' pprof label report, and a topology exists
// exactly under PolicyLocality.
func TestPolicyReporting(t *testing.T) {
	want := map[Policy]string{
		PolicyFIFO: "fifo", PolicyCriticalPath: "critpath", PolicyRelaxed: "relaxed", PolicyLocality: "locality",
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
	e = NewEngine(4, WithPolicy(PolicyCriticalPath), WithTopology(topo))
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
