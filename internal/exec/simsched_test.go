package exec_test

import (
	"reflect"
	"runtime/debug"
	"testing"
	"time"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/experiments"
	"github.com/ndflow/ndflow/internal/pmh"
	"github.com/ndflow/ndflow/internal/sim"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// simSpec is a 3-level PMH with procs processors: private L1s, L2s
// shared by eight, one top cache.
func simSpec(procs int) pmh.Spec {
	return pmh.Spec{
		ProcsPerL1: 1,
		Caches: []pmh.CacheSpec{
			{Size: 128, Fanout: 8, MissCost: 1},
			{Size: 1024, Fanout: procs / 8, MissCost: 10},
			{Size: 8192, Fanout: 1, MissCost: 100},
		},
		MemMissCost: 1000,
	}
}

func simulate(t *testing.T, g *core.Graph, spec pmh.Spec) (*sim.Result, *exec.SimScheduler) {
	t.Helper()
	m, err := pmh.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := exec.NewSimScheduler()
	res, err := sim.Run(g, m, s)
	if err != nil {
		t.Fatal(err)
	}
	return res, s
}

// TestSimSchedulerWall runs every experiment builder in both models on
// the engine's scheduler at modelled P = 64, a width no test box has:
// every run completes every strand, conserves the program's work and is
// repeat-identical, and the simulation stays well inside a second. The
// budget counts only the simulation calls, each at the faster of its two
// repetitions, so load from packages tested alongside does not count.
func TestSimSchedulerWall(t *testing.T) {
	const procs = 64
	spec := simSpec(procs)
	if spec.Processors() != procs {
		t.Fatalf("spec has %d processors, want %d", spec.Processors(), procs)
	}
	timed := func(g *core.Graph) (*sim.Result, time.Duration) {
		start := time.Now()
		res, _ := simulate(t, g, spec)
		return res, time.Since(start)
	}
	var el time.Duration
	for _, b := range experiments.Builders() {
		for _, model := range []algos.Model{algos.NP, algos.ND} {
			g, err := b.Build(model, 32, 4)
			if err != nil {
				t.Fatal(err)
			}
			first, d1 := timed(g)
			if first.Strands != len(g.P.Leaves) {
				t.Errorf("%s/%s: completed %d of %d strands", b.Name, model, first.Strands, len(g.P.Leaves))
			}
			if first.Work != g.P.Work() {
				t.Errorf("%s/%s: simulated work %d, program work %d", b.Name, model, first.Work, g.P.Work())
			}
			again, d2 := timed(g)
			if !reflect.DeepEqual(first, again) {
				t.Errorf("%s/%s: rerun differs:\nfirst: %+v\nagain: %+v", b.Name, model, first, again)
			}
			el += min(d1, d2)
		}
	}
	if el > time.Second && !instrumented() {
		t.Errorf("P = %d wall took %v, budget 1s", procs, el)
	}
}

// instrumented reports whether the test binary was built with the race
// detector or coverage, either of which slows the wall past any fixed
// budget.
func instrumented() bool {
	if testing.CoverMode() != "" {
		return true
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// TestSimSchedulerSteals: one fork strand enables sixteen equal strands
// on one processor's deque while three processors sit idle; the steal
// sweep spreads them into a perfectly balanced schedule, and the steals
// land on the engine's own counter.
func TestSimSchedulerSteals(t *testing.T) {
	nodes := make([]*core.Node, 16)
	for i := range nodes {
		nodes[i] = core.NewStrand("s", 100, nil, nil, nil)
	}
	p, err := core.NewProgram(core.NewSeq(core.NewStrand("fork", 1, nil, nil, nil), core.NewPar(nodes...)), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := core.MustRewrite(p)
	spec := pmh.Spec{
		ProcsPerL1:  1,
		Caches:      []pmh.CacheSpec{{Size: 64, Fanout: 4, MissCost: 1}},
		MemMissCost: 10,
	}
	res, s := simulate(t, g, spec)
	if res.Strands != 17 {
		t.Fatalf("executed %d strands, want 17", res.Strands)
	}
	if steals := s.Metrics().Snapshot().Get(telemetry.MSteals); steals == 0 {
		t.Fatal("no steals: one processor's completion enabled 16 strands while three sat idle")
	}
	// The fork, then four rounds of four equal strands.
	if res.Makespan != 1+400 {
		t.Fatalf("makespan = %d, want 401 (perfect balance)", res.Makespan)
	}
}
