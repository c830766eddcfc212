// Chaos-injection differential wall: every algorithm builder is executed
// on every runtime with a fault injected — a panic planted in a randomly
// chosen strand body, a mid-flight Cancel, or scheduler-level fault
// injection through WithFaultInjector — and the suite asserts the three
// robustness invariants of the failure model:
//
//  1. a faulted run returns a typed error (*StrandPanicError,
//     ErrRunCanceled) from Wait within a deadline — no hang, no process
//     crash;
//  2. the engine that hosted the fault stays healthy: a clean run
//     submitted immediately after on the same engine completes;
//  3. the clean run's output is bit-identical to the golden (serial
//     elision) reference — fault containment leaves no residue in
//     scheduler or pool state.
//
// Run under -race in CI (the chaos-smoke job).
package ndflow_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/dyn"
	"github.com/ndflow/ndflow/internal/exec"
)

const chaosDeadline = 10 * time.Second

// sabotage replaces one randomly chosen non-nil strand body with a panic
// and returns the leaf index it hit.
func sabotage(tb testing.TB, g *core.Graph, seed int64) int {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	var idx []int
	for i, n := range g.P.Leaves {
		if n.Run != nil {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		tb.Fatal("builder produced no runnable strands to sabotage")
	}
	k := idx[r.Intn(len(idx))]
	g.P.Leaves[k].Run = func() { panic(fmt.Sprintf("chaos panic at leaf %d", k)) }
	return k
}

// within runs fn with a hang deadline: a faulted run that neither
// completes nor fails within chaosDeadline is itself the bug.
func within(tb testing.TB, label string, fn func() error) error {
	tb.Helper()
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	select {
	case err := <-errc:
		return err
	case <-time.After(chaosDeadline):
		tb.Fatalf("%s: faulted run exceeded %v deadline (hang)", label, chaosDeadline)
		return nil
	}
}

// golden builds a fresh instance and computes the clean serial-elision
// reference bits for one case/model.
func golden(tb testing.TB, c diffCase, model string) []uint64 {
	tb.Helper()
	var m = c.models[0]
	for _, cand := range c.models {
		if fmt.Sprint(cand) == model {
			m = cand
		}
	}
	g, outs, err := c.build(m)
	if err != nil {
		tb.Fatal(err)
	}
	if err := exec.RunElision(g); err != nil {
		tb.Fatal(err)
	}
	return bits(outs)
}

// TestChaosPanicWall: 8 builders × 10 runtimes. Each runtime executes a
// sabotaged instance (must fail typed, within the deadline), then a
// clean instance on the very same engine (must match golden bits).
func TestChaosPanicWall(t *testing.T) {
	eng := diffEngine(t, exec.PolicyFIFO)
	defer eng.Close()
	locEng := diffEngine(t, exec.PolicyLocality)
	defer locEng.Close()
	cpEng := diffEngine(t, exec.PolicyCriticalPath)
	defer cpEng.Close()
	rlxEng := diffEngine(t, exec.PolicyRelaxed)
	defer rlxEng.Close()
	runtimes := []struct {
		name     string
		idemOnly bool
		run      func(g *core.Graph) error
	}{
		{"elision", false, exec.RunElision},
		{"random-topo", false, func(g *core.Graph) error { return exec.RunRandomTopo(g, 99) }},
		{"reverse-greedy", false, exec.RunReverseGreedy},
		{"lockfree-4", false, func(g *core.Graph) error { return exec.RunParallel(g, 4) }},
		{"engine", false, submitTo(eng)},
		{"dyn", false, func(g *core.Graph) error { return dyn.RunGraph(eng, g) }},
		{"locality-4", false, submitTo(locEng)},
		// The JIT ladder: the sabotaged run is the program's first run, so
		// the panic lands in an observe/recording pass and must be
		// discarded, not compiled.
		{"dyn-jit", true, func(g *core.Graph) error {
			eg := g.Exec()
			p := dyn.NewProgram(dyn.Replay(eg, dyn.StrandDeps(eg)))
			return p.Run(eng)
		}},
		{"engine-critpath", false, submitTo(cpEng)},
		{"engine-relaxed", false, submitTo(rlxEng)},
	}
	for _, c := range diffCases() {
		c := c
		model := c.models[0] // one model per builder: chaos targets runtimes, not models
		t.Run(fmt.Sprintf("%s/%s", c.name, model), func(t *testing.T) {
			want := golden(t, c, fmt.Sprint(model))
			for i, rt := range runtimes {
				if rt.idemOnly && !c.idempotent {
					continue
				}
				// Faulted pass: sabotaged strand must surface as a typed
				// panic error from every runtime, within the deadline.
				g, _, err := c.build(model)
				if err != nil {
					t.Fatalf("%s: build: %v", rt.name, err)
				}
				leaf := sabotage(t, g, int64(1000+i))
				err = within(t, c.name+"/"+rt.name, func() error { return rt.run(g) })
				var pe *exec.StrandPanicError
				if !errors.As(err, &pe) {
					t.Fatalf("%s: faulted run (leaf %d) = %v, want *StrandPanicError", rt.name, leaf, err)
				}
				// Clean pass on the same engine right after: bit-identical
				// to golden, proving the fault left no scheduler residue.
				cg, outs, err := c.build(model)
				if err != nil {
					t.Fatalf("%s: rebuild: %v", rt.name, err)
				}
				if err := within(t, c.name+"/"+rt.name+"/clean", func() error { return rt.run(cg) }); err != nil {
					t.Fatalf("%s: clean run after fault: %v", rt.name, err)
				}
				diffBits(t, rt.name+"/clean-after-fault", bits(outs), want)
			}
		})
	}
}

// TestChaosCancelWall: every builder is cancelled mid-flight on the
// shared engine at a random point; Wait must return ErrRunCanceled (or
// nil if the run won the race), and an immediate clean run on the same
// engine must reproduce golden bits.
func TestChaosCancelWall(t *testing.T) {
	eng := exec.NewEngine(4)
	defer eng.Close()
	for ci, c := range diffCases() {
		c, ci := c, ci
		model := c.models[0]
		t.Run(fmt.Sprintf("%s/%s", c.name, model), func(t *testing.T) {
			want := golden(t, c, fmt.Sprint(model))
			r := rand.New(rand.NewSource(int64(2000 + ci)))
			for trial := 0; trial < 4; trial++ {
				g, _, err := c.build(model)
				if err != nil {
					t.Fatal(err)
				}
				run, err := eng.Submit(g)
				if err != nil {
					t.Fatal(err)
				}
				time.Sleep(time.Duration(r.Intn(200)) * time.Microsecond)
				run.Cancel()
				err = within(t, c.name+"/cancel", run.Wait)
				if err != nil && !errors.Is(err, exec.ErrRunCanceled) {
					t.Fatalf("cancelled run = %v, want nil or ErrRunCanceled", err)
				}
				cg, outs, err := c.build(model)
				if err != nil {
					t.Fatal(err)
				}
				cr, err := eng.Submit(cg)
				if err != nil {
					t.Fatal(err)
				}
				if err := within(t, c.name+"/clean", cr.Wait); err != nil {
					t.Fatalf("clean run after cancel: %v", err)
				}
				diffBits(t, fmt.Sprintf("trial %d clean-after-cancel", trial), bits(outs), want)
			}
		})
	}
}

// TestChaosFaultInjector drives the scheduler-level hook across the
// wall, on every policy: FaultDelay at every strand must not change a
// single output bit (determinism does not lean on timing), and
// FaultPanic at a moving strand index fails runs typed while disarmed
// runs stay golden.
func TestChaosFaultInjector(t *testing.T) {
	var mode atomic.Int32 // 0 none, 1 delay-all, 2 panic-at-target
	var target atomic.Int32
	inject := exec.WithFaultInjector(func(strand int32) exec.Fault {
		switch mode.Load() {
		case 1:
			return exec.FaultDelay
		case 2:
			if strand == target.Load() {
				return exec.FaultPanic
			}
		}
		return exec.FaultNone
	})
	for _, p := range diffPolicies {
		eng := diffEngine(t, p, inject)
		for ci, c := range diffCases() {
			c := c
			model := c.models[0]
			t.Run(fmt.Sprintf("%s/%s/%s", p, c.name, model), func(t *testing.T) {
				run := func(label string, g *core.Graph) error {
					return within(t, label, func() error { return submitTo(eng)(g) })
				}
				want := golden(t, c, fmt.Sprint(model))
				// Delay chaos: jitter every strand, output must stay golden.
				mode.Store(1)
				g, outs, err := c.build(model)
				if err != nil {
					t.Fatal(err)
				}
				if err := run(c.name+"/delay", g); err != nil {
					t.Fatalf("delay-faulted run: %v", err)
				}
				diffBits(t, "delay-chaos", bits(outs), want)
				// Panic chaos at a case-dependent strand index.
				mode.Store(2)
				target.Store(int32(ci % len(g.P.Leaves)))
				pg, _, err := c.build(model)
				if err != nil {
					t.Fatal(err)
				}
				var pe *exec.StrandPanicError
				if err := run(c.name+"/panic", pg); !errors.As(err, &pe) {
					t.Fatalf("injected panic run = %v, want *StrandPanicError", err)
				}
				// Disarm: clean run interleaved right after is golden again.
				mode.Store(0)
				cg, couts, err := c.build(model)
				if err != nil {
					t.Fatal(err)
				}
				if err := run(c.name+"/clean", cg); err != nil {
					t.Fatalf("clean run after injector chaos: %v", err)
				}
				diffBits(t, "clean-after-injector", bits(couts), want)
			})
		}
		eng.Close()
	}
}

// FuzzChaosEngine is the CI chaos smoke: a seed picks a builder, a fault
// mode and a fault site; the faulted run must end typed within the
// deadline and the follow-up clean run must be bit-identical to golden.
func FuzzChaosEngine(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(3))
	f.Add(int64(3), uint8(2), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, mode, caseSel uint8) {
		cases := diffCases()
		c := cases[int(caseSel)%len(cases)]
		model := c.models[0]
		eng := exec.NewEngine(4)
		defer eng.Close()
		want := golden(t, c, fmt.Sprint(model))
		g, _, err := c.build(model)
		if err != nil {
			t.Fatal(err)
		}
		switch mode % 3 {
		case 0: // planted panic
			sabotage(t, g, seed)
			r, err := eng.Submit(g)
			if err != nil {
				t.Fatal(err)
			}
			var pe *exec.StrandPanicError
			if err := within(t, "fuzz/panic", r.Wait); !errors.As(err, &pe) {
				t.Fatalf("sabotaged run = %v, want *StrandPanicError", err)
			}
		case 1: // cancel after a seed-dependent delay
			r, err := eng.Submit(g)
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Duration(seed%300) * time.Microsecond)
			r.Cancel()
			if err := within(t, "fuzz/cancel", r.Wait); err != nil && !errors.Is(err, exec.ErrRunCanceled) {
				t.Fatalf("cancelled run = %v, want nil or ErrRunCanceled", err)
			}
		case 2: // clean control arm: no fault, output must already be golden
			r, err := eng.Submit(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := within(t, "fuzz/control", r.Wait); err != nil {
				t.Fatal(err)
			}
		}
		cg, outs, err := c.build(model)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := eng.Submit(cg)
		if err != nil {
			t.Fatal(err)
		}
		if err := within(t, "fuzz/clean", cr.Wait); err != nil {
			t.Fatalf("clean run after chaos: %v", err)
		}
		diffBits(t, "fuzz-clean-after-chaos", bits(outs), want)
	})
}
