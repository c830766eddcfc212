package exec

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/ndflow/ndflow/internal/core"
)

// buildDiamond compiles a ; (b ‖ c) ; d for interleaving tests.
func buildDiamond(t *testing.T) *core.Graph {
	t.Helper()
	mk := func(name string) *core.Node { return core.NewStrand(name, 1, nil, nil, nil) }
	p, err := core.NewProgram(core.NewSeq(mk("a"), core.NewPar(mk("b"), mk("c")), mk("d")), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fakeDyn is a minimal DynRun exercising the engine's dynamic surface
// directly — SubmitDyn routing, the task-kind bit, Worker.Push and the
// deferred-word chain, Inject, and the full suspension protocol (Detach,
// slot donation, Attach, spare retirement) — without internal/dyn's
// machinery on top.
//
// Frame IDs: 0 is the root, which pushes fan words 1..fan (they complete
// on sight) and then parks as a continuation; the test resumes it with
// Inject, and the worker that pops the resume word donates its identity
// to the parked goroutine. The run finishes when the resumed root
// observes every fan task done.
type fakeDyn struct {
	r       *Run
	slot    int32
	fan     int32
	done    atomic.Int32
	retired atomic.Int32
	parked  atomic.Bool
	sem     chan int
	state   atomic.Int32 // 0: not started, 1: parked, 2: resumed
}

func (d *fakeDyn) Bind(r *Run, slot int32) int32 {
	d.r = r
	d.slot = slot
	return 0
}

func (d *fakeDyn) Retire() { d.retired.Add(1) }

func (d *fakeDyn) Discard() {}

// DrainStalled reports the parked root as the one stalled strand; the
// tests register a resolver before parking the root, so the watchdog
// never actually reaches this on a healthy run.
func (d *fakeDyn) DrainStalled(fail func(parked int)) []int64 { fail(1); return nil }

func (d *fakeDyn) Exec(w *Worker, id int32) (finished, detached bool) {
	switch {
	case id > 0:
		// A fan task: one unit of dynamic work.
		d.done.Add(1)
		return false, false
	case d.state.Load() == 1:
		// Resume word for the parked root: donate and retire.
		d.sem <- w.Self()
		return false, true
	default:
		// Root body: publish the fan — the first word through the
		// completion-context chain (it must be flushed to the deque by
		// Detach below, or the run would hang), the rest via Push.
		for i := int32(1); i <= d.fan; i++ {
			if i == 1 {
				w.PushChained(PackDynTask(d.slot, i))
			} else {
				w.Push(PackDynTask(d.slot, i))
			}
		}
		d.state.Store(1)
		d.parked.Store(true)
		w.Detach()
		w.Attach(<-d.sem)
		d.parked.Store(false)
		d.state.Store(2)
		for d.done.Load() != d.fan {
			time.Sleep(time.Millisecond)
		}
		return true, false
	}
}

func TestSubmitDynProtocol(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	// The test resumes the parked root from outside the pool, so declare
	// itself as the external resolver or the quiescence watchdog would
	// fail the run as deadlocked first.
	release := e.RegisterResolver()
	defer release()
	d := &fakeDyn{fan: 16, sem: make(chan int, 1)}
	r, err := e.SubmitDyn(d)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the root to park (its fan may still be draining), then
	// resume it from outside any worker: the injector path.
	for !d.parked.Load() {
		time.Sleep(time.Millisecond)
	}
	e.Inject(PackDynTask(d.slot, 0))
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if d.done.Load() != d.fan {
		t.Fatalf("fan executed %d of %d", d.done.Load(), d.fan)
	}
	if d.state.Load() != 2 {
		t.Fatal("root was never resumed through donation")
	}
	if d.retired.Load() != 1 {
		t.Fatalf("Retire called %d times by Wait, want 1", d.retired.Load())
	}
}

func TestSubmitDynClosedEngine(t *testing.T) {
	e := NewEngine(1)
	e.Close()
	if _, err := e.SubmitDyn(&fakeDyn{fan: 1, sem: make(chan int, 1)}); err != ErrEngineClosed {
		t.Fatalf("SubmitDyn on closed engine: err = %v, want ErrEngineClosed", err)
	}
}

// TestDynInterleavesCompiled drives a dynamic run and compiled runs
// through one engine at once: the packed-word kind bit must route every
// popped task to the right executor.
func TestDynInterleavesCompiled(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	release := e.RegisterResolver()
	defer release()
	g := buildDiamond(t)
	d := &fakeDyn{fan: 64, sem: make(chan int, 1)}
	r, err := e.SubmitDyn(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		cr, err := e.Submit(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := cr.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for !d.parked.Load() {
		time.Sleep(time.Millisecond)
	}
	e.Inject(PackDynTask(d.slot, 0))
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerAccessors(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	w := newWorker(e, 0)
	if w.Engine() != e || w.Self() != 0 {
		t.Fatal("Worker accessors disagree with construction")
	}
	if got := w.takeDeferred(); got != -1 {
		t.Fatalf("fresh worker has deferred word %d", got)
	}
}
