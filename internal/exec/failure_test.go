package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// seqGraph builds a rewritten serial chain s0 ; s1 ; … with the given
// bodies (nil bodies allowed).
func seqGraph(t *testing.T, bodies ...func()) *core.Graph {
	t.Helper()
	nodes := make([]*core.Node, len(bodies))
	for i, b := range bodies {
		nodes[i] = core.NewStrand(fmt.Sprintf("s%d", i), 1, nil, nil, b)
	}
	p, err := core.NewProgram(core.NewSeq(nodes...), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEnginePanicContained submits a run whose second strand panics on
// every policy: Wait must return a typed *StrandPanicError naming the
// strand, the panicking run's remaining strands must be skipped, and the
// engine must execute a clean run right after.
func TestEnginePanicContained(t *testing.T) {
	for _, p := range allPolicies {
		t.Run(p.String(), func(t *testing.T) {
			e := NewEngine(2, WithPolicy(p))
			defer e.Close()
			var after atomic.Int32
			g := seqGraph(t,
				nil,
				func() { panic("boom at s1") },
				func() { after.Add(1) },
				func() { after.Add(1) },
			)
			r, err := e.Submit(g)
			if err != nil {
				t.Fatal(err)
			}
			err = r.Wait()
			var pe *StrandPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("Wait = %v, want *StrandPanicError", err)
			}
			if pe.Label != "s1" || pe.Value != "boom at s1" {
				t.Fatalf("panic captured as strand %d (%s) value %v", pe.Strand, pe.Label, pe.Value)
			}
			if len(pe.Stack) == 0 || !strings.Contains(err.Error(), "boom at s1") {
				t.Fatalf("error carries no stack/value: %v", err)
			}
			if after.Load() != 0 {
				t.Fatalf("%d strands ran after the panic; want skip-at-dispatch", after.Load())
			}
			// The engine must stay healthy: a clean run on the same engine.
			var n atomic.Int32
			clean := seqGraph(t, func() { n.Add(1) }, func() { n.Add(1) })
			cr, err := e.Submit(clean)
			if err != nil {
				t.Fatal(err)
			}
			if err := cr.Wait(); err != nil {
				t.Fatal(err)
			}
			if n.Load() != 2 {
				t.Fatalf("clean run after panic executed %d of 2 strands", n.Load())
			}
		})
	}
}

// TestRunCancel cancels an in-flight run mid-strand: Wait returns
// ErrRunCanceled and the remaining strand bodies are skipped.
func TestRunCancel(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	var after atomic.Int32
	g := seqGraph(t,
		func() { close(started); <-release },
		func() { after.Add(1) },
		func() { after.Add(1) },
	)
	r, err := e.Submit(g)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	r.Cancel()
	r.Cancel() // idempotent
	close(release)
	if err := r.Wait(); !errors.Is(err, ErrRunCanceled) {
		t.Fatalf("Wait = %v, want ErrRunCanceled", err)
	}
	if after.Load() != 0 {
		t.Fatalf("%d strands ran after Cancel", after.Load())
	}
}

// TestSubmitCtx covers the context path: a deadline that fires mid-run
// fails the run with context.DeadlineExceeded, a pre-cancelled context is
// rejected at submission, and a context that never fires costs nothing.
func TestSubmitCtx(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()

	t.Run("deadline", func(t *testing.T) {
		g := seqGraph(t,
			func() { time.Sleep(30 * time.Millisecond) },
			func() { time.Sleep(30 * time.Millisecond) },
			nil,
		)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		r, err := e.SubmitCtx(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Wait = %v, want DeadlineExceeded", err)
		}
	})

	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.SubmitCtx(ctx, seqGraph(t, nil, nil)); !errors.Is(err, context.Canceled) {
			t.Fatalf("SubmitCtx on canceled ctx = %v, want Canceled", err)
		}
	})

	t.Run("clean", func(t *testing.T) {
		var n atomic.Int32
		g := seqGraph(t, func() { n.Add(1) }, func() { n.Add(1) })
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		r, err := e.SubmitCtx(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil || n.Load() != 2 {
			t.Fatalf("clean ctx run: err=%v ran=%d", err, n.Load())
		}
	})
}

// TestRunCtx exercises the SubmitProgram-based context wrapper.
func TestRunCtx(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	g := seqGraph(t, func() { time.Sleep(30 * time.Millisecond) }, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := e.RunCtx(ctx, g.P); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunCtx = %v, want DeadlineExceeded", err)
	}
	if err := e.RunCtx(context.Background(), g.P); err != nil {
		t.Fatalf("background RunCtx = %v", err)
	}
}

// TestFaultInjectorPanic proves the chaos hook drives the real recover
// path: an injected panic at one strand fails the run exactly like a
// body panic, and disarming the hook restores clean runs.
func TestFaultInjectorPanic(t *testing.T) {
	var arm atomic.Bool
	e := NewEngine(2, WithFaultInjector(func(strand int32) Fault {
		if arm.Load() && strand == 1 {
			return FaultPanic
		}
		return FaultNone
	}))
	defer e.Close()
	g := seqGraph(t, nil, nil, nil)
	arm.Store(true)
	r, err := e.Submit(g)
	if err != nil {
		t.Fatal(err)
	}
	var pe *StrandPanicError
	if err := r.Wait(); !errors.As(err, &pe) || pe.Strand != 1 {
		t.Fatalf("Wait = %v, want *StrandPanicError at strand 1", err)
	}
	arm.Store(false)
	cr, err := e.Submit(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.Wait(); err != nil {
		t.Fatalf("clean run after injected fault: %v", err)
	}
}

// stallDyn is a DynRun that parks forever: its root publishes nothing
// and never completes, so only the quiescence watchdog can end the run.
// DrainStalled publishes frame 1, whose dispatch completes the run.
type stallDyn struct {
	r       *Run
	slot    int32
	drained atomic.Int32
}

func (d *stallDyn) Bind(r *Run, slot int32) int32 { d.r, d.slot = r, slot; return 0 }
func (d *stallDyn) Retire()                       {}
func (d *stallDyn) Discard()                      {}
func (d *stallDyn) Exec(w *Worker, id int32) (finished, detached bool) {
	return id == 1, false
}
func (d *stallDyn) DrainStalled(fail func(parked int)) []int64 {
	d.drained.Add(1)
	fail(1)
	return []int64{PackDynTask(d.slot, 1)}
}

// TestWatchdogFailsStalledRun: a dynamic run that parks with no external
// resolver registered is failed with *UnresolvedFutureError instead of
// hanging Wait.
func TestWatchdogFailsStalledRun(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	r, err := e.SubmitDyn(&stallDyn{})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- r.Wait() }()
	select {
	case err := <-errc:
		var ue *UnresolvedFutureError
		if !errors.As(err, &ue) || ue.Parked != 1 {
			t.Fatalf("Wait = %v, want *UnresolvedFutureError{Parked: 1}", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled run hung Wait: watchdog never fired")
	}
}

// recycleDyn is a stalled run whose external resolver strikes while the
// watchdog is draining it: from inside DrainStalled it starts a goroutine
// that publishes the completing word, Waits (which recycles the handle)
// and resubmits, then gives that goroutine every chance to get there.
type recycleDyn struct {
	stallDyn
	t    *testing.T
	next chan *Run
}

func (d *recycleDyn) DrainStalled(fail func(parked int)) []int64 {
	r, e := d.r, d.r.eng
	started := make(chan struct{})
	go func() {
		close(started)
		e.Inject(PackDynTask(d.slot, 1))
		if err := r.Wait(); err != nil {
			d.t.Errorf("resolved run: Wait = %v", err)
		}
		nr, err := e.SubmitDyn(&stallDyn{})
		if err != nil {
			d.t.Error(err)
		}
		d.next <- nr
	}()
	<-started
	time.Sleep(20 * time.Millisecond)
	if !r.live || r.dyn != DynRun(d) {
		d.t.Errorf("run recycled under the watchdog: live=%v dyn=%T", r.live, r.dyn)
	}
	return nil // the resolver's word is the one that completes the run
}

// TestWatchdogCannotRaceRecycle is the regression test for the rescue
// race: the watchdog used to select stalled runs under the engine mutex,
// drop it, and then dereference r.dyn, while Run.Wait nils that field and
// recycles the handle under the mutex — a run resolved from outside in
// between was drained through a nil or foreign DynRun. Selection and
// drain are now one critical section, so the resolver above cannot even
// publish its word until the drain is over.
func TestWatchdogCannotRaceRecycle(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	d := &recycleDyn{t: t, next: make(chan *Run, 1)}
	if _, err := e.SubmitDyn(d); err != nil {
		t.Fatal(err)
	}
	select {
	case nr := <-d.next:
		// The resubmission stalls in turn and is failed the ordinary way.
		var ue *UnresolvedFutureError
		if err := nr.Wait(); !errors.As(err, &ue) {
			t.Fatalf("resubmitted run: Wait = %v, want *UnresolvedFutureError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never reached the stalled run")
	}
	if n := e.Metrics().Snapshot().Get(telemetry.MRescues); n != 2 {
		t.Fatalf("rescues = %d, want 2 (the raced run and its resubmission)", n)
	}
}

// TestWatchdogDefersToResolver: while an external resolver is
// registered, the watchdog must not fail a healthy parked run; the last
// release re-arms it.
func TestWatchdogDefersToResolver(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	release := e.RegisterResolver()
	d := &stallDyn{}
	r, err := e.SubmitDyn(d)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- r.Wait() }()
	time.Sleep(50 * time.Millisecond)
	if n := d.drained.Load(); n != 0 {
		t.Fatalf("watchdog drained a run despite a registered resolver (%d)", n)
	}
	select {
	case err := <-errc:
		t.Fatalf("run failed while resolver registered: %v", err)
	default:
	}
	release()
	release() // idempotent
	select {
	case err := <-errc:
		var ue *UnresolvedFutureError
		if !errors.As(err, &ue) {
			t.Fatalf("Wait = %v, want *UnresolvedFutureError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resolver release did not re-arm the watchdog")
	}
}

// TestCloseDrainsGoroutines: Close while runs are in flight must finish
// them and release every worker goroutine (no leaks), and a failed run
// in the batch must not wedge the drain.
func TestCloseDrainsGoroutines(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	e := NewEngine(4)
	var n atomic.Int32
	g := seqGraph(t,
		func() { time.Sleep(2 * time.Millisecond); n.Add(1) },
		func() { n.Add(1) },
	)
	bad := seqGraph(t, func() { panic("mid-drain panic") }, nil)
	var handles []*Run
	for i := 0; i < 8; i++ {
		r, err := e.Submit(g)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, r)
	}
	br, err := e.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	for _, r := range handles {
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	var pe *StrandPanicError
	if err := br.Wait(); !errors.As(err, &pe) {
		t.Fatalf("failed run in drain batch: Wait = %v", err)
	}
	if n.Load() != 16 {
		t.Fatalf("drain ran %d of 16 strands", n.Load())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("goroutines leaked across Close: %d > baseline %d", got, base)
	}
	e.Close() // idempotent after a draining Close
}

// TestSerialRuntimesPanicTyped: every driver in exec.go converts a body
// panic into the same *StrandPanicError.
func TestSerialRuntimesPanicTyped(t *testing.T) {
	mk := func() *core.Graph {
		return seqGraph(t, nil, func() { panic("serial boom") }, nil)
	}
	runtimes := map[string]func(*core.Graph) error{
		"elision":        RunElision,
		"random-topo":    func(g *core.Graph) error { return RunRandomTopo(g, 42) },
		"reverse-greedy": RunReverseGreedy,
		"parallel-1":     func(g *core.Graph) error { return RunParallel(g, 1) },
		"parallel-4":     func(g *core.Graph) error { return RunParallel(g, 4) },
	}
	for name, run := range runtimes {
		t.Run(name, func(t *testing.T) {
			err := run(mk())
			var pe *StrandPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s: err = %v, want *StrandPanicError", name, err)
			}
			if pe.Value != "serial boom" {
				t.Fatalf("%s: captured value %v", name, pe.Value)
			}
		})
	}
}
