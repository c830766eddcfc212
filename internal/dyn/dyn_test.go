package dyn

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// diamondGraph compiles a tiny static program (a ; (b ‖ c) ; d) for tests
// that mix compiled and dynamic submissions.
func diamondGraph(t *testing.T) *core.Graph {
	t.Helper()
	mk := func(name string) *core.Node { return core.NewStrand(name, 1, nil, nil, nil) }
	root := core.NewSeq(mk("a"), core.NewPar(mk("b"), mk("c")), mk("d"))
	p, err := core.NewProgram(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// cleanEngine starts an engine for a test whose every run is healthy and
// closes it at cleanup, after asserting that the quiescence watchdog never
// force-drained a run: a rescue on a clean run is a scheduler defect (the
// watchdog misjudging the pool quiescent), not a slow test. Tests that
// stall, cancel or panic a run on purpose start their engines themselves.
func cleanEngine(t testing.TB, workers int) *exec.Engine {
	t.Helper()
	e := exec.NewEngine(workers)
	t.Cleanup(func() {
		if n := e.Metrics().Snapshot().Get(telemetry.MRescues); n != 0 {
			t.Errorf("watchdog rescued %d run(s) of a clean test", n)
		}
		e.Close()
	})
	return e
}

// runOn executes root on a fresh engine with the given worker count and
// fails the test on error.
func runOn(t *testing.T, workers int, root Task) {
	t.Helper()
	e := cleanEngine(t, workers)
	if err := Run(e, root); err != nil {
		t.Fatal(err)
	}
}

func TestRootOnly(t *testing.T) {
	var ran atomic.Int32
	runOn(t, 2, func(c *Context) { ran.Add(1) })
	if ran.Load() != 1 {
		t.Fatalf("root ran %d times, want 1", ran.Load())
	}
}

func TestSpawnImplicitSync(t *testing.T) {
	// The run must not complete until every spawned child ran, even
	// though the root never calls Sync: returning from a body is an
	// implicit sync over the whole subtree.
	const n = 100
	var ran atomic.Int32
	runOn(t, 4, func(c *Context) {
		for i := 0; i < n; i++ {
			c.Spawn(func(c *Context) { ran.Add(1) })
		}
	})
	if ran.Load() != n {
		t.Fatalf("%d children ran, want %d", ran.Load(), n)
	}
}

func TestNestedSpawnTree(t *testing.T) {
	// A recursive tree: every node spawns two children down to depth 8.
	var ran atomic.Int64
	var grow func(depth int) Task
	grow = func(depth int) Task {
		return func(c *Context) {
			ran.Add(1)
			if depth == 0 {
				return
			}
			c.Spawn(grow(depth - 1))
			c.Spawn(grow(depth - 1))
		}
	}
	runOn(t, 4, grow(8))
	if want := int64(1<<9 - 1); ran.Load() != want {
		t.Fatalf("ran %d nodes, want %d", ran.Load(), want)
	}
}

func TestSyncOrdersChildren(t *testing.T) {
	// After Sync, everything the children (transitively) did must be
	// visible to the parent — plain, unsynchronized writes included.
	vals := make([]int, 64)
	runOn(t, 4, func(c *Context) {
		for i := range vals {
			i := i
			c.Spawn(func(c *Context) {
				c.Spawn(func(c *Context) { vals[i] = i + 1 })
			})
		}
		c.Sync()
		for i, v := range vals {
			if v != i+1 {
				panic(fmt.Sprintf("child %d effect missing after Sync: %d", i, v))
			}
		}
	})
}

func TestSyncTwicePhases(t *testing.T) {
	// Sync re-arms: a strand can run several spawn/sync phases, and each
	// Sync joins only what was spawned before it... plus nothing breaks
	// when the second phase spawns again.
	var phase1, phase2 atomic.Int32
	runOn(t, 4, func(c *Context) {
		for i := 0; i < 20; i++ {
			c.Spawn(func(c *Context) { phase1.Add(1) })
		}
		c.Sync()
		if phase1.Load() != 20 {
			panic("phase 1 children not all joined by first Sync")
		}
		for i := 0; i < 30; i++ {
			c.Spawn(func(c *Context) { phase2.Add(1) })
		}
		c.Sync()
		if phase2.Load() != 30 {
			panic("phase 2 children not all joined by second Sync")
		}
	})
}

func TestSyncNoChildren(t *testing.T) {
	runOn(t, 2, func(c *Context) {
		c.Sync() // must not hang or mis-arm the guard
		c.Spawn(func(c *Context) {})
		c.Sync()
	})
}

func TestFutureGetFastPath(t *testing.T) {
	f := NewFuture()
	runOn(t, 2, func(c *Context) {
		f.Put(c, 42)
		if v := f.Get(c); v != 42 {
			panic(fmt.Sprintf("Get = %v, want 42", v))
		}
	})
}

func TestFutureSuspendsAndResumes(t *testing.T) {
	// The getter must be parked when it runs first (the put child is
	// gated on a second future resolved by the getter after its Get —
	// impossible without a real suspension).
	var order []string
	gate := NewFuture()
	val := NewFuture()
	done := NewFuture()
	runOn(t, 2, func(c *Context) {
		c.Spawn(func(c *Context) {
			gate.Get(c)
			order = append(order, "put")
			val.Put(c, "x")
		})
		c.Spawn(func(c *Context) {
			gate.Put(c, nil) // lets the other child run only after this strand started
			v := val.Get(c)  // suspends: val cannot be resolved yet
			order = append(order, "got "+v.(string))
			done.Put(c, nil)
		})
		done.Get(c)
		order = append(order, "root")
	})
	want := []string{"put", "got x", "root"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestManyGettersOneFuture(t *testing.T) {
	// A wide waiter list: many strands suspend on one future; one Put
	// wakes them all, each exactly once.
	const n = 64
	f := NewFuture()
	var sum atomic.Int64
	runOn(t, 4, func(c *Context) {
		for i := 0; i < n; i++ {
			i := i
			c.Spawn(func(c *Context) {
				sum.Add(int64(f.Get(c).(int)) + int64(i))
			})
		}
		c.Spawn(func(c *Context) { f.Put(c, 1000) })
	})
	if want := int64(n*1000 + n*(n-1)/2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestSpawnAfterChains(t *testing.T) {
	// A dependency chain a → b → c built purely from SpawnAfter gating:
	// each stage appends after getting its predecessor's value.
	var got []int
	runOn(t, 4, func(c *Context) {
		f := make([]*Future, 5)
		for i := range f {
			f[i] = NewFuture()
		}
		for i := len(f) - 1; i >= 1; i-- { // register consumers before producers run
			i := i
			c.SpawnAfter(func(c *Context) {
				got = append(got, f[i-1].Get(c).(int))
				f[i].Put(c, i)
			}, f[i-1])
		}
		c.SpawnAfter(func(c *Context) { f[0].Put(c, 0) })
	})
	if fmt.Sprint(got) != fmt.Sprint([]int{0, 1, 2, 3}) {
		t.Fatalf("chain order = %v", got)
	}
}

func TestSpawnAfterResolvedFutures(t *testing.T) {
	// Gating on futures that are all already resolved publishes the
	// child immediately (the settled-counter path).
	a, b := NewFuture(), NewFuture()
	var ran atomic.Int32
	runOn(t, 2, func(c *Context) {
		a.Put(c, nil)
		b.Put(c, nil)
		c.SpawnAfter(func(c *Context) { ran.Add(1) }, a, b)
	})
	if ran.Load() != 1 {
		t.Fatal("gated child did not run")
	}
}

func TestExternalPutInjector(t *testing.T) {
	// A future resolved from outside the engine: the resume must travel
	// through the engine's injector, not a worker deque.
	e := cleanEngine(t, 2)
	// The test goroutine is the resolver; register so the quiescence
	// watchdog keeps its hands off the parked run.
	release := e.RegisterResolver()
	defer release()
	in := NewFuture()
	var got atomic.Int64
	er, err := Submit(e, func(c *Context) {
		got.Store(int64(in.Get(c).(int)))
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the getter park first
	in.Put(nil, 7)                    // nil context: external resolver
	if err := er.Wait(); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 7 {
		t.Fatalf("got %d, want 7", got.Load())
	}
}

func TestTryGetAndResolved(t *testing.T) {
	f := NewFuture()
	if _, ok := f.TryGet(); ok || f.Resolved() {
		t.Fatal("unresolved future reports resolved")
	}
	f.Put(nil, 3)
	if v, ok := f.TryGet(); !ok || v != 3 || !f.Resolved() {
		t.Fatalf("TryGet = %v,%v after Put", v, ok)
	}
}

func TestDoublePutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("second Put did not panic")
		}
	}()
	f := NewFuture()
	f.Put(nil, 1)
	f.Put(nil, 2)
}

func TestSubmitAfterCloseFails(t *testing.T) {
	e := exec.NewEngine(1)
	e.Close()
	if _, err := Submit(e, func(c *Context) {}); err == nil {
		t.Fatal("Submit on a closed engine succeeded")
	}
	if err := Run(e, func(c *Context) {}); err == nil {
		t.Fatal("Run on a closed engine succeeded")
	}
}

func TestDynInterleavesWithCompiled(t *testing.T) {
	// Dynamic and compiled submissions share one engine concurrently.
	e := cleanEngine(t, 4)
	g := diamondGraph(t)
	const rounds = 20
	errs := make(chan error, 2)
	go func() {
		for i := 0; i < rounds; i++ {
			r, err := e.Submit(g)
			if err == nil {
				err = r.Wait()
			}
			if err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	go func() {
		for i := 0; i < rounds; i++ {
			if err := Run(e, fanRoot(32)); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// fanRoot returns a root spawning n children through futures (half gated,
// half direct), as a mixed dynamic workload.
func fanRoot(n int) Task {
	return func(c *Context) {
		f := NewFuture()
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				c.SpawnAfter(func(c *Context) { f.Get(c) }, f)
			} else {
				c.Spawn(func(c *Context) {})
			}
		}
		c.Spawn(func(c *Context) { f.Put(c, nil) })
	}
}

func TestRunReusePooledState(t *testing.T) {
	// Back-to-back runs on one engine exercise run/frame recycling.
	e := cleanEngine(t, 4)
	var total atomic.Int64
	for round := 0; round < 50; round++ {
		if err := Run(e, func(c *Context) {
			for i := 0; i < 32; i++ {
				c.Spawn(func(c *Context) { total.Add(1) })
			}
			c.Sync()
			c.Spawn(func(c *Context) { total.Add(1) })
		}); err != nil {
			t.Fatal(err)
		}
	}
	if want := int64(50 * 33); total.Load() != want {
		t.Fatalf("total = %d, want %d", total.Load(), want)
	}
}

func TestDeepRecursionWithGet(t *testing.T) {
	// Serial chain of suspensions: task i spawns task i+1 and Gets its
	// result — maximal continuation depth, every Get a real suspension.
	const depth = 200
	var chain func(i int) Task
	results := make([]*Future, depth+1)
	for i := range results {
		results[i] = NewFuture()
	}
	chain = func(i int) Task {
		return func(c *Context) {
			if i == depth {
				results[i].Put(c, 0)
				return
			}
			c.Spawn(chain(i + 1))
			results[i].Put(c, results[i+1].Get(c).(int)+1)
		}
	}
	e := cleanEngine(t, 2)
	if err := Run(e, chain(0)); err != nil {
		t.Fatal(err)
	}
	v, ok := results[0].TryGet()
	if !ok || v != depth {
		t.Fatalf("chain result = %v,%v, want %d", v, ok, depth)
	}
}

func TestWorkerOneSuspension(t *testing.T) {
	// A single-worker engine must still make progress across
	// suspensions: the replacement-goroutine path is the only way
	// forward when the lone worker parks.
	f := NewFuture()
	var got int
	runOn(t, 1, func(c *Context) {
		c.Spawn(func(c *Context) { f.Put(c, 9) })
		got = f.Get(c).(int)
	})
	if got != 9 {
		t.Fatalf("got %d, want 9", got)
	}
}

func TestPutAcrossEngines(t *testing.T) {
	// A future shared between two engines: a task on engine B resolves
	// what a task on engine A is parked on. The wakeup must route
	// through A's injector — B's deques cannot carry A's task words.
	ea := cleanEngine(t, 2)
	eb := cleanEngine(t, 2)
	// Engine B is an external resolver from A's point of view: A's
	// watchdog cannot see B's in-flight Put, so declare it.
	release := ea.RegisterResolver()
	defer release()
	f := NewFuture()
	var got atomic.Int64
	ra, err := Submit(ea, func(c *Context) {
		got.Store(int64(f.Get(c).(int))) // parks on ea
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the getter park
	if err := Run(eb, func(c *Context) { f.Put(c, 11) }); err != nil {
		t.Fatal(err)
	}
	if err := ra.Wait(); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 11 {
		t.Fatalf("got %d, want 11", got.Load())
	}
}

func TestDoublePutAfterRecoverStillResolved(t *testing.T) {
	// A second Put must panic BEFORE touching the value, so readers of
	// the resolved future never observe it change.
	f := NewFuture()
	f.Put(nil, 1)
	func() {
		defer func() { _ = recover() }()
		f.Put(nil, 2)
	}()
	if v, ok := f.TryGet(); !ok || v != 1 {
		t.Fatalf("resolved value corrupted by recovered double Put: %v, %v", v, ok)
	}
}

// TestFramePoolBatchBoundaries walks the frame pool across the
// frameBatch edges on a single-worker engine, where shard traffic is
// deterministic: a wide phase holds k frames live at once (slab growth
// in frameBatch steps), their completions stream k indices back through
// the freeing shard (spilling half to the global list at every
// 2*frameBatch crossing), and a second wide phase re-takes them
// (batched refill). k values straddle every boundary.
func TestFramePoolBatchBoundaries(t *testing.T) {
	for _, k := range []int{1, frameBatch - 1, frameBatch, frameBatch + 1,
		2*frameBatch - 1, 2 * frameBatch, 2*frameBatch + 1, 3*frameBatch + 5} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			e := cleanEngine(t, 1)
			var n atomic.Int64
			body := func(c *Context) {
				for i := 0; i < k; i++ {
					c.Spawn(func(c *Context) { n.Add(1) })
				}
				c.Sync()
				c.SpawnForRange(func(c *Context, x int64) { n.Add(1) }, 0, int64(k))
			}
			// Two runs per engine: the second reuses the first's pooled
			// run state, so refill starts from a populated free list
			// instead of a fresh table.
			for round := 1; round <= 2; round++ {
				n.Store(0)
				if err := Run(e, body); err != nil {
					t.Fatal(err)
				}
				if got := n.Load(); got != int64(2*k) {
					t.Fatalf("round %d: %d child executions, want %d", round, got, 2*k)
				}
			}
		})
	}
}

// TestSpawnChainPendInlining checks last-spawn chaining end to end: a
// deep chain of single spawns (each body's only child rides the pend
// slot and chains as the worker's next task) must complete exactly, and
// interleaving a structural call (which flushes pend to the deque) must
// not change the result.
func TestSpawnChainPendInlining(t *testing.T) {
	e := cleanEngine(t, 2)
	const depth = 2000
	var steps atomic.Int64
	var descend func(c *Context, d int64)
	descend = func(c *Context, d int64) {
		steps.Add(1)
		if d == 0 {
			return
		}
		c.SpawnFor(descend, d-1)
	}
	if err := Run(e, func(c *Context) { c.SpawnFor(descend, depth) }); err != nil {
		t.Fatal(err)
	}
	if got := steps.Load(); got != depth+1 {
		t.Fatalf("chain executed %d steps, want %d", got, depth+1)
	}

	// A chain that also spawns a sibling before descending: the sibling
	// is flushed from pend by the second spawn, both run.
	steps.Store(0)
	var pair func(c *Context, d int64)
	pair = func(c *Context, d int64) {
		steps.Add(1)
		if d == 0 {
			return
		}
		c.Spawn(func(c *Context) { steps.Add(1) })
		c.SpawnFor(pair, d-1)
	}
	if err := Run(e, func(c *Context) { c.SpawnFor(pair, 500) }); err != nil {
		t.Fatal(err)
	}
	if got := steps.Load(); got != 2*500+1 {
		t.Fatalf("pair chain executed %d steps, want %d", got, 2*500+1)
	}
}
