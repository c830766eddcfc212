package exec

import (
	"sync"
	"testing"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// engineGraph builds a random rewritten program with instrumented strand
// bodies (see equiv_test.go) and returns the expected effect vector.
func engineGraph(t *testing.T, seed int64) (*core.Graph, []int64, []int64) {
	t.Helper()
	g := randomGraph(t, seed)
	if g == nil {
		return nil, nil, nil
	}
	eg := g.Exec()
	val := make([]int64, eg.NumStrands())
	instrument(eg, val)
	if err := RunElision(g); err != nil {
		t.Fatalf("seed %d: elision: %v", seed, err)
	}
	want := append([]int64(nil), val...)
	return g, val, want
}

// TestEngineMatchesElision submits random instrumented programs to a
// shared engine, repeatedly, asserting every run reproduces the serial
// elision's strand effects (the tracker rewinds correctly between
// generations).
func TestEngineMatchesElision(t *testing.T) {
	e := NewEngine(4)
	defer e.Close()
	for seed := int64(0); seed < 40; seed++ {
		g, val, want := engineGraph(t, seed)
		if g == nil {
			continue
		}
		for rerun := 0; rerun < 3; rerun++ {
			for i := range val {
				val[i] = 0
			}
			r, err := e.Submit(g)
			if err != nil {
				t.Fatalf("seed %d: submit: %v", seed, err)
			}
			if err := r.Wait(); err != nil {
				t.Fatalf("seed %d rerun %d: %v", seed, rerun, err)
			}
			for i := range val {
				if val[i] != want[i] {
					t.Fatalf("seed %d rerun %d: strand %d effect = %d, want %d (dependency violated)",
						seed, rerun, i, val[i], want[i])
				}
			}
		}
	}
}

// TestEngineConcurrentSubmitters drives one engine from several
// goroutines, mixing distinct graphs in flight, and verifies completion
// counts per graph. Nil-bodied graphs are used so concurrent submissions
// of the same graph are race-free by construction (the pool hands every
// in-flight run its own instance).
func TestEngineConcurrentSubmitters(t *testing.T) {
	e := NewEngine(4)
	defer e.Close()
	var graphs []*core.Graph
	for seed := int64(100); len(graphs) < 5 && seed < 140; seed++ {
		if g := randomGraph(t, seed); g != nil {
			for _, l := range g.P.Leaves {
				l.Run = nil
			}
			graphs = append(graphs, g)
		}
	}
	const submitters = 8
	const repeats = 50
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < repeats; i++ {
				r, err := e.Submit(graphs[(s+i)%len(graphs)])
				if err != nil {
					errs <- err
					return
				}
				if err := r.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEngineProgramCache checks that SubmitProgram compiles a program
// exactly once and that Run round-trips through the cache.
func TestEngineProgramCache(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	g, _, _ := engineGraph(t, 7)
	if g == nil {
		t.Skip("seed 7 produced no graph")
	}
	p := g.P
	var first *core.Graph
	for i := 0; i < 5; i++ {
		r, err := e.SubmitProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		ent := e.progs[p]
		e.mu.Unlock()
		if ent == nil || ent.g == nil {
			t.Fatal("program entry missing after SubmitProgram")
		}
		if first == nil {
			first = ent.g
		} else if ent.g != first {
			t.Fatal("program recompiled on resubmission")
		}
	}
}

// TestEngineSubmitInstance exercises caller-owned run state: the same
// instance re-submitted many times, with Wait rewinding it in between.
func TestEngineSubmitInstance(t *testing.T) {
	e := NewEngine(3)
	defer e.Close()
	g, val, want := engineGraph(t, 12)
	if g == nil {
		t.Skip("seed 12 produced no graph")
	}
	inst := NewInstance(g.Exec())
	for rerun := 0; rerun < 10; rerun++ {
		for i := range val {
			val[i] = 0
		}
		r, err := e.SubmitInstance(inst)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		for i := range val {
			if val[i] != want[i] {
				t.Fatalf("rerun %d: strand %d effect = %d, want %d", rerun, i, val[i], want[i])
			}
		}
		if gen := inst.ct.Generation(); gen != int32(rerun+2) {
			t.Fatalf("rerun %d: generation = %d, want %d", rerun, gen, rerun+2)
		}
	}
}

// TestEngineClose verifies shutdown semantics: Close drains in-flight
// runs, further submissions fail, and Close is idempotent.
func TestEngineClose(t *testing.T) {
	e := NewEngine(2)
	g, _, _ := engineGraph(t, 20)
	if g == nil {
		t.Skip("seed 20 produced no graph")
	}
	// Ten runs of one graph are in flight at once below; nil the bodies so
	// concurrent executions of the same strand don't race on the
	// instrumentation slice.
	for _, l := range g.P.Leaves {
		l.Run = nil
	}
	var handles []*Run
	for i := 0; i < 10; i++ {
		r, err := e.Submit(g)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, r)
	}
	e.Close()
	for _, r := range handles {
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Submit(g); err != ErrEngineClosed {
		t.Fatalf("Submit after Close = %v, want ErrEngineClosed", err)
	}
	if err := e.Run(g.P); err != ErrEngineClosed {
		t.Fatalf("Run after Close = %v, want ErrEngineClosed", err)
	}
	e.Close() // idempotent
}

// TestEngineSteadyStateAllocs asserts the amortization claim: once the
// program is cached and an instance pooled, Engine.Run allocates nothing.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	var g *core.Graph
	for seed := int64(0); g == nil && seed < 40; seed++ {
		g, _, _ = engineGraph(t, seed)
	}
	if g == nil {
		t.Fatal("no random seed produced a graph")
	}
	for _, l := range g.P.Leaves {
		l.Run = nil
	}
	p := g.P
	for i := 0; i < 10; i++ { // warm: cache fill, pool fill, buffer growth
		if err := e.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := e.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Fatalf("steady-state Engine.Run allocates %.2f objects/run, want ~0", avg)
	}
}

// TestEngineEmptyishPrograms covers the degenerate submission paths.
func TestEngineEmptyishPrograms(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	root := core.NewStrand("only", 1, nil, nil, nil)
	p, err := core.NewProgram(core.NewSeq(root, core.NewStrand("s2", 1, nil, nil, nil)), core.RuleSet{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(p); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(p); err != nil {
		t.Fatal(err)
	}
}

// TestPackTask pins the task-word encoding at its extremes.
func TestPackTask(t *testing.T) {
	cases := [][2]int32{{0, 0}, {1, 0}, {0, 1}, {5, 1 << 30}, {1 << 30, 5}, {1<<31 - 1, 1<<31 - 1}}
	for _, c := range cases {
		w := packTask(c[0], c[1])
		if w < 0 {
			t.Fatalf("packTask(%d, %d) = %d, want non-negative", c[0], c[1], w)
		}
		slot, id := unpackTask(w)
		if slot != c[0] || id != c[1] {
			t.Fatalf("unpack(pack(%d, %d)) = (%d, %d)", c[0], c[1], slot, id)
		}
	}
}

// TestEngineCacheCountersAndEviction covers the bounded compile caches: hit
// and miss accounting on both maps, LRU-ish eviction under a small cap,
// and the safety of evicting an instance pool while its graph is still
// in flight (the run holds its own pool pointer).
func TestEngineCacheCountersAndEviction(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()

	var graphs []*core.Graph
	for seed := int64(200); len(graphs) < 4 && seed < 260; seed++ {
		if g := randomGraph(t, seed); g != nil {
			for _, l := range g.P.Leaves {
				l.Run = nil
			}
			graphs = append(graphs, g)
		}
	}
	if len(graphs) < 4 {
		t.Fatalf("only %d random graphs", len(graphs))
	}

	run := func(g *core.Graph) {
		t.Helper()
		r, err := e.Submit(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	// First submissions allocate (instance misses), repeats pool (hits).
	for _, g := range graphs {
		run(g)
	}
	for _, g := range graphs {
		run(g)
	}
	n := uint64(len(graphs))
	st := e.Metrics().Snapshot()
	if st.Get(telemetry.MInstMisses) != n || st.Get(telemetry.MInstHits) != n {
		t.Fatalf("instance accounting: %v, want %d misses then %d hits", st.Values, n, n)
	}
	if st.Get(telemetry.MEvictions) != 0 {
		t.Fatalf("evictions under default cap: %v", st.Values)
	}

	// Program cache: one miss, then hits.
	p := graphs[0].P
	for i := 0; i < 3; i++ {
		r, err := e.SubmitProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st = e.Metrics().Snapshot()
	if st.Get(telemetry.MProgMisses) != 1 || st.Get(telemetry.MProgHits) != 2 {
		t.Fatalf("program accounting: %v, want 1 miss / 2 hits", st.Values)
	}

	// Cap below the working set: pools are evicted oldest-first, and a
	// re-submission of an evicted graph misses again.
	e.SetCacheCap(2)
	st = e.Metrics().Snapshot()
	if st.Get(telemetry.MEvictions) == 0 {
		t.Fatalf("no evictions after capping below the pool count: %v", st.Values)
	}
	e.mu.Lock()
	nPools := len(e.pools)
	e.mu.Unlock()
	if nPools > 2 {
		t.Fatalf("%d pools survive a cap of 2", nPools)
	}
	before := st.Get(telemetry.MInstMisses)
	run(graphs[0]) // graphs[0] is the LRU; it must have been evicted
	if after := e.Metrics().Snapshot().Get(telemetry.MInstMisses); after != before+1 {
		t.Fatalf("evicted graph did not miss on resubmission (misses %d → %d)", before, after)
	}

	// Eviction with the victim in flight: submit, then force eviction by
	// touching the other graphs, then Wait. The run's own pool pointer
	// keeps the orphan alive; nothing crashes and the run completes.
	r, err := e.Submit(graphs[1])
	if err != nil {
		t.Fatal(err)
	}
	run(graphs[2])
	run(graphs[3])
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
}

// cacheTestGraphs builds n distinct nil-body graphs for cache tests.
func cacheTestGraphs(t *testing.T, n int) []*core.Graph {
	t.Helper()
	var graphs []*core.Graph
	for seed := int64(300); len(graphs) < n && seed < 400; seed++ {
		if g := randomGraph(t, seed); g != nil {
			for _, l := range g.P.Leaves {
				l.Run = nil
			}
			graphs = append(graphs, g)
		}
	}
	if len(graphs) < n {
		t.Fatalf("only %d random graphs", len(graphs))
	}
	return graphs
}

// TestEngineCacheAdmission pins the eviction-order bug: inserting a new
// entry into a full cache must evict the least-recently-used OLD entry,
// not the entry being admitted. The bug was stamping the use tick after
// the eviction scan, which made every fresh (use==0) entry its own
// victim — at cap, the cache never admitted anything new.
func TestEngineCacheAdmission(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	e.SetCacheCap(2)
	graphs := cacheTestGraphs(t, 3)
	run := func(g *core.Graph) {
		t.Helper()
		r, err := e.Submit(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	run(graphs[0])
	run(graphs[1])
	run(graphs[2]) // at cap: must evict graphs[0] (LRU), admit graphs[2]
	st := e.Metrics().Snapshot()
	if st.Get(telemetry.MEvictions) != 1 || st.Get(telemetry.MInstMisses) != 3 {
		t.Fatalf("after 3 distinct graphs at cap 2: %v, want 3 misses / 1 eviction", st.Values)
	}
	run(graphs[2]) // the just-admitted entry must have survived
	st = e.Metrics().Snapshot()
	if st.Get(telemetry.MInstHits) != 1 {
		t.Fatalf("the newest entry was evicted on admission: %v, want its re-run to hit", st.Values)
	}
	run(graphs[0]) // the LRU really was the victim
	st = e.Metrics().Snapshot()
	if st.Get(telemetry.MInstMisses) != 4 || st.Get(telemetry.MEvictions) != 2 {
		t.Fatalf("LRU graph re-run: %v, want a 4th miss and a 2nd eviction", st.Values)
	}
}

// TestEngineProgramCacheAdmission is the same admission-order pin for
// the program cache (SubmitProgram had the identical stamp-after-evict
// bug).
func TestEngineProgramCacheAdmission(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	e.SetCacheCap(2)
	graphs := cacheTestGraphs(t, 3)
	run := func(g *core.Graph) {
		t.Helper()
		r, err := e.SubmitProgram(g.P)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	run(graphs[0])
	run(graphs[1])
	run(graphs[2])
	run(graphs[2])
	st := e.Metrics().Snapshot()
	if st.Get(telemetry.MProgHits) != 1 {
		t.Fatalf("the newest program entry was evicted on admission: %v, want its re-run to hit", st.Values)
	}
	if st.Get(telemetry.MProgMisses) != 3 {
		t.Fatalf("program accounting: %v, want 3 misses", st.Values)
	}
}
