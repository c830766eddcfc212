package dyn

import (
	"fmt"
	"sync"
	"testing"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/fw"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/matrix"
)

// gatedSquares builds a replayable program: k workers fill out, each
// resolving its own future, and a reducer gated on all k futures sums
// the results. Idempotent (same writes every run), parks nothing, and
// exercises SpawnForRange, wide SpawnFor gating and Put — the full
// recordable surface.
func gatedSquares(out []int64, sum *int64) Task {
	k := len(out)
	return func(c *Context) {
		cells := make([]Future, k)
		worker := func(c *Context, x int64) {
			out[x] = x * x
			cells[x].Put(c, nil)
		}
		reduce := func(c *Context, _ int64) {
			var s int64
			for _, v := range out {
				s += v
			}
			*sum = s
		}
		c.SpawnForRange(worker, 0, int64(k))
		deps := make([]*Future, k)
		for i := range deps {
			deps[i] = &cells[i]
		}
		c.SpawnFor(reduce, 0, deps...)
	}
}

func wantSquares(t *testing.T, out []int64, sum int64) {
	t.Helper()
	var want int64
	for i, v := range out {
		if v != int64(i*i) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
		want += v
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

// TestProgramCompilesAndReplays drives a Program through the full
// observe → record → replay ladder and checks the warm run both executed
// the real bodies and was served by the compiled engine.
func TestProgramCompilesAndReplays(t *testing.T) {
	e := cleanEngine(t, 4)
	out := make([]int64, 100)
	var sum int64
	p := NewProgram(gatedSquares(out, &sum))

	// Runs 1-2 observe, run 3 records, run 4 replays.
	for i := 0; i < 3; i++ {
		if err := p.Run(e); err != nil {
			t.Fatal(err)
		}
		wantSquares(t, out, sum)
	}
	if !p.Compiled() {
		t.Fatalf("no compiled recording after 3 identical runs: %+v", p.Stats())
	}
	// Prove the warm run actually executes bodies, not just bookkeeping.
	for i := range out {
		out[i] = -1
	}
	sum = 0
	if err := p.Run(e); err != nil {
		t.Fatal(err)
	}
	wantSquares(t, out, sum)
	st := p.Stats()
	if st.Hits != 1 || st.Divergences != 0 {
		t.Fatalf("stats after warm run: %+v, want 1 hit, 0 divergences", st)
	}
	if st.Records != 1 || st.Vetoes != 0 {
		t.Fatalf("stats after warm run: %+v, want 1 record, 0 vetoes", st)
	}
}

// TestProgramWarmReplayBudget pins the compiled path of a Replay-backed
// Program past its ladder, on nil-body FW-1D at two sizes: it stays
// compiled, every warm run is a hit with no divergence, and a warm run
// allocates exactly twice whatever the shape's size.
func TestProgramWarmReplayBudget(t *testing.T) {
	for _, n := range []int{64, 256} {
		t.Run(fmt.Sprintf("FW-1D-%d", n), func(t *testing.T) {
			prog, err := fw.New(algos.ND, fw.NewInstance(matrix.NewSpace(), n, 11), 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range prog.Leaves {
				l.Run = nil
			}
			eg := core.MustRewrite(prog).Exec()
			e := cleanEngine(t, 2)
			p := NewProgram(Replay(eg, StrandDeps(eg)))
			run := func() {
				if err := p.Run(e); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 6; i++ { // observe ×2, record, warm replays
				run()
			}
			if !p.Compiled() {
				t.Fatalf("shape never compiled: %+v", p.Stats())
			}
			before := p.Stats()
			const runs = 100
			avg := testing.AllocsPerRun(runs, run)
			st := p.Stats()
			// AllocsPerRun makes one unmeasured call before its runs.
			if hits := st.Hits - before.Hits; hits != runs+1 || st.Divergences != 0 {
				t.Fatalf("%d of %d warm runs hit the compiled path: %+v", hits, runs+1, st)
			}
			if avg != 2 {
				t.Fatalf("warm replay allocates %.2f objects/run, want 2", avg)
			}
		})
	}
}

// TestProgramDivergenceFallback forces a recorded program to change
// shape and checks (a) the diverged replay falls back to a live run with
// output identical to a never-compiled reference, (b) repeated
// divergence invalidates the recording, and (c) the program re-learns
// the new shape afterwards.
func TestProgramDivergenceFallback(t *testing.T) {
	e := cleanEngine(t, 4)

	const base = 40
	extra := 0 // read by the root body; changed only between runs
	out := make([]int64, base+8)
	body := func(c *Context) {
		n := base + extra
		c.SpawnForRange(func(c *Context, x int64) { out[x] = x + 1 }, 0, int64(n))
	}
	p := NewProgram(body, JITConfig{Threshold: 2, MaxDivergences: 2})

	check := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if out[i] != int64(i+1) {
				t.Fatalf("out[%d] = %d, want %d", i, out[i], i+1)
			}
		}
		for i := n; i < len(out); i++ {
			if out[i] != 0 {
				t.Fatalf("out[%d] = %d, want untouched 0", i, out[i])
			}
		}
	}

	for i := 0; i < 4; i++ { // observe ×2, record, warm hit
		if err := p.Run(e); err != nil {
			t.Fatal(err)
		}
		check(base)
	}
	if st := p.Stats(); !p.Compiled() || st.Hits != 1 {
		t.Fatalf("expected compiled with 1 hit, got %+v", st)
	}

	// Shape change: the replay must diverge and the fallback must produce
	// exactly what a live run produces.
	extra = 4
	clear(out)
	if err := p.Run(e); err != nil {
		t.Fatal(err)
	}
	check(base + 4)
	st := p.Stats()
	if st.Divergences != 1 {
		t.Fatalf("stats after forced divergence: %+v, want 1 divergence", st)
	}
	if st.Invalidations != 0 || !p.Compiled() {
		t.Fatalf("recording dropped after a single divergence: %+v", st)
	}

	// Second divergence crosses MaxDivergences: recording invalidated.
	clear(out)
	if err := p.Run(e); err != nil {
		t.Fatal(err)
	}
	check(base + 4)
	st = p.Stats()
	if st.Invalidations != 1 || p.Compiled() {
		t.Fatalf("expected invalidation after 2 divergences: %+v", st)
	}

	// The new shape is learned like any other: invalidation wiped the
	// streak, so run 7 observes (the second divergence's fallback already
	// observed once), run 8 records, run 9 replays.
	for i := 0; i < 3; i++ {
		clear(out)
		if err := p.Run(e); err != nil {
			t.Fatal(err)
		}
		check(base + 4)
	}
	if !p.Compiled() {
		t.Fatalf("program did not re-learn the new shape: %+v", p.Stats())
	}
	if st := p.Stats(); st.Hits != 2 || st.Records != 2 {
		t.Fatalf("expected a hit on the re-learned shape after 2 recordings: %+v", st)
	}
}

// TestProgramVetoOnMidBodySuspension checks that shapes the compiled
// engine cannot express — a strand that parks mid-body on Get — veto
// recording and eventually disable compilation, while every run still
// produces correct output live.
func TestProgramVetoOnMidBodySuspension(t *testing.T) {
	e := cleanEngine(t, 4)
	var result int64
	prog := func(c *Context) {
		f := NewFuture()
		c.Spawn(func(c *Context) { f.Put(c, int64(7)) })
		c.Spawn(func(c *Context) { result = f.Get(c).(int64) })
	}
	p := NewProgram(prog, JITConfig{Threshold: 1, MaxRecordVetoes: 100})
	sawVeto := false
	for i := 0; i < 200 && !sawVeto; i++ {
		result = 0
		if err := p.Run(e); err != nil {
			t.Fatal(err)
		}
		if result != 7 {
			t.Fatalf("result = %d, want 7", result)
		}
		st := p.Stats()
		sawVeto = st.Vetoes > 0
		if p.Compiled() {
			// The race resolved before Get on the recording run: the
			// recorded shape is legitimate. Also fine — but then warm
			// runs must keep producing 7 (Get finds the recorded cell
			// resolved, or diverges and falls back).
			result = 0
			if err := p.Run(e); err != nil {
				t.Fatal(err)
			}
			if result != 7 {
				t.Fatalf("warm run result = %d, want 7", result)
			}
			return
		}
	}
	// Either outcome above is a pass; reaching here with a veto observed
	// is the expected common case.
	if !sawVeto {
		t.Fatalf("no veto and no compile in 200 runs: %+v", p.Stats())
	}
}

// TestProgramSyncVetoes checks that an explicit Sync vetoes recording
// permanently (MaxRecordVetoes) and the program keeps running live.
func TestProgramSyncVetoes(t *testing.T) {
	e := cleanEngine(t, 2)
	var total int64
	body := func(c *Context) {
		var a, b int64
		c.Spawn(func(*Context) { a = 2 })
		c.Spawn(func(*Context) { b = 3 })
		c.Sync()
		total = a + b
	}
	p := NewProgram(body, JITConfig{Threshold: 1, MaxRecordVetoes: 2})
	for i := 0; i < 6; i++ {
		total = 0
		if err := p.Run(e); err != nil {
			t.Fatal(err)
		}
		if total != 5 {
			t.Fatalf("run %d: total = %d, want 5", i, total)
		}
	}
	st := p.Stats()
	if p.Compiled() {
		t.Fatalf("Sync-bearing program compiled: %+v", st)
	}
	if st.Vetoes < 2 {
		t.Fatalf("expected ≥2 vetoes, got %+v", st)
	}
	if st.Records > 2 {
		t.Fatalf("recording kept re-arming past MaxRecordVetoes: %+v", st)
	}
}

// TestProgramConcurrentRuns hammers one Program from several goroutines:
// bindings are capped, overflow runs go live, and every bookkeeping path
// (observe, record, replay, capacity miss) must be race-clean. Bodies are
// effect-free except for the Future the recorded closures capture: its
// Put makes the recording exclusive, so replays never overlap on that
// cell and the test is clean under -race (it was not while two bindings
// could replay at once).
func TestProgramConcurrentRuns(t *testing.T) {
	e := cleanEngine(t, 4)
	body := func(c *Context) {
		f := NewFuture()
		c.SpawnForRange(func(*Context, int64) {}, 0, 32)
		c.SpawnFor(func(c *Context, _ int64) { f.Put(c, nil) }, 1)
		c.SpawnFor(func(*Context, int64) {}, 2, f)
	}
	p := NewProgram(body, JITConfig{MaxBindings: 2})
	const (
		goroutines = 4
		runs       = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				if err := p.Run(e); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Runs != goroutines*runs {
		t.Fatalf("runs = %d, want %d (%+v)", st.Runs, goroutines*runs, st)
	}
}

// TestProgramPutRecordingIsExclusive pins the capture rule of Program: a
// recording whose strands resolve a future hands out one binding however
// many MaxBindings allows, a Put-free one hands out several.
func TestProgramPutRecordingIsExclusive(t *testing.T) {
	e := cleanEngine(t, 2)
	warm := func(body Task) *Program {
		p := NewProgram(body, JITConfig{Threshold: 1, MaxBindings: 4})
		for i := 0; i < 4 && !p.Compiled(); i++ {
			if err := p.Run(e); err != nil {
				t.Fatal(err)
			}
		}
		if !p.Compiled() {
			t.Fatalf("program never compiled: %+v", p.Stats())
		}
		return p
	}
	second := func(p *Program) *binding {
		first := p.takeBinding(e)
		if first == nil {
			t.Fatal("no binding for a compiled program")
		}
		defer p.putBinding(first)
		return p.takeBinding(e)
	}
	withPut := warm(func(c *Context) {
		f := NewFuture()
		c.SpawnFor(func(c *Context, _ int64) { f.Put(c, nil) }, 1)
		c.SpawnFor(func(*Context, int64) {}, 2, f)
	})
	if b := second(withPut); b != nil {
		t.Fatal("a recording that resolves a captured future handed out two bindings")
	}
	if st := withPut.Stats(); st.CapacityMisses != 1 {
		t.Fatalf("capacity misses = %d, want 1", st.CapacityMisses)
	}
	putFree := warm(func(c *Context) { c.SpawnForRange(func(*Context, int64) {}, 0, 8) })
	if b := second(putFree); b == nil {
		t.Fatal("a Put-free recording refused a second binding below MaxBindings")
	}
}

// TestProgramSharedFutureVetoes checks that a dependency on a future
// resolved outside the program (cross-run identity) vetoes recording:
// the recorded graph could never resolve it.
func TestProgramSharedFutureVetoes(t *testing.T) {
	e := cleanEngine(t, 2)
	ext := NewFuture()
	ext.Put(nil, int64(9))
	var got int64
	body := func(c *Context) {
		c.SpawnFor(func(c *Context, _ int64) { got = ext.Get(c).(int64) }, 0, ext)
	}
	p := NewProgram(body, JITConfig{Threshold: 1, MaxRecordVetoes: 1})
	for i := 0; i < 4; i++ {
		got = 0
		if err := p.Run(e); err != nil {
			t.Fatal(err)
		}
		if got != 9 {
			t.Fatalf("got %d, want 9", got)
		}
	}
	if p.Compiled() {
		t.Fatal("program gated on an external future compiled")
	}
	if st := p.Stats(); st.Vetoes == 0 {
		t.Fatalf("expected a veto, got %+v", st)
	}
}

// TestProgramShapeKeyDistinguishesArgs checks the observation hash sees
// spawn arguments: alternating argument sets never build a streak.
func TestProgramShapeKeyDistinguishesArgs(t *testing.T) {
	e := cleanEngine(t, 2)
	arg := int64(0)
	var sink int64
	body := func(c *Context) {
		c.SpawnFor(func(c *Context, x int64) { sink = x }, arg)
	}
	p := NewProgram(body, JITConfig{Threshold: 2})
	for i := 0; i < 10; i++ {
		arg = int64(i % 2)
		if err := p.Run(e); err != nil {
			t.Fatal(err)
		}
	}
	if p.Compiled() {
		t.Fatalf("alternating shapes compiled: %+v", p.Stats())
	}
	if st := p.Stats(); st.Records != 0 {
		t.Fatalf("alternating shapes armed a recording: %+v", st)
	}
	_ = sink
}

// TestProgramReplayGraphShape sanity-checks the compiled artifact: the
// recorded DAG of a known program has the expected strand count.
func TestProgramReplayGraphShape(t *testing.T) {
	e := cleanEngine(t, 2)
	const k = 10
	out := make([]int64, k)
	var sum int64
	p := NewProgram(gatedSquares(out, &sum))
	for i := 0; i < 3; i++ {
		if err := p.Run(e); err != nil {
			t.Fatal(err)
		}
	}
	p.mu.Lock()
	rec := p.rec
	p.mu.Unlock()
	if rec == nil {
		t.Fatalf("no recording: %+v", p.Stats())
	}
	// Root + k workers + 1 reducer.
	if len(rec.strands) != k+2 {
		t.Fatalf("recorded %d strands, want %d", len(rec.strands), k+2)
	}
	// The reducer must carry a dependency on the last worker (its Put).
	var reducer *recStrand
	for _, rs := range rec.strands {
		if len(rs.deps) > 0 {
			if reducer != nil {
				t.Fatalf("two strands with deps: %d and %d", reducer.idx, rs.idx)
			}
			reducer = rs
		}
	}
	if reducer == nil {
		t.Fatal("no recorded strand carries the future dependency")
	}
}

// TestSpawnForRange covers the batch spawner's edges: empty range,
// single element, a range crossing several frame slabs, and nesting.
func TestSpawnForRange(t *testing.T) {
	e := cleanEngine(t, 4)
	for _, n := range []int{0, 1, 31, 32, 33, 64, 1000} {
		out := make([]int64, n)
		err := Run(e, func(c *Context) {
			c.SpawnForRange(func(c *Context, x int64) { out[x] = x + 1 }, 0, int64(n))
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != int64(i+1) {
				t.Fatalf("n=%d: out[%d] = %d", n, i, v)
			}
		}
	}
	// Nested: each outer child fans out its own range.
	const outer, inner = 8, 50
	var cnt [outer * inner]int64
	err := Run(e, func(c *Context) {
		c.SpawnForRange(func(c *Context, o int64) {
			c.SpawnForRange(func(c *Context, i int64) {
				cnt[o*inner+i]++
			}, 0, inner)
		}, 0, outer)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range cnt {
		if v != 1 {
			t.Fatalf("cnt[%d] = %d, want 1", i, v)
		}
	}
}

func TestProgramStatsString(t *testing.T) {
	// ProgramStats is a plain struct; keep %+v readable in failures.
	s := fmt.Sprintf("%+v", ProgramStats{Runs: 3, Hits: 1})
	if s == "" {
		t.Fatal("empty stats formatting")
	}
}
