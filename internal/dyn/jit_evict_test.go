package dyn

import (
	"testing"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// TestProgramDivergenceRecoveryResetsCounter pins the consecutive-runs
// semantics of MaxDivergences: a successful replay between divergences
// resets the invalidation counter, so alternating diverge/recover runs
// keep the recording alive indefinitely, while the same number of
// *consecutive* divergences still invalidates it. Before the fix the
// counter was cumulative, and the second non-consecutive divergence
// (wrongly) dropped the recording.
func TestProgramDivergenceRecoveryResetsCounter(t *testing.T) {
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
	run := func(n int) {
		t.Helper()
		clear(out)
		if err := p.Run(e); err != nil {
			t.Fatal(err)
		}
		check(n)
	}

	for i := 0; i < 4; i++ { // observe ×2, record, warm hit
		run(base)
	}
	if !p.Compiled() {
		t.Fatalf("expected compiled after the ladder: %+v", p.Stats())
	}

	// Alternate divergence and recovery: every diverged replay is
	// followed by a clean one, so the consecutive count never reaches
	// MaxDivergences even though the cumulative count passes it.
	for round := 1; round <= 3; round++ {
		extra = 4
		run(base + 4) // replay diverges, falls back live
		extra = 0
		run(base) // clean replay: must reset the consecutive count
		st := p.Stats()
		if st.Divergences != uint64(round) {
			t.Fatalf("round %d: cumulative divergences = %d, want %d (%+v)", round, st.Divergences, round, st)
		}
		if st.Invalidations != 0 || !p.Compiled() {
			t.Fatalf("round %d: non-consecutive divergences invalidated the recording: %+v", round, st)
		}
	}
	if st := p.Stats(); st.Hits < 4 {
		t.Fatalf("recovery replays did not hit: %+v", st)
	}

	// Consecutive divergences still invalidate: two diverged replays in
	// a row cross MaxDivergences = 2.
	extra = 4
	run(base + 4)
	if st := p.Stats(); st.Invalidations != 0 || !p.Compiled() {
		t.Fatalf("single divergence dropped the recording: %+v", st)
	}
	run(base + 4)
	st := p.Stats()
	if st.Invalidations != 1 || p.Compiled() {
		t.Fatalf("two consecutive divergences must invalidate: %+v", st)
	}
	if st.Divergences != 5 {
		t.Fatalf("cumulative divergences = %d, want 5 (%+v)", st.Divergences, st)
	}
}

// churnGraph builds a small distinct nil-body compiled graph for cache
// churn.
func churnGraph(t *testing.T, width int) *core.Graph {
	t.Helper()
	strands := make([]*core.Node, width)
	for i := range strands {
		strands[i] = core.NewStrand("churn", 1, nil, nil, nil)
	}
	prog, err := core.NewProgram(core.NewPar(strands...), core.RuleSet{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Rewrite(prog)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestProgramReplayDuringEviction audits Engine.SetCacheCap eviction
// against in-flight JIT replays: with the instance-pool cap at 1, a
// second goroutine's submissions evict the Program's binding-graph pool
// entry over and over while warm replays are draining. The binding owns
// its compiled *core.Graph, so eviction must never recompile it or
// invalidate the recording — replays stay correct and keep hitting,
// only the pooled run state is re-allocated. Run under -race in CI.
func TestProgramReplayDuringEviction(t *testing.T) {
	e := cleanEngine(t, 4)
	e.SetCacheCap(1)

	const base = 24
	out := make([]int64, base)
	body := func(c *Context) {
		c.SpawnForRange(func(c *Context, x int64) { out[x] = x + 1 }, 0, base)
	}
	p := NewProgram(body, JITConfig{Threshold: 2, MaxBindings: 1})
	for i := 0; i < 4; i++ { // observe ×2, record, warm hit
		if err := p.Run(e); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Compiled() {
		t.Fatalf("expected compiled before the churn: %+v", p.Stats())
	}
	hitsBefore := p.Stats().Hits

	graphs := []*core.Graph{churnGraph(t, 2), churnGraph(t, 3), churnGraph(t, 4)}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			r, err := e.Submit(graphs[i%len(graphs)])
			if err == nil {
				err = r.Wait()
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	const replays = 200
	for i := 0; i < replays; i++ {
		clear(out)
		if err := p.Run(e); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < base; j++ {
			if out[j] != int64(j+1) {
				t.Fatalf("replay %d: out[%d] = %d, want %d", i, j, out[j], j+1)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	st := p.Stats()
	if st.Invalidations != 0 || st.Divergences != 0 {
		t.Fatalf("eviction churn corrupted the recording: %+v", st)
	}
	if !p.Compiled() {
		t.Fatalf("program lost its recording during eviction churn: %+v", st)
	}
	if st.Hits != hitsBefore+replays {
		t.Fatalf("hits = %d, want %d: replays fell back live during churn (%+v)", st.Hits, hitsBefore+replays, st)
	}
	if e.Metrics().Snapshot().Get(telemetry.MEvictions) == 0 {
		t.Fatal("churn never evicted (cap 1)")
	}
}
