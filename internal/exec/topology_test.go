package exec

import (
	"testing"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/footprint"
	"github.com/ndflow/ndflow/internal/pmh"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// topoSpec4 is a 4-worker, two-level hierarchy: private L1s (σ-budget 10
// words, anchoring threshold 2), L2s shared by pairs (σ-budget 300
// words, anchoring threshold 75).
func topoSpec4() pmh.Spec {
	return pmh.Spec{
		ProcsPerL1: 1,
		Caches: []pmh.CacheSpec{
			{Size: 30, Fanout: 2, MissCost: 1},
			{Size: 900, Fanout: 2, MissCost: 10},
		},
		MemMissCost: 100,
	}
}

func TestTopologyConstruction(t *testing.T) {
	topo, err := NewTopology(topoSpec4(), 4, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	if topo.levels != 2 || topo.workers != 4 {
		t.Fatalf("levels/workers = %d/%d", topo.levels, topo.workers)
	}
	if topo.span[0] != 1 || topo.span[1] != 2 {
		t.Fatalf("spans = %v, want [1 2]", topo.span)
	}
	if topo.budget[0] != 10 || topo.budget[1] != 300 {
		t.Fatalf("budgets = %v, want [10 300]", topo.budget)
	}
	// Worker 2 sits in L1 domain 2 and L2 domain 1.
	if topo.domainOf[0][2] != 2 || topo.domainOf[1][2] != 1 {
		t.Fatalf("domainOf[.][2] = %d,%d", topo.domainOf[0][2], topo.domainOf[1][2])
	}
	// Victim tiers for worker 0: L2 sibling {1} first, then the far pair.
	tiers := topo.tiers[0]
	if len(tiers) != 2 || len(tiers[0]) != 1 || tiers[0][0] != 1 {
		t.Fatalf("tiers[0] = %v, want [[1] [2 3]]", tiers)
	}
	if len(tiers[1]) != 2 || tiers[1][0] != 2 || tiers[1][1] != 3 {
		t.Fatalf("far tier = %v, want [2 3]", tiers[1])
	}
	// L1-domain claim order for worker 2: own L1 (2), its L2 mate (3),
	// then the far pair.
	order := topo.order[0][2]
	want := []int32{2, 3, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("claim order for worker 2 = %v, want %v", order, want)
		}
	}
	// Exhaustiveness: every other worker appears in some tier.
	seen := map[int]bool{}
	for _, tier := range topo.tiers[3] {
		for _, v := range tier {
			seen[v] = true
		}
	}
	if len(seen) != 3 || seen[3] {
		t.Fatalf("tiers for worker 3 cover %v", seen)
	}
}

func TestTopologyRejectsMismatch(t *testing.T) {
	if _, err := NewTopology(topoSpec4(), 6, 0); err == nil {
		t.Fatal("6 workers accepted on a 4-processor spec")
	}
	bad := pmh.Spec{ProcsPerL1: 0, Caches: []pmh.CacheSpec{{Size: 8, Fanout: 2, MissCost: 1}}}
	if _, err := NewTopology(bad, 0, 0); err == nil {
		t.Fatal("invalid spec accepted")
	}
	topo, err := NewTopology(topoSpec4(), 0, 2.0)
	if err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	if topo.Workers() != 4 || topo.sigma != 1.0/3 {
		t.Fatalf("workers/sigma = %d/%v, want the spec's 4 processors and the default 1/3", topo.Workers(), topo.sigma)
	}
}

// planProgram builds par(g1, g2) where each group is a seq of strands
// over a disjoint 60-word region: the root footprint (120 words) exceeds
// the L2 anchoring threshold (σ·900/4 = 75 words), each group fits it,
// so the plan must anchor the two groups as separate tasks at the L2
// level.
func planProgram(t *testing.T) *core.Graph {
	t.Helper()
	group := func(base int64) *core.Node {
		strands := make([]*core.Node, 6)
		for i := range strands {
			lo := base + int64(i)*10
			// Live (if trivial) bodies: the plan only anchors tasks whose
			// strands execute code.
			strands[i] = core.NewStrand("s", 1, footprint.Single(base, base+10), footprint.Single(lo, lo+10), func() {})
		}
		return core.NewSeq(strands...)
	}
	p, err := core.NewProgram(core.NewPar(group(0), group(1000)), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPlanAnchorsOutermostFittingTasks(t *testing.T) {
	topo, err := NewTopology(topoSpec4(), 4, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	g := planProgram(t)
	plan := topo.plan(g.Exec())
	if len(plan.tasks) != 2 {
		t.Fatalf("plan has %d anchor tasks, want 2 (one per 60-word group)", len(plan.tasks))
	}
	for i, task := range plan.tasks {
		if task.level != 1 {
			t.Errorf("task %d anchored at level %d, want L2 (index 1)", i, task.level)
		}
		if task.size != 60 || task.strands != 6 {
			t.Errorf("task %d: size %d strands %d, want 60/6", i, task.size, task.strands)
		}
	}
	// Strands 0..5 belong to task 0, strands 6..11 to task 1.
	for s := 0; s < 12; s++ {
		want := int32(0)
		if s >= 6 {
			want = 1
		}
		if plan.anchorOf[s] != want {
			t.Fatalf("anchorOf[%d] = %d, want %d", s, plan.anchorOf[s], want)
		}
	}
	// The plan is cached per graph.
	if topo.plan(g.Exec()) != plan {
		t.Fatal("plan not cached")
	}
}

func TestPlanSkipsUnanchorableTasks(t *testing.T) {
	topo, err := NewTopology(topoSpec4(), 4, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-footprint strands anchor nowhere; newState elides the whole
	// locality path for such graphs.
	a := core.NewStrand("a", 1, nil, nil, nil)
	b := core.NewStrand("b", 1, nil, nil, nil)
	p, err := core.NewProgram(core.NewPar(a, b), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := core.MustRewrite(p)
	if st := topo.newState(g.Exec()); st != nil {
		t.Fatalf("zero-footprint graph got anchoring state: %+v", st.plan.tasks)
	}
	// Declared footprints with stripped bodies generate no cache traffic
	// either: scheduling-only replays must run the flat path.
	c := core.NewStrand("c", 1, nil, footprint.Single(0, 8), nil)
	e := core.NewStrand("e", 1, footprint.Single(0, 8), footprint.Single(8, 16), nil)
	p2, err := core.NewProgram(core.NewPar(c, e), nil)
	if err != nil {
		t.Fatal(err)
	}
	g2 := core.MustRewrite(p2)
	if st := topo.newState(g2.Exec()); st != nil {
		t.Fatalf("nil-body graph got anchoring state: %+v", st.plan.tasks)
	}
}

// TestResolveClaimsAndFallsBack drives the claim protocol directly: the
// first claims bind nearest-first under the σ-budget, exhaustion falls
// back to flat, and completions release the budget.
func TestResolveClaimsAndFallsBack(t *testing.T) {
	topo, err := NewTopology(topoSpec4(), 4, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	g := planProgram(t)
	ls := topo.newState(g.Exec())
	if ls == nil {
		t.Fatal("no anchoring state")
	}
	// Worker 0 claims task 0 into its own L2 domain (0); worker 2 claims
	// task 1 into its own domain (1) — nearest-first from each claimer.
	if dom := ls.resolve(0, 0); dom != 0 {
		t.Fatalf("task 0 claimed domain %d, want 0", dom)
	}
	if dom := ls.resolve(1, 2); dom != 1 {
		t.Fatalf("task 1 claimed domain %d, want 1", dom)
	}
	if used := topo.used[1][0].Load(); used != 60 {
		t.Fatalf("domain 0 budget used = %d, want 60", used)
	}
	// Resolve is idempotent.
	if dom := ls.resolve(0, 3); dom != 0 {
		t.Fatalf("re-resolve moved task 0 to domain %d", dom)
	}
	// The σ-budget (300 words per domain) admits 5 sixty-word tasks per
	// domain: four more run states fill both domains (claims walk to the
	// sibling domain when the near one is full), and the eleventh claim
	// finds no budget anywhere — fallback to flat.
	states := []*locState{ls}
	for i := 0; i < 4; i++ {
		s2 := topo.newState(g.Exec())
		states = append(states, s2)
		if dom := s2.resolve(0, 0); dom < 0 {
			t.Fatalf("state %d task 0 fell back with budget free", i)
		}
		if dom := s2.resolve(1, 0); dom < 0 {
			t.Fatalf("state %d task 1 fell back with budget free", i)
		}
	}
	if u0, u1 := topo.used[1][0].Load(), topo.used[1][1].Load(); u0 != 300 || u1 != 300 {
		t.Fatalf("domains hold %d/%d words, want 300/300", u0, u1)
	}
	over := topo.newState(g.Exec())
	if dom := over.resolve(0, 0); dom != domFlat {
		t.Fatalf("exhausted budgets resolved to %d, want flat fallback", dom)
	}
	if topo.met.fallbacks.Value() == 0 {
		t.Fatal("fallback not counted")
	}
	// Completing every strand of every claimed task releases all budget;
	// completing the fallback task releases nothing and must not
	// underflow.
	for _, st := range states {
		for s := int32(0); s < 12; s++ {
			st.complete(s)
		}
	}
	for s := int32(0); s < 12; s++ {
		over.complete(s)
	}
	for k := range topo.used {
		for d := range topo.used[k] {
			if topo.used[k][d].Load() != 0 {
				t.Fatalf("budget leak at level %d domain %d: %d", k, d, topo.used[k][d].Load())
			}
		}
	}
}

// TestLocalityEngineEndToEnd runs a real graph on a traced locality
// engine repeatedly (exercising the pooled anchoring state's reset): the
// moment Wait returns, every σ-budget must be back to zero and the run's
// trace must pair each anchor claim with its release — the last strand of
// an anchor may retire on a worker other than the run's finisher, and
// its release must still land before the run is over.
func TestLocalityEngineEndToEnd(t *testing.T) {
	topo, err := NewTopology(topoSpec4(), 4, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	trc := telemetry.NewTracer()
	e := NewEngine(4, WithTopology(topo), WithTracing(trc))
	defer e.Close()
	g := planProgram(t)
	for run := 0; run < 64; run++ {
		r, err := e.Submit(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for k := range topo.used {
			for d := range topo.used[k] {
				if used := topo.used[k][d].Load(); used != 0 {
					t.Fatalf("run %d: σ-budget leak: level %d domain %d holds %d words", run, k, d, used)
				}
			}
		}
		tr := trc.TakeLast()
		counts := tr.Counts()
		if c, rel := counts[telemetry.EvAnchorClaim], counts[telemetry.EvAnchorRelease]; c != rel {
			t.Fatalf("run %d: trace has %d anchor claims and %d releases", run, c, rel)
		}
		trc.Recycle(tr)
	}
	if e.Metrics().Snapshot().Get(telemetry.MClaims) == 0 {
		t.Fatal("no anchor was ever claimed")
	}
}

// TestMailboxFIFO pins the mailbox's take/compaction behaviour.
func TestMailboxFIFO(t *testing.T) {
	var m mailbox
	for i := int64(0); i < 100; i++ {
		m.push(i)
	}
	var got []int64
	for {
		buf := m.take(7, nil)
		if len(buf) == 0 {
			break
		}
		got = append(got, buf...)
	}
	if len(got) != 100 {
		t.Fatalf("drained %d of 100", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("mailbox not FIFO: got[%d] = %d", i, v)
		}
	}
}
