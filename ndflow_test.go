package ndflow_test

import (
	"strings"
	"sync/atomic"
	"testing"

	ndflow "github.com/ndflow/ndflow"
)

// TestPaperMainExample drives the public API through the paper's Figure 3
// program: MAIN = F FG~> G with F = A;B, G = C;D and the rule
// +FG~>- = {+1 ; -1}.
func TestPaperMainExample(t *testing.T) {
	var order []string
	var mu atomic.Int32
	step := func(name string) func() {
		return func() {
			for !mu.CompareAndSwap(0, 1) {
			}
			order = append(order, name)
			mu.Store(0)
		}
	}
	a := ndflow.Strand("A", 3, nil, nil, step("A"))
	b := ndflow.Strand("B", 5, nil, nil, step("B"))
	c := ndflow.Strand("C", 7, nil, nil, step("C"))
	d := ndflow.Strand("D", 2, nil, nil, step("D"))
	main := ndflow.Fire("FG", ndflow.Seq(a, b), ndflow.Seq(c, d))
	rules := ndflow.RuleSet{"FG": {ndflow.R("1", ndflow.FullDep, "1")}}

	p, err := ndflow.NewProgram(main, rules)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ndflow.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	if w := ndflow.Work(p); w != 17 {
		t.Errorf("work = %d, want 17", w)
	}
	if s := ndflow.Span(g); s != 12 {
		t.Errorf("span = %d, want 12 (the paper's §2 analysis)", s)
	}
	cp := ndflow.CriticalPath(g)
	var names []string
	for _, n := range cp {
		names = append(names, n.Label)
	}
	if got := strings.Join(names, ""); got != "ACD" {
		t.Errorf("critical path = %q, want ACD", got)
	}
	if err := ndflow.Run(g, 4); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("executed %d strands: %v", len(order), order)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if pos["A"] > pos["B"] || pos["C"] > pos["D"] || pos["A"] > pos["C"] {
		t.Errorf("execution order %v violates dependencies", order)
	}
}

func TestCheckDependencies(t *testing.T) {
	w := ndflow.Strand("w", 1, nil, ndflow.Words(0, 8), nil)
	r := ndflow.Strand("r", 1, ndflow.Words(0, 8), nil, nil)
	p, err := ndflow.NewProgram(ndflow.Par(w, r), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ndflow.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	_, checkErr := ndflow.CheckDependencies(g)
	if checkErr == nil {
		t.Fatal("racy program accepted")
	}
	var uc *ndflow.UncoveredError
	if !errorsAs(checkErr, &uc) {
		t.Fatalf("error type = %T", checkErr)
	}
	if uc.Violations == 0 {
		t.Fatal("violation count missing")
	}
}

func errorsAs(err error, target **ndflow.UncoveredError) bool {
	if e, ok := err.(*ndflow.UncoveredError); ok {
		*target = e
		return true
	}
	return false
}

func TestSimulatePolicies(t *testing.T) {
	a := ndflow.Strand("a", 10, nil, ndflow.Words(0, 16), nil)
	b := ndflow.Strand("b", 10, ndflow.Words(0, 16), nil, nil)
	p, err := ndflow.NewProgram(ndflow.Seq(a, b), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ndflow.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	spec := ndflow.MachineSpec{
		ProcsPerL1: 1,
		Caches: []ndflow.CacheSpec{
			{Size: 32, Fanout: 2, MissCost: 1},
		},
		MemMissCost: 10,
	}
	for _, policy := range []string{"sb", "ws"} {
		res, err := ndflow.Simulate(g, spec, policy)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if res.Makespan <= 0 || res.Strands != 2 {
			t.Fatalf("%s: result %+v", policy, res)
		}
	}
	if _, err := ndflow.Simulate(g, spec, "lottery"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestEngineThroughFacade exercises the serving API: an explicit engine
// with Submit handles and cached Engine.Run, plus ndflow.Run's
// package-default-engine path (workers ≤ 0).
func TestEngineThroughFacade(t *testing.T) {
	var runs atomic.Int32
	body := func() { runs.Add(1) }
	a := ndflow.Strand("a", 1, nil, ndflow.Words(0, 4), body)
	b := ndflow.Strand("b", 1, ndflow.Words(0, 4), nil, body)
	p, err := ndflow.NewProgram(ndflow.Seq(a, b), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ndflow.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}

	e := ndflow.NewEngine(2)
	defer e.Close()
	var sub *ndflow.Submission
	if sub, err = e.Submit(g); err != nil {
		t.Fatal(err)
	}
	if err := sub.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // cached program path
		if err := e.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := ndflow.Run(g, 0); err != nil { // package-default engine
		t.Fatal(err)
	}
	if got := runs.Load(); got != 10 {
		t.Fatalf("strand bodies ran %d times, want 10", got)
	}
}

// TestTracedEngineThroughFacade drives an engine option through the
// façade: a traced engine runs the program and stitches one trace for
// the one run.
func TestTracedEngineThroughFacade(t *testing.T) {
	var runs atomic.Int32
	body := func() { runs.Add(1) }
	a := ndflow.Strand("a", 1, nil, ndflow.Words(0, 4), body)
	b := ndflow.Strand("b", 1, ndflow.Words(0, 4), nil, body)
	p, err := ndflow.NewProgram(ndflow.Seq(a, b), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := ndflow.NewTracer()
	e := ndflow.NewEngine(2, ndflow.WithTracing(tr))
	defer e.Close()
	if e.Tracer() != tr {
		t.Fatal("engine does not report the tracer it was armed with")
	}
	if err := e.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("strand bodies ran %d times, want 2", got)
	}
	traces := tr.Take()
	if len(traces) != 1 {
		t.Fatalf("took %d traces after one run, want 1", len(traces))
	}
	if len(traces[0].Events) == 0 {
		t.Fatal("the run's trace recorded no events")
	}
}

func TestDOTThroughFacade(t *testing.T) {
	a := ndflow.Strand("a", 1, nil, nil, nil)
	b := ndflow.Strand("b", 1, nil, nil, nil)
	p, err := ndflow.NewProgram(ndflow.Seq(a, b), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ndflow.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := ndflow.WriteSpawnTreeDOT(&sb, p, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph") {
		t.Fatal("no DOT output")
	}
}

// TestDynamicThroughFacade drives the dynamic API end to end through the
// public surface: nested spawn/sync, future gating, a suspending Get, an
// explicit submission handle, and the package-default engine.
func TestDynamicThroughFacade(t *testing.T) {
	f := ndflow.NewFuture()
	var got atomic.Int64
	if err := ndflow.RunDynamic(nil, func(c *ndflow.TaskContext) {
		c.Spawn(func(c *ndflow.TaskContext) { f.Put(c, int64(21)) })
		c.SpawnAfter(func(c *ndflow.TaskContext) {
			got.Add(f.Get(c).(int64))
		}, f)
		got.Add(f.Get(c).(int64)) // may suspend; resolved by the child
		c.Sync()
	}); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 42 {
		t.Fatalf("got %d, want 42", got.Load())
	}

	eng := ndflow.NewEngine(2)
	defer eng.Close()
	done := ndflow.NewFuture()
	sub, err := ndflow.SubmitDynamic(eng, func(c *ndflow.TaskContext) {
		done.Put(c, done.Resolved()) // resolved-state check from task context
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Wait(); err != nil {
		t.Fatal(err)
	}
	if v, ok := done.TryGet(); !ok || v != false {
		t.Fatalf("TryGet = %v,%v", v, ok)
	}
}
