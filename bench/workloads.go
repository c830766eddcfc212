package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
)

// workloadNames fixes the order everything is printed in.
var workloadNames = []string{"sched-replay", "live-kernels", "cold-pipeline", "serve-mix"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "sched-replay":
		return &schedReplay{}, nil
	case "live-kernels":
		return &liveKernels{}, nil
	case "cold-pipeline":
		return &coldPipeline{}, nil
	case "serve-mix":
		return &serveMix{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// warmCycles is how many cycles a set-up runs before it counts as done:
// the first compiles every program through the engine's cache, the next
// two fill the instance and run-state pools.
const warmCycles = 3

// counter is an atomic the workers add to, on a cache line of its own.
type counter struct {
	atomic.Int64
	_ [56]byte
}

// timedBody wraps a strand closure so the time spent inside it is added
// to ns.
func timedBody(body func(), ns *counter) func() {
	return func() {
		t := time.Now()
		body()
		ns.Add(int64(time.Since(t)))
	}
}

// bodyTimers swaps the strand closures of long-lived programs for timed
// wrappers in traced windows and back afterwards; untraced windows run
// the programs' own closures. One counter per program, so programs in
// flight together do not share a line. Only every stride-th strand of a
// program is wrapped and the sum scaled up: a program's strands are all
// the same block update, and serve-mix's are so short (tens of
// nanoseconds) that two clock reads around each one would cost a tenth of
// the cycle.
type bodyTimers struct {
	stride int
	progs  []*bodyTimer
}

type bodyTimer struct {
	ns    counter
	prog  *core.Program
	saved []func()
}

func (bs *bodyTimers) add(p *core.Program) {
	b := &bodyTimer{prog: p, saved: make([]func(), len(p.Leaves))}
	for i, l := range p.Leaves {
		b.saved[i] = l.Run
	}
	bs.progs = append(bs.progs, b)
}

func (bs *bodyTimers) set(on bool) {
	for _, b := range bs.progs {
		for i, l := range b.prog.Leaves {
			switch orig := b.saved[i]; {
			case orig == nil:
			case on && i%bs.stride == 0:
				l.Run = timedBody(orig, &b.ns)
			default:
				l.Run = orig
			}
		}
	}
}

func (bs *bodyTimers) total() (ns int64) {
	for _, b := range bs.progs {
		ns += b.ns.Load()
	}
	return ns * int64(bs.stride)
}

// runProgram is Engine.Run spelled as its two halves so each gets its
// own span: SubmitProgram (program-cache lookup, instance pool, inject)
// and Wait.
func runProgram(e *exec.Engine, p *core.Program, r *rec) error {
	s := r.begin(lExec, "SubmitProgram")
	run, err := e.SubmitProgram(p)
	r.end(s)
	if err != nil {
		return err
	}
	s = r.begin(lExec, "Wait")
	err = run.Wait()
	r.end(s)
	return err
}

func startEngine(workers int, r *rec, opts []exec.Option) *exec.Engine {
	s := r.begin(lExec, "NewEngine")
	e := exec.NewEngine(workers, opts...)
	r.end(s)
	return e
}

func closeEngine(e *exec.Engine, r *rec) {
	s := r.begin(lExec, "Close")
	e.Close()
	r.end(s)
}

func buildProblem(in *input, r *rec) (*problem, error) {
	s := r.begin(lAlgos, "build")
	p, err := in.build(algos.ND)
	r.end(s)
	return p, err
}

// ---------------------------------------------------------------- sched-replay

// schedRuns is the number of engine runs in one sched-replay cycle.
const schedRuns = 8

// schedReplay: one cached nil-body LCS 256/4 program (4096 strands, a
// two-dimensional wavefront), schedRuns runs a cycle, all submitted
// before the first is waited for. internal/exec does all the work.
//
// Both choices are what measuring on a shared 2-vCPU box allows. Run one
// at a time, each run at W = 2 is a coin toss between one worker draining
// it alone and two workers contending for it, decided by how fast the
// host wakes the parked worker's thread, and the mix drifts from second
// to second; in flight together, the runs keep both workers busy for the
// whole cycle. And the repository's classic yardstick, nil-body FW-1D
// 256/4, runs no faster on two workers than on one however it is
// submitted, 10 % apart from one set-up to the next: no statistic of it
// repeats (README, "What would not repeat"). It is still measured, by
// probes, as exec.fw1d_run_us and exec.fw1d_run_us_w1.
type schedReplay struct{ in, fw *input }

func (w *schedReplay) prepare(seed int64) (err error) {
	if w.in, err = newInput(spec{kLCS, 256, 4}, seed); err != nil {
		return err
	}
	w.fw, err = newInput(spec{kFW, 256, 4}, seed)
	return err
}

func (w *schedReplay) specs() []progSpec {
	return []progSpec{{in: w.in, nilBody: true, perCycle: schedRuns}}
}

type schedInst struct {
	e    *exec.Engine
	prog *core.Program
	runs [schedRuns]*exec.Run
	fw   *input
}

func (w *schedReplay) setup(workers int, r *rec, a *acct, opts ...exec.Option) (instance, error) {
	p, err := buildProblem(w.in, r)
	if err != nil {
		return nil, err
	}
	stripBodies(p.prog)
	in := &schedInst{e: startEngine(workers, r, opts), prog: p.prog, fw: w.fw}
	for i := 0; i < warmCycles; i++ {
		in.cycle(r, a)
	}
	return in, nil
}

func (in *schedInst) cycle(r *rec, a *acct) time.Duration {
	t := a.begin()
	for i := range in.runs {
		s := r.begin(lExec, "SubmitProgram")
		run, err := in.e.SubmitProgram(in.prog)
		r.end(s)
		if err != nil {
			a.done(err, false)
		}
		in.runs[i] = run
	}
	for _, run := range in.runs {
		if run == nil {
			continue
		}
		a.begin() // re-arm the deadline: this Wait is what can hang
		s := r.begin(lExec, "Wait")
		err := run.Wait()
		r.end(s)
		a.done(err, true) // nil bodies: the run's own error is the whole verdict
	}
	return time.Since(t)
}

func (in *schedInst) engine() *exec.Engine { return in.e }
func (in *schedInst) timeBodies(bool)      {}
func (in *schedInst) bodyNS() int64        { return 0 }
func (in *schedInst) strandsPerCycle() int { return schedRuns * len(in.prog.Leaves) }
func (in *schedInst) close(r *rec)         { closeEngine(in.e, r) }

// probes times the run this workload was first specified as and could
// not keep: nil-body FW-1D 256/4, one run at a time, at W workers and at
// one. At W = 2 the first is the slower of the two.
func (in *schedInst) probes(k int, v map[string]float64, a *acct) {
	for name, workers := range map[string]int{"exec.fw1d_run_us": in.e.Workers(), "exec.fw1d_run_us_w1": 1} {
		p, err := in.fw.build(algos.ND)
		if err != nil {
			a.done(err, false)
			continue
		}
		stripBodies(p.prog)
		e := exec.NewEngine(workers)
		run := func() (error, bool) { return runProgram(e, p.prog, nil), true }
		timeOps(warmCycles, a, nil, run)
		v[name] = med(timeOps(k, a, nil, run)) / 1e3
		e.Close()
	}
}

// ---------------------------------------------------------------- live-kernels

var liveSpecs = []spec{
	{kMM, 128, 16}, {kTRS, 128, 16}, {kCholesky, 256, 32},
	{kLU, 128, 16}, {kFW, 512, 16}, {kLCS, 512, 16},
}

// liveKernels: one live-body run of each of six problems on a long-lived
// engine. The kernels dominate; per-strand scheduling cost is a few
// percent of the cycle.
type liveKernels struct{ ins []*input }

func prepareInputs(specs []spec, seed int64) ([]*input, error) {
	ins := make([]*input, len(specs))
	for i, s := range specs {
		var err error
		if ins[i], err = newInput(s, seed+int64(i)); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

func (w *liveKernels) prepare(seed int64) (err error) {
	w.ins, err = prepareInputs(liveSpecs, seed)
	return err
}

func (w *liveKernels) specs() []progSpec {
	ps := make([]progSpec, len(w.ins))
	for i, in := range w.ins {
		ps[i] = progSpec{in: in, perCycle: 1}
	}
	return ps
}

type liveInst struct {
	e      *exec.Engine
	probs  []*problem
	timers bodyTimers
}

func (w *liveKernels) setup(workers int, r *rec, a *acct, opts ...exec.Option) (instance, error) {
	in := &liveInst{timers: bodyTimers{stride: 1}}
	for _, inp := range w.ins {
		p, err := buildProblem(inp, r)
		if err != nil {
			return nil, err
		}
		p.keepInit()
		in.probs = append(in.probs, p)
		in.timers.add(p.prog)
	}
	in.e = startEngine(workers, r, opts)
	for i := 0; i < warmCycles; i++ {
		in.cycle(r, a)
	}
	return in, nil
}

func (in *liveInst) cycle(r *rec, a *acct) time.Duration {
	var timed time.Duration
	for _, p := range in.probs {
		s := r.beginUntimed("restore")
		p.restore()
		r.end(s)

		t := a.begin()
		op := r.begin(lHarness, string(p.in.spec.kind))
		err := runProgram(in.e, p.prog, r)
		r.end(op)
		timed += time.Since(t)

		s = r.beginUntimed("verify")
		ok := err != nil || p.verify()
		r.end(s)
		a.done(err, ok)
	}
	return timed
}

func (in *liveInst) engine() *exec.Engine { return in.e }

func (in *liveInst) timeBodies(on bool) { in.timers.set(on) }
func (in *liveInst) bodyNS() int64      { return in.timers.total() }

func (in *liveInst) strandsPerCycle() (n int) {
	for _, p := range in.probs {
		n += len(p.prog.Leaves)
	}
	return n
}

func (in *liveInst) close(r *rec) { closeEngine(in.e, r) }

// ---------------------------------------------------------------- cold-pipeline

var coldSpecs = []spec{
	{kMM, 16, 4}, {kTRS, 32, 4}, {kCholesky, 32, 4}, {kLU, 32, 4},
	{kFW, 64, 4}, {kLCS, 64, 4}, {kStencil, 64, 4},
}

// coldFW indexes the spec that is also run once through the engine's
// program cache, as a miss.
const coldFW = 4

// coldCacheCap bounds the cold engine's program cache and instance
// pools. Every window runs on a fresh set-up (harness.go), which lives
// for some forty cycles; at the default cap of 256 the cache would never
// fill, and the eviction path would go unmeasured.
const coldCacheCap = 8

// coldPipeline: every cycle builds each of seven small problems from
// nothing and runs it once — build, NewProgram, Rewrite, NewInstance,
// SubmitInstance, Wait, the path ndflow.Run takes — retaining nothing,
// then submits one more fresh FW-1D program through Engine.Run, which
// misses the program cache, inserts, and (past coldCacheCap entries)
// evicts. Construction, internal/core and allocation dominate; a second
// worker buys nothing.
type coldPipeline struct{ ins []*input }

func (w *coldPipeline) prepare(seed int64) (err error) {
	w.ins, err = prepareInputs(coldSpecs, seed)
	return err
}

func (w *coldPipeline) specs() []progSpec {
	ps := make([]progSpec, len(w.ins))
	for i, in := range w.ins {
		ps[i] = progSpec{in: in, perCycle: 1}
	}
	ps[coldFW].perCycle = 2
	return ps
}

type coldInst struct {
	e       *exec.Engine
	ins     []*input
	timing  bool
	body    counter // one for all: the programs live one cycle each
	strands int
}

func (w *coldPipeline) setup(workers int, r *rec, a *acct, opts ...exec.Option) (instance, error) {
	in := &coldInst{e: startEngine(workers, r, opts), ins: w.ins}
	in.e.SetCacheCap(coldCacheCap)
	for i := 0; i < warmCycles; i++ {
		in.cycle(r, a)
	}
	return in, nil
}

// build makes one fresh problem and, in traced windows, wraps its strand
// closures (harness time: it sits in a harness span and counts against
// harness.span_overhead_x).
func (in *coldInst) build(inp *input, r *rec) (*problem, error) {
	p, err := buildProblem(inp, r)
	if err == nil && in.timing {
		s := r.begin(lHarness, "wrap-bodies")
		for _, l := range p.prog.Leaves {
			if l.Run != nil {
				l.Run = timedBody(l.Run, &in.body)
			}
		}
		r.end(s)
	}
	return p, err
}

// runOnce is the uncached path: Rewrite (which compiles), the wake-graph
// collapse, fresh run state, one submission.
func (in *coldInst) runOnce(p *problem, r *rec) error {
	s := r.begin(lCore, "Rewrite")
	g, err := core.Rewrite(p.prog)
	r.end(s)
	if err != nil {
		return err
	}
	s = r.begin(lCore, "Wake")
	g.Exec().Wake()
	r.end(s)
	s = r.begin(lExec, "NewInstance")
	inst := exec.NewInstance(g.Exec())
	r.end(s)
	s = r.begin(lExec, "SubmitInstance")
	run, err := in.e.SubmitInstance(inst)
	r.end(s)
	if err != nil {
		return err
	}
	s = r.begin(lExec, "Wait")
	err = run.Wait()
	r.end(s)
	return err
}

// op is one cold op: build the problem, run it (through the engine's
// program cache when cached, else on the uncached path), verify it.
func (in *coldInst) op(inp *input, name string, cached bool, r *rec, a *acct) time.Duration {
	t := a.begin()
	op := r.begin(lHarness, name)
	p, err := in.build(inp, r)
	switch {
	case err != nil:
	case cached:
		err = runProgram(in.e, p.prog, r)
	default:
		err = in.runOnce(p, r)
	}
	r.end(op)
	d := time.Since(t)

	s := r.beginUntimed("verify")
	ok := err != nil || p.verify()
	r.end(s)
	a.done(err, ok)
	if p != nil {
		in.strands += len(p.prog.Leaves)
	}
	return d
}

func (in *coldInst) cycle(r *rec, a *acct) time.Duration {
	var timed time.Duration
	in.strands = 0
	for _, inp := range in.ins {
		timed += in.op(inp, string(inp.spec.kind), false, r, a)
	}
	return timed + in.op(in.ins[coldFW], "fw1d-cache-miss", true, r, a)
}

func (in *coldInst) engine() *exec.Engine { return in.e }
func (in *coldInst) timeBodies(on bool)   { in.timing = on }
func (in *coldInst) bodyNS() int64        { return in.body.Load() }
func (in *coldInst) strandsPerCycle() int { return in.strands }
func (in *coldInst) close(r *rec)         { closeEngine(in.e, r) }
