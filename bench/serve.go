package main

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/dyn"
	"github.com/ndflow/ndflow/internal/exec"
)

// serveMix: one shared engine, four runs in flight, thousands of tiny
// runs a second of every kind the engine accepts — cached compiled
// programs, dynamic spawn/join trees, future chains that park, pipelines
// fed from outside the pool, and JIT replays of a dynamic program. The
// same exec layer as sched-replay used the other way: submit, inject,
// finish, slot reuse and park/wake dominate, not the deque hot path.
type serveMix struct {
	ins   []*input // the compiled catalogue, serveCatalogue order
	jitIn *input
	order []serveOp
}

// serveCatalogue is the compiled catalogue: four live programs and four
// nil-body ones, each submitted serveRepeats times a cycle.
var serveCatalogue = []struct {
	spec    spec
	nilBody bool
}{
	{spec{kFW, 32, 4}, false}, {spec{kLCS, 32, 4}, false},
	{spec{kStencil, 32, 4}, false}, {spec{kFW, 64, 4}, false},
	{spec{kMM, 16, 4}, true}, {spec{kTRS, 16, 4}, true},
	{spec{kCholesky, 16, 4}, true}, {spec{kLU, 16, 4}, true},
}

const (
	serveRepeats   = 4 // submissions of each catalogue program per cycle
	serveInFlight  = 4 // runs the submitter keeps in flight
	serveTrees     = 4 // dynamic spawn/join trees per cycle
	serveTreeDepth = 7 // 2^(depth+1)-1 = 255 tasks, 128 leaves
	serveFibs      = 8 // fib(serveFibN) future chains per cycle
	serveFibN      = 24
	serveFibWant   = 46368
	servePipes     = 4 // three-stage pipelines per cycle
	servePipeItems = 8
	servePipeWant  = 204 // 1² + … + 8²
	serveReplays   = 4   // warmed dyn.Program replays per cycle
)

type opKind uint8

const (
	opCompiled opKind = iota
	opTree
	opFib
	opPipe
	opReplay
)

type serveOp struct {
	kind opKind
	prog int // opCompiled: index into the catalogue
}

func (w *serveMix) prepare(seed int64) error {
	specs := make([]spec, len(serveCatalogue))
	for i, c := range serveCatalogue {
		specs[i] = c.spec
	}
	var err error
	if w.ins, err = prepareInputs(specs, seed); err != nil {
		return err
	}
	if w.jitIn, err = newInput(spec{kFW, 64, 4}, seed+100); err != nil {
		return err
	}
	w.order = serveOrder(seed)
	return nil
}

// serveOrder is the cycle's fixed op list, shuffled by the seed under
// one constraint: a live catalogue program never appears twice among any
// serveInFlight consecutive in-flight ops, because two in-flight runs of
// one program would execute the same closures over the same table (the
// engine's documented caveat). Replays block the submitter, so they hold
// no in-flight slot.
func serveOrder(seed int64) []serveOp {
	var all []serveOp
	for p := range serveCatalogue {
		for i := 0; i < serveRepeats; i++ {
			all = append(all, serveOp{opCompiled, p})
		}
	}
	for _, k := range []struct {
		kind opKind
		n    int
	}{{opTree, serveTrees}, {opFib, serveFibs}, {opPipe, servePipes}, {opReplay, serveReplays}} {
		for i := 0; i < k.n; i++ {
			all = append(all, serveOp{kind: k.kind})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	live := func(op serveOp) bool { return op.kind == opCompiled && !serveCatalogue[op.prog].nilBody }
	for {
		rest := append([]serveOp(nil), all...)
		order := make([]serveOp, 0, len(all))
		var flight []serveOp // the ops in flight when the next one is submitted
		for len(rest) > 0 {
			var ok []int
			for i, op := range rest {
				clash := false
				for _, f := range flight {
					clash = clash || (live(op) && f == op)
				}
				if !clash {
					ok = append(ok, i)
				}
			}
			if len(ok) == 0 {
				break // dead end; reshuffle
			}
			i := ok[rng.Intn(len(ok))]
			op := rest[i]
			rest = append(rest[:i], rest[i+1:]...)
			order = append(order, op)
			if op.kind != opReplay {
				if flight = append(flight, op); len(flight) == serveInFlight {
					flight = flight[1:]
				}
			}
		}
		if len(rest) == 0 {
			return order
		}
	}
}

func (w *serveMix) specs() []progSpec {
	ps := make([]progSpec, 0, len(w.ins)+1)
	for i, in := range w.ins {
		ps = append(ps, progSpec{in: in, nilBody: serveCatalogue[i].nilBody, perCycle: serveRepeats})
	}
	return append(ps, progSpec{in: w.jitIn, perCycle: serveReplays})
}

// flightSlot is the state of one in-flight position. The dynamic task
// closures are built once per slot and read the slot's cells when they
// run, so an op allocates its futures and nothing else on the harness
// side.
type flightSlot struct {
	op     serveOp
	run    *exec.Run
	leaves counter      // spawn/join: leaves executed
	cells  []dyn.Future // fib: 0..serveFibN; pipeline: 4 rows of servePipeItems

	tree dyn.Task
	fib  dyn.Task
	pipe dyn.Task
}

type serveInst struct {
	e       *exec.Engine
	release func()
	probs   []*problem
	timers  bodyTimers
	jitProb *problem
	jitEG   *core.ExecGraph
	jitDeps [][]int32
	jit     *dyn.Program
	order   []serveOp
	slots   [serveInFlight]flightSlot
	head, n int
	// okRuns counts, per live table (catalogue index, last = the JIT
	// program's), the runs of this cycle that returned nil; they are
	// booked as ops once the table has been verified at the cycle's end.
	okRuns  []int
	strands int
}

func (w *serveMix) setup(workers int, r *rec, a *acct, opts ...exec.Option) (instance, error) {
	in := &serveInst{order: w.order, okRuns: make([]int, len(w.ins)+1), timers: bodyTimers{stride: 4}}
	for i, inp := range w.ins {
		p, err := buildProblem(inp, r)
		if err != nil {
			return nil, err
		}
		if serveCatalogue[i].nilBody {
			stripBodies(p.prog)
		} else {
			p.keepInit()
			in.timers.add(p.prog)
		}
		in.probs = append(in.probs, p)
	}
	var err error
	if in.jitProb, err = buildProblem(w.jitIn, r); err != nil {
		return nil, err
	}
	in.jitProb.keepInit()
	g, err := core.Rewrite(in.jitProb.prog)
	if err != nil {
		return nil, err
	}
	s := r.begin(lDyn, "StrandDeps")
	in.jitEG = g.Exec()
	in.jitDeps = dyn.StrandDeps(in.jitEG)
	r.end(s)
	in.jit = dyn.NewProgram(dyn.Replay(in.jitEG, in.jitDeps))
	for i := range in.slots {
		in.slots[i].build()
	}

	in.e = startEngine(workers, r, opts)
	// Held for the engine's lifetime: the pipelines are fed from outside
	// the pool, and without a registered resolver the quiescence
	// watchdog fails healthy dynamic runs (README, Known defects).
	in.release = in.e.RegisterResolver()

	s = r.begin(lDyn, "jit-ladder")
	for i := 0; i < 8 && in.jit.Stats().Hits == 0; i++ {
		if err := in.jit.Run(in.e); err != nil {
			return nil, err
		}
	}
	r.end(s)
	if in.jit.Stats().Hits == 0 {
		return nil, errors.New("serve-mix: the dyn.Program never replayed on the compiled path")
	}

	for _, op := range in.order {
		switch op.kind {
		case opCompiled:
			in.strands += len(in.probs[op.prog].prog.Leaves)
		case opTree:
			in.strands += 1<<(serveTreeDepth+1) - 1
		case opFib:
			in.strands += serveFibN
		case opPipe:
			in.strands += 1 + 3*servePipeItems
		case opReplay:
			in.strands += len(in.jitProb.prog.Leaves)
		}
	}
	for i := 0; i < warmCycles; i++ {
		in.cycle(r, a)
	}
	return in, nil
}

// build makes the slot's three dynamic programs.
func (s *flightSlot) build() {
	var level [serveTreeDepth + 1]dyn.Task
	level[0] = func(*dyn.Context) { s.leaves.Add(1) }
	for d := 1; d <= serveTreeDepth; d++ {
		child := level[d-1]
		level[d] = func(c *dyn.Context) {
			c.Spawn(child)
			c.Spawn(child)
		}
	}
	s.tree = level[serveTreeDepth]

	// fib: every step Gets its two predecessors. Spawned lowest first, so
	// the owner's LIFO pops start at the top of the chain: nearly every
	// Get finds its future unresolved, parks the strand, and is resumed
	// by a donation when the step below it Puts.
	step := func(c *dyn.Context, k int64) {
		a := s.cells[k-1].Get(c).(int64)
		b := s.cells[k-2].Get(c).(int64)
		s.cells[k].Put(c, a+b)
	}
	s.fib = func(c *dyn.Context) {
		for k := int64(2); k <= serveFibN; k++ {
			c.SpawnFor(step, k)
		}
		s.cells[0].Put(c, int64(0))
		s.cells[1].Put(c, int64(1))
	}

	// pipeline: parse → square → fold, item i's stage gated on its
	// previous stage, the fold also on item i-1's fold. Row 0 is fed by
	// the submitter once the run has been in flight for a while.
	const n = servePipeItems
	parse := func(c *dyn.Context, i int64) { s.cells[n+i].Put(c, s.cells[i].Get(c).(int64)) }
	square := func(c *dyn.Context, i int64) {
		v := s.cells[n+i].Get(c).(int64)
		s.cells[2*n+i].Put(c, v*v)
	}
	fold := func(c *dyn.Context, i int64) {
		sum := s.cells[2*n+i].Get(c).(int64)
		if i > 0 {
			sum += s.cells[3*n+i-1].Get(c).(int64)
		}
		s.cells[3*n+i].Put(c, sum)
	}
	s.pipe = func(c *dyn.Context) {
		for i := int64(0); i < n; i++ {
			c.SpawnFor(parse, i, &s.cells[i])
			c.SpawnFor(square, i, &s.cells[n+i])
			if i == 0 {
				c.SpawnFor(fold, i, &s.cells[2*n])
			} else {
				c.SpawnFor(fold, i, &s.cells[2*n+i], &s.cells[3*n+i-1])
			}
		}
	}
}

// submit starts one op in the next free slot.
func (in *serveInst) submit(op serveOp, r *rec, a *acct) {
	s := &in.slots[(in.head+in.n)%serveInFlight]
	s.op = op
	a.begin()
	var err error
	switch op.kind {
	case opCompiled:
		sp := r.begin(lExec, "SubmitProgram")
		s.run, err = in.e.SubmitProgram(in.probs[op.prog].prog)
		r.end(sp)
	case opTree:
		s.leaves.Store(0)
		sp := r.begin(lDyn, "Submit")
		s.run, err = dyn.Submit(in.e, s.tree)
		r.end(sp)
	case opFib:
		s.cells = make([]dyn.Future, serveFibN+1)
		sp := r.begin(lDyn, "Submit")
		s.run, err = dyn.Submit(in.e, s.fib)
		r.end(sp)
	case opPipe:
		s.cells = make([]dyn.Future, 4*servePipeItems)
		sp := r.begin(lDyn, "Submit")
		s.run, err = dyn.Submit(in.e, s.pipe)
		r.end(sp)
	}
	if err != nil {
		a.done(err, false)
		return
	}
	in.n++
}

// wait retires the oldest in-flight op and checks its result.
func (in *serveInst) wait(r *rec, a *acct) {
	s := &in.slots[in.head]
	in.head = (in.head + 1) % serveInFlight
	in.n--
	a.begin() // re-arm the deadline: this Wait is what can hang
	l := lDyn
	switch s.op.kind {
	case opCompiled:
		l = lExec
	case opPipe:
		// The external feed arrives late: by now the stages are parked
		// behind their gates, so each Put wakes one through the injector.
		sp := r.begin(lDyn, "Put-external")
		for i := 0; i < servePipeItems; i++ {
			s.cells[i].Put(nil, int64(i+1))
		}
		r.end(sp)
	}
	sp := r.begin(l, "Wait")
	err := s.run.Wait()
	r.end(sp)
	ok := true
	switch s.op.kind {
	case opCompiled:
		if err == nil && !serveCatalogue[s.op.prog].nilBody {
			a.opStart.Store(0)
			in.okRuns[s.op.prog]++ // booked after the table is verified
			return
		}
	case opTree:
		ok = s.leaves.Load() == 1<<serveTreeDepth
	case opFib:
		v, _ := s.cells[serveFibN].TryGet()
		ok = v == int64(serveFibWant)
	case opPipe:
		v, _ := s.cells[4*servePipeItems-1].TryGet()
		ok = v == int64(servePipeWant)
	}
	a.done(err, ok)
}

// replay runs the warmed dyn.Program once; it must be served entirely
// by the compiled path (JIT hits advance by exactly one).
func (in *serveInst) replay(r *rec, a *acct) {
	a.begin()
	hits := in.jit.Stats().Hits
	sp := r.begin(lDyn, "Program.Run")
	err := in.jit.Run(in.e)
	r.end(sp)
	switch {
	case err != nil:
		a.done(err, false)
	case in.jit.Stats().Hits != hits+1:
		a.done(nil, false)
	default:
		a.opStart.Store(0)
		in.okRuns[len(in.okRuns)-1]++
	}
}

func (in *serveInst) table(i int) *problem {
	if i == len(in.probs) {
		return in.jitProb
	}
	return in.probs[i]
}

func (in *serveInst) cycle(r *rec, a *acct) time.Duration {
	s := r.beginUntimed("restore")
	for i := range in.okRuns {
		if p := in.table(i); p.init != nil {
			p.restore()
		}
	}
	r.end(s)

	t := time.Now()
	for _, op := range in.order {
		if op.kind == opReplay {
			in.replay(r, a)
			continue
		}
		if in.n == serveInFlight {
			in.wait(r, a)
		}
		in.submit(op, r, a)
	}
	for in.n > 0 {
		in.wait(r, a)
	}
	timed := time.Since(t)

	// The live tables ran serveRepeats times each, overlapped with other
	// ops; their final state is checked here, outside the timed part, and
	// every run of a table that does not verify counts as failed.
	s = r.beginUntimed("verify")
	for i, n := range in.okRuns {
		if n == 0 {
			continue
		}
		ok := in.table(i).verify()
		for ; n > 0; n-- {
			a.done(nil, ok)
		}
		in.okRuns[i] = 0
	}
	r.end(s)
	return timed
}

func (in *serveInst) engine() *exec.Engine { return in.e }

func (in *serveInst) timeBodies(on bool) { in.timers.set(on) }
func (in *serveInst) bodyNS() int64      { return in.timers.total() }

func (in *serveInst) strandsPerCycle() int { return in.strands }

func (in *serveInst) close(r *rec) {
	in.release()
	closeEngine(in.e, r)
}

// probes times each dynamic shape on its own, k sequential runs on the
// idle engine: the per-task prices behind serve-mix's cycle.
func (in *serveInst) probes(k int, v map[string]float64, a *acct) {
	shape := func(op serveOp) float64 {
		d := make([]float64, k)
		for i := range d {
			t := time.Now()
			in.submit(op, nil, a)
			in.wait(nil, a)
			d[i] = float64(time.Since(t))
		}
		sort.Float64s(d)
		return med(d)
	}
	tasks := float64(int(1)<<(serveTreeDepth+1) - 1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	v["dyn.spawnjoin_ns_per_task"] = shape(serveOp{kind: opTree}) / tasks
	runtime.ReadMemStats(&m1)
	v["dyn.allocs_per_task"] = float64(m1.Mallocs-m0.Mallocs) / (float64(k) * tasks)
	v["dyn.future_ns_per_task"] = shape(serveOp{kind: opFib}) / serveFibN
	v["dyn.pipeline_us_per_item"] = shape(serveOp{kind: opPipe}) / 1e3 / servePipeItems

	strands := float64(in.jitEG.NumStrands())
	live := dyn.Replay(in.jitEG, in.jitDeps) // the online runtime, no JIT
	v["dyn.replay_live_ns_per_strand"] = med(timeOps(max(1, k/4), a, in.jitProb.restore, func() (error, bool) {
		return dyn.Run(in.e, live), in.jitProb.verify()
	})) / strands
	v["dyn.jit_ns_per_strand"] = med(timeOps(k, a, in.jitProb.restore, func() (error, bool) {
		hits := in.jit.Stats().Hits
		err := in.jit.Run(in.e)
		return err, in.jit.Stats().Hits == hits+1 && in.jitProb.verify()
	})) / strands
}
