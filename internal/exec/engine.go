package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/pmh"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// ErrEngineClosed is returned by submissions to a closed engine.
var ErrEngineClosed = errors.New("exec: engine is closed")

// Policy selects the engine's ready-structure and ordering discipline.
// Every policy executes the same dependency graph and produces the same
// outputs; only the order in which ready strands are started differs.
type Policy int32

const (
	// PolicyFIFO is the default: submission order on the injector, LIFO
	// owner pops and FIFO steals on the Chase–Lev deques, fan-out in
	// wake-graph row order.
	PolicyFIFO Policy = iota
	// PolicyRelaxed replaces the deque discipline for compiled strands
	// with per-worker MultiQueue pairs (2 priority queues per worker,
	// pick-2-random steals, pop-deeper-of-two-heads; see relaxed.go)
	// keyed by compile-time depth-to-sink (core.ExecGraph.StrandDepths).
	// Priority order is approximate — within O(P·log P) rank inversions
	// with high probability — in exchange for contention-free pops under
	// heavy load.
	PolicyRelaxed
	// PolicyLocality groups the workers into cache domains by a machine
	// spec (pmh.DefaultSpec at the worker count, or the caller's through
	// WithTopology): victim selection walks nearest-first — same domain,
	// then sibling domains, then the whole pool — and tasks whose
	// compiled footprint σ-fits a domain's cache are anchored there, the
	// online analogue of the simulator's space-bounded anchoring rule
	// (see topology.go). Unanchored strands keep the FIFO discipline.
	PolicyLocality
)

// String names the policy as it appears in pprof labels and tooling
// output; a value outside the enum prints as Policy(n).
func (p Policy) String() string {
	switch p {
	case PolicyFIFO:
		return "fifo"
	case PolicyRelaxed:
		return "relaxed"
	case PolicyLocality:
		return "locality"
	}
	return "Policy(" + strconv.Itoa(int(p)) + ")"
}

// Option configures an Engine at construction.
type Option func(*engineConfig)

type engineConfig struct {
	policy  Policy
	topo    *Topology // caller-built topology; only under PolicyLocality
	faultFn func(strand int32) Fault
	tracer  *telemetry.Tracer
}

// WithPolicy selects the scheduling policy (PolicyLocality on the default
// machine spec for the worker count). Of WithPolicy and WithTopology the
// last option given wins.
func WithPolicy(p Policy) Option {
	return func(c *engineConfig) { c.policy, c.topo = p, nil }
}

// WithTopology selects PolicyLocality on a topology the caller built
// (and so validated) with NewTopology — an explicit machine spec and σ.
// The engine takes the topology's worker count when its own is ≤ 0; an
// explicit worker count that disagrees with it is a programming error
// and panics. A topology serves one engine.
func WithTopology(t *Topology) Option {
	return func(c *engineConfig) { c.policy, c.topo = PolicyLocality, t }
}

// Fault is a fault-injection decision returned by a WithFaultInjector
// hook for one compiled strand dispatch.
type Fault int32

const (
	// FaultNone dispatches the strand normally.
	FaultNone Fault = iota
	// FaultPanic panics in place of the strand body, through the same
	// recover path a real body panic takes: the run fails with a
	// *StrandPanicError and its remaining strands are skipped.
	FaultPanic
	// FaultDelay sleeps briefly before the strand body, widening race
	// windows for the chaos harness.
	FaultDelay
	// FaultCancel cancels the strand's run at dispatch, as an external
	// Run.Cancel racing the execution would.
	FaultCancel
)

// WithFaultInjector installs a chaos hook consulted at every compiled
// strand dispatch: the returned Fault is applied before the strand body
// runs. The hook must be safe for concurrent use (workers call it in
// parallel). Fault injection is a test harness — the hook costs one
// predictable branch per dispatch when nil, and dynamic-run faults are
// injected at the body level by the chaos tests instead.
func WithFaultInjector(fn func(strand int32) Fault) Option {
	return func(c *engineConfig) { c.faultFn = fn }
}

// Instance is the reusable per-graph run state: one ConcurrentTracker over
// a compiled ExecGraph's strand-level wake graph. Because the tracker
// rewinds by generation stamp (core.ConcurrentTracker.Reset), the same
// instance can execute its graph any number of times with zero
// steady-state allocation. Instances are
// managed internally by Engine.Submit's per-graph pool; NewInstance plus
// Engine.SubmitInstance is for callers who want to own the reuse cycle
// themselves.
type Instance struct {
	eg *core.ExecGraph
	ct *core.ConcurrentTracker
	// loc is the run's anchoring state under PolicyLocality (nil for
	// graphs whose plan anchors nothing, and until a locality engine first
	// sees the instance). Attached at submission, rewound together with
	// the tracker; locTopo remembers which topology it was derived for, so
	// graphs with empty plans are not re-planned on every submission and
	// caller-owned instances migrating between locality engines are
	// re-bound. Carried onto another policy's engine it is inert: nothing
	// claims there, so its completions release nothing.
	loc     *locState
	locTopo *Topology
	// prio is the compiled graph's depth-to-sink table, attached at
	// submission by PolicyRelaxed.
	prio []int64
}

// NewInstance allocates run state for the compiled graph. The instance is
// ready to submit immediately.
func NewInstance(eg *core.ExecGraph) *Instance {
	return &Instance{eg: eg, ct: core.NewConcurrentTracker(eg)}
}

// Graph returns the compiled graph this instance executes.
func (in *Instance) Graph() *core.ExecGraph { return in.eg }

// Run is the handle of one in-flight execution on an Engine: either a
// compiled graph (inst non-nil) or a dynamic run (dyn non-nil).
type Run struct {
	eng  *Engine
	inst *Instance
	pool *instPool // non-nil when the instance returns to an engine pool
	dyn  DynRun    // non-nil for dynamic runs (see SubmitDyn)
	slot int32
	err  error
	done chan struct{} // buffered(1); finish sends, Wait receives

	// failv holds the run's first failure (a panic, a cancellation, or
	// the watchdog's deadlock verdict), CAS-installed so exactly one
	// wins. Workers load it at task-word dispatch: a failed run's
	// remaining strand bodies are skipped, but their completions still
	// run, so the tracker drains and Wait returns instead of hanging.
	failv atomic.Pointer[runFailure]
	// live and rescued are scheduling-state flags under the engine
	// mutex: live marks the slot-holding window between submission and
	// finish (the stall scan must not touch recycled handles through
	// stale slot cells), rescued marks that the quiescence watchdog
	// already force-drained this run once.
	live    bool
	rescued bool
	// ctxStop/ctxDone belong to a WatchContext watcher: Wait must stop
	// the watcher (or wait for it to finish) before recycling the
	// handle, or a late context fire could cancel the handle's next run.
	ctxStop func() bool
	ctxDone chan struct{}
}

type runFailure struct{ err error }

// Fail marks the run failed with err (first failure wins; reports
// whether this call installed it) — the engine skips the run's remaining
// strand bodies at dispatch while still draining their completions. It
// is the engine's internal failure edge, exported for the dynamic
// runtime; user code should use Cancel.
func (r *Run) Fail(err error) bool {
	if !r.failv.CompareAndSwap(nil, &runFailure{err: err}) {
		return false
	}
	if tr := r.eng.tracer; tr != nil {
		kind := telemetry.EvRunFail
		if isCancellation(err) {
			kind = telemetry.EvRunCancel
		}
		tr.Record(-1, kind, r.slot, -1, 0)
	}
	return true
}

// isCancellation reports whether a run failure is a cancellation
// (explicit or via context) rather than an execution fault.
func isCancellation(err error) bool {
	return errors.Is(err, ErrRunCanceled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Failed returns the run's failure, nil while it is healthy. It may be
// read concurrently with the run's execution.
func (r *Run) Failed() error {
	if f := r.failv.Load(); f != nil {
		return f.err
	}
	return nil
}

// Cancel requests cancellation of an in-flight run: remaining strand
// bodies are skipped at dispatch, a dynamic run's parked continuations
// are force-drained, and Wait returns ErrRunCanceled (unless the run
// failed or finished first). Safe to call from any goroutine, and
// idempotent — but only while the caller still owns the handle: a run
// handle is recycled when Wait returns, so Cancel must not race the
// completion of Wait.
func (r *Run) Cancel() { r.cancelCause(ErrRunCanceled) }

func (r *Run) cancelCause(err error) {
	r.Fail(err)
	// Wake the pool even if every worker is parked: the stall check at
	// the park edge is what drains a cancelled dynamic run's parked
	// continuations, and it only runs when a worker is awake to reach it.
	r.eng.kick()
}

// WatchContext cancels the run when ctx is done, with ctx.Err() as the
// failure (context.Canceled or context.DeadlineExceeded). Call it at
// most once, before Wait; Wait releases the watcher. SubmitCtx and
// RunCtx wire it up for compiled submissions; dynamic submitters can
// call it on the handle Submit returns.
func (r *Run) WatchContext(ctx context.Context) {
	if ctx.Done() == nil {
		return
	}
	done := make(chan struct{})
	r.ctxDone = done
	r.ctxStop = context.AfterFunc(ctx, func() {
		r.cancelCause(ctx.Err())
		close(done)
	})
}

// Wait blocks until the run has executed every strand and returns its
// error (nil in the normal case; the compile step proves acyclicity, so
// engine runs cannot deadlock). Wait must be called exactly once per
// submission: it recycles the handle and returns the instance to the
// engine's pool (or rewinds a caller-owned instance for resubmission).
func (r *Run) Wait() error {
	<-r.done
	if r.ctxStop != nil {
		// Release the context watcher before recycling the handle. If the
		// watcher already fired, wait for it to finish: a half-run watcher
		// touching a recycled handle would cancel someone else's run.
		if !r.ctxStop() {
			<-r.ctxDone
		}
		r.ctxStop, r.ctxDone = nil, nil
	}
	err := r.err
	e := r.eng
	inst, pool := r.inst, r.pool
	if inst != nil {
		if err == nil && inst.ct.Done() {
			// Rewind before republishing so pooled and caller-owned
			// instances are always ready to run; the engine mutex (or the
			// caller's own resubmission ordering) establishes
			// happens-before with workers.
			inst.ct.Reset()
			if inst.loc != nil {
				inst.loc.reset()
			}
		} else {
			pool = nil // never reuse a failed run's state
		}
	}
	d := r.dyn
	e.mu.Lock()
	if pool != nil {
		pool.free = append(pool.free, inst)
	}
	r.inst, r.pool, r.dyn = nil, nil, nil
	e.freeRun = append(e.freeRun, r)
	e.mu.Unlock()
	if d != nil {
		if err == nil {
			// The engine holds no reference to the dynamic run anymore;
			// hand its pooled state back for reuse.
			d.Retire()
		} else {
			// A failed dynamic run's state may hold claimed/negative wait
			// counters and racing external Puts; drop it instead of pooling.
			d.Discard()
		}
	}
	return err
}

type instPool struct {
	free []*Instance // guarded by the engine mutex
	use  uint64      // last-touch tick for eviction, under the engine mutex
}

type progEntry struct {
	once sync.Once
	g    *core.Graph
	err  error
	use  uint64 // last-touch tick for eviction, under the engine mutex
}

// defaultCacheCap bounds each of the engine's two compile caches (program
// entries, instance pools) in a long-lived serving process. Generous for
// any benchmark or test workload; SetCacheCap tunes it.
const defaultCacheCap = 256

// Engine is a long-lived work-stealing worker pool that accepts
// concurrent run submissions and multiplexes every in-flight graph
// execution over one set of Chase–Lev deques. Workers are spawned once at
// construction and park on a condition variable when idle — submission
// cost is enqueueing the initially-ready strands, not goroutine creation.
//
// Deque task words pack (run slot, strand ID) into an int64, so a worker
// that steals a task from any victim can serve any run. Per-run state is
// an Instance (tracker with generation reset); instances are pooled per
// compiled graph and programs are cached per *Program (Rewrite+Compile
// runs once per program), so steady-state resubmission of the same
// program allocates nothing.
type Engine struct {
	workers int
	deques  []*wsDeque
	wg      sync.WaitGroup

	mu   sync.Mutex
	cond *sync.Cond
	// epoch counts work-publication events; a worker that failed a steal
	// sweep parks only if the epoch is unchanged since before the sweep
	// AND a second sweep performed after announcing its sleeper count
	// finds nothing (see acquire), so a publication between sweep and
	// park is never lost.
	epoch    uint64
	sleepers int          // workers announced idle (parked or rechecking), under mu
	waiting  int          // workers inside cond.Wait, under mu
	nSleep   atomic.Int32 // mirror of sleepers for lock-free hot-path checks
	closed   bool
	active   int // in-flight runs, under mu
	// inject is the global submission queue (tasks not yet on any deque),
	// consumed FIFO from injectHead so the oldest submission's strands are
	// served first; the dead prefix is compacted, worksteal-deque style.
	inject     []int64
	injectHead int
	// spares are goroutines parked after donating their worker identity
	// to a resumed dynamic continuation; a later suspension hands one of
	// them a slot instead of spawning a goroutine (see Worker.Detach).
	spares   []chan int
	freeSlot []int32
	freeRun  []*Run
	slots    atomic.Pointer[[]*Run] // copy-on-write snapshot, indexed by task slot
	progs    map[*core.Program]*progEntry
	pools    map[*core.ExecGraph]*instPool
	// Cache bound bookkeeping, under mu: a monotonic touch tick and the
	// per-map size cap. Eviction is an O(size) min-tick scan on insert —
	// the caps are small and inserts are misses, so the scan never shows
	// up on the steady-state (all-hit) path.
	cacheTick uint64
	cacheCap  int

	// policy names the scheduling discipline and rs is the ready
	// structure that implements it, chosen once at construction (see
	// sched.go); topo is the steal topology rs routes by under
	// PolicyLocality, nil otherwise. Only the accessors read policy and
	// topo — submit, the worker loop and acquire go through rs.
	policy Policy
	topo   *Topology
	rs     readyQueue

	// met holds the engine's sharded counter handles (one telemetry
	// registry per engine); tracer is the per-run strand tracer, nil
	// unless armed with WithTracing; faultFn is the chaos hook, nil in
	// production. They sit together so the hot loop's per-dispatch nil
	// checks hit one warm line.
	met     *metricsSet
	tracer  *telemetry.Tracer
	faultFn func(strand int32) Fault
	// resolvers counts registered external future resolvers
	// (RegisterResolver). While it is nonzero the quiescence watchdog
	// gives healthy dynamic runs the benefit of the doubt: a parked run
	// may yet be fed through Inject, so only already-failed runs are
	// force-drained.
	resolvers atomic.Int32
}

// NewEngine starts an engine with the given worker count (GOMAXPROCS when
// workers ≤ 0). The workers live until Close. Options select the
// scheduling policy (default PolicyFIFO; a value outside the enum panics)
// and arm tracing or fault injection; every option composes with every
// policy.
func NewEngine(workers int, opts ...Option) *Engine {
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	if t := cfg.topo; t != nil {
		if workers > 0 && workers != t.Workers() {
			panic(fmt.Sprintf("exec: NewEngine(%d workers) given a topology built for %d", workers, t.Workers()))
		}
		workers = t.Workers()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.policy == PolicyLocality && cfg.topo == nil {
		t, err := NewTopology(pmh.Spec{}, workers, 0)
		if err != nil {
			// pmh.DefaultSpec validates for every worker count.
			panic(err)
		}
		cfg.topo = t
	}
	e := &Engine{
		workers:  workers,
		deques:   make([]*wsDeque, workers),
		progs:    make(map[*core.Program]*progEntry),
		pools:    make(map[*core.ExecGraph]*instPool),
		cacheCap: defaultCacheCap,
		policy:   cfg.policy,
		topo:     cfg.topo,
		faultFn:  cfg.faultFn,
		met:      newMetricsSet(workers),
		tracer:   cfg.tracer,
	}
	if e.tracer != nil {
		// Size the per-worker lanes before any worker can record.
		e.tracer.Bind(workers)
	}
	e.rs = newReadyQueue(e)
	e.cond = sync.NewCond(&e.mu)
	for i := range e.deques {
		e.deques[i] = newWSDeque(256)
	}
	empty := make([]*Run, 0, 8)
	e.slots.Store(&empty)
	for w := 0; w < workers; w++ {
		e.wg.Add(1)
		go e.worker(w)
	}
	return e
}

// Topology returns the engine's steal topology: non-nil exactly under
// PolicyLocality.
func (e *Engine) Topology() *Topology { return e.topo }

// Policy returns the engine's scheduling policy.
func (e *Engine) Policy() Policy { return e.policy }

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Submit enqueues one execution of the graph and returns its handle. The
// run state comes from a per-graph instance pool, so resubmitting the
// same graph (sequentially or from concurrent submitters) reuses trackers
// instead of reallocating them.
//
// Safe for concurrent use — but note that scheduling state is the
// engine's only per-run isolation: concurrent in-flight runs of one
// graph execute the same strand closures over the same user data, which
// races unless the bodies are nil, pure, or externally synchronized.
// Give each concurrent submitter its own graph (its own backing data)
// when bodies write.
func (e *Engine) Submit(g *core.Graph) (*Run, error) {
	return e.submit(g.Exec(), nil)
}

// SubmitInstance enqueues one execution on caller-owned run state. The
// instance must not be submitted again (or mutated) until Wait returns;
// Wait rewinds it, ready for the next submission.
func (e *Engine) SubmitInstance(inst *Instance) (*Run, error) {
	return e.submit(inst.eg, inst)
}

func (e *Engine) submit(eg *core.ExecGraph, owned *Instance) (*Run, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	inst := owned
	var pool *instPool
	if inst == nil {
		pool = e.pools[eg]
		e.cacheTick++
		if pool == nil {
			pool = &instPool{use: e.cacheTick}
			e.pools[eg] = pool
			// Stamp before evicting: a fresh entry with use==0 would be
			// the minimum-tick scan's own victim, so at cap the cache
			// would evict every new entry on arrival and never turn over.
			e.evictPoolsLocked()
		}
		pool.use = e.cacheTick
		if n := len(pool.free); n > 0 {
			inst = pool.free[n-1]
			pool.free = pool.free[:n-1]
			e.met.instHits.IncShared()
		} else {
			inst = NewInstance(eg)
			e.met.instMisses.IncShared()
		}
	}
	r := e.getRunLocked()
	r.inst, r.pool, r.err, r.dyn = inst, pool, nil, nil
	r.failv.Store(nil)
	r.rescued = false

	if len(inst.ct.InitialReady()) == 0 {
		// Empty program (or, impossibly post-compile, a deadlocked one):
		// the run is already over.
		if eg.NumStrands() > 0 {
			r.err = fmt.Errorf("exec: no initially-ready strand among %d (DAG deadlock)", eg.NumStrands())
		}
		e.mu.Unlock()
		r.done <- struct{}{}
		return r, nil
	}
	slot := e.allocSlotLocked(r)
	r.live = true
	if tr := e.tracer; tr != nil {
		tr.RunStarted()
		tr.Record(-1, telemetry.EvRunStart, slot, -1, int64(eg.NumStrands()))
	}
	e.rs.seed(inst, slot)
	e.active++
	e.epoch++
	if e.sleepers > 0 {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	return r, nil
}

// SubmitProgram enqueues one execution of the program, rewriting and
// compiling it on first sight and serving the engine's program cache
// afterwards. Safe for concurrent use; concurrent first submissions of
// the same program compile once. Submit's caveat about concurrent
// in-flight runs sharing the strand bodies' data applies here too.
func (e *Engine) SubmitProgram(p *core.Program) (*Run, error) {
	e.mu.Lock()
	ent := e.progs[p]
	e.cacheTick++
	if ent == nil {
		// As in submit: stamp the entry before the eviction scan runs, or
		// the fresh zero-tick entry is its own victim at cap.
		ent = &progEntry{use: e.cacheTick}
		e.progs[p] = ent
		e.met.progMisses.IncShared()
		e.evictProgsLocked()
	} else {
		e.met.progHits.IncShared()
	}
	ent.use = e.cacheTick
	e.mu.Unlock()
	ent.once.Do(func() { ent.g, ent.err = core.Rewrite(p) })
	if ent.err != nil {
		return nil, ent.err
	}
	return e.Submit(ent.g)
}

// evictPoolsLocked drops least-recently-touched instance pools until the
// map respects the cap. Evicting a pool with in-flight runs is safe: each
// run holds its own pool pointer and re-pools its instance there; the
// orphaned pool is collected once those runs retire.
func (e *Engine) evictPoolsLocked() {
	for len(e.pools) > e.cacheCap {
		var victim *core.ExecGraph
		min := uint64(0)
		for eg, pool := range e.pools {
			if victim == nil || pool.use < min {
				victim, min = eg, pool.use
			}
		}
		delete(e.pools, victim)
		e.met.evictions.IncShared()
	}
}

// evictProgsLocked drops least-recently-touched program cache entries
// until the map respects the cap. An entry mid-compile is safe to evict:
// the submitting goroutine holds it directly; a later submission of the
// same program recompiles into a fresh entry.
func (e *Engine) evictProgsLocked() {
	for len(e.progs) > e.cacheCap {
		var victim *core.Program
		min := uint64(0)
		first := true
		for p, ent := range e.progs {
			if first || ent.use < min {
				victim, min, first = p, ent.use, false
			}
		}
		delete(e.progs, victim)
		e.met.evictions.IncShared()
	}
}

// SetCacheCap bounds the engine's program cache and instance-pool map at
// n entries each (minimum 1), evicting immediately if they already
// exceed it. The default is defaultCacheCap (256).
func (e *Engine) SetCacheCap(n int) {
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	e.cacheCap = n
	e.evictPoolsLocked()
	e.evictProgsLocked()
	e.mu.Unlock()
}

// Run executes the program to completion: SubmitProgram plus Wait. In the
// steady state (program already cached, instance pooled) a Run performs
// no allocation at all.
func (e *Engine) Run(p *core.Program) error {
	r, err := e.SubmitProgram(p)
	if err != nil {
		return err
	}
	return r.Wait()
}

// SubmitCtx is Submit plus context-driven cancellation: when ctx is done
// before the run finishes, remaining strand bodies are skipped and Wait
// returns ctx.Err(). A context without a Done channel costs nothing.
func (e *Engine) SubmitCtx(ctx context.Context, g *core.Graph) (*Run, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, err := e.Submit(g)
	if err != nil {
		return nil, err
	}
	r.WatchContext(ctx)
	return r, nil
}

// RunCtx executes the program to completion under a context deadline:
// SubmitProgram plus WatchContext plus Wait. When the context fires
// first, RunCtx returns ctx.Err() (context.Canceled or
// context.DeadlineExceeded) once the run's in-flight strands drain.
func (e *Engine) RunCtx(ctx context.Context, p *core.Program) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r, err := e.SubmitProgram(p)
	if err != nil {
		return err
	}
	r.WatchContext(ctx)
	return r.Wait()
}

// RegisterResolver declares an external future resolver: a goroutine
// outside the worker pool that will resolve dynamic-run futures through
// Future.Put / Engine.Inject. While at least one resolver is registered,
// the engine's quiescence watchdog will not fail a healthy parked run as
// deadlocked — the resolver may still feed it. The returned release
// function (idempotent) withdraws the registration; the last release
// re-arms the watchdog and wakes the pool so an already-stalled run is
// detected promptly.
func (e *Engine) RegisterResolver() (release func()) {
	e.resolvers.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			if e.resolvers.Add(-1) == 0 {
				e.kick()
			}
		})
	}
}

// kick wakes every parked worker without publishing work, so the parking
// ladder's stall check re-runs against fresh run state.
func (e *Engine) kick() {
	e.mu.Lock()
	e.epoch++
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Close shuts the engine down: in-flight runs are drained, then the
// workers exit and Close returns. Further submissions fail with
// ErrEngineClosed. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		e.epoch++
		e.cond.Broadcast()
		if e.active == 0 {
			e.drainSparesLocked()
		}
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// packTask packs a run slot and strand ID into one deque word: the
// strand in bits 0–31, the slot in bits 32–61. Both are non-negative
// int32s, so the word is non-negative and -1 can serve as the workers'
// "no task" sentinel. Slots stay below maxRunSlots (enforced by
// allocSlotLocked), keeping bit 62 free for dynTaskBit. TestPackTask
// pins the layout at every field's extremes.
//
//ndlint:noalloc
func packTask(slot, id int32) int64 { return int64(slot)<<32 | int64(uint32(id)) }

//ndlint:noalloc
func unpackTask(t int64) (slot, id int32) { return int32(t >> 32), int32(uint32(t)) }

func (e *Engine) getRunLocked() *Run {
	if n := len(e.freeRun); n > 0 {
		r := e.freeRun[n-1]
		e.freeRun = e.freeRun[:n-1]
		return r
	}
	return &Run{eng: e, done: make(chan struct{}, 1)}
}

// maxRunSlots bounds the task table: slot maxRunSlots is the first
// whose packed task word would reach dynTaskBit.
const maxRunSlots = 1 << 30

// allocSlotLocked assigns the run a slot in the task table, growing the
// copy-on-write snapshot when the free list is dry. Workers re-load the
// snapshot for every task, and a task word is only published after its
// slot is written (both under the engine mutex), so a worker can never
// observe a stale cell for a live run.
func (e *Engine) allocSlotLocked(r *Run) int32 {
	if n := len(e.freeSlot); n > 0 {
		s := e.freeSlot[n-1]
		e.freeSlot = e.freeSlot[:n-1]
		(*e.slots.Load())[s] = r
		r.slot = s
		return s
	}
	old := *e.slots.Load()
	if len(old) >= maxRunSlots {
		// A slot this high would collide with the dynamic task-kind bit
		// when shifted into a task word; 2³⁰ concurrent in-flight runs is
		// far beyond anything a Run handle per submission can reach.
		panic("exec: over 2³⁰ concurrent runs in flight")
	}
	next := make([]*Run, len(old)+1, 2*len(old)+8)
	copy(next, old)
	next[len(old)] = r
	e.slots.Store(&next)
	r.slot = int32(len(old))
	return r.slot
}

// takeInjectLocked serves the idle worker from the global submission
// queue, oldest tasks first: it returns one task and moves a fair share
// of the rest onto the worker's own deque, so one grab spreads a fresh
// run's initial strands without a mutex round-trip per task.
func (e *Engine) takeInjectLocked(self int) (int64, bool) {
	n := len(e.inject) - e.injectHead
	if n == 0 {
		return 0, false
	}
	take := n/e.workers + 1
	if take > n {
		take = n
	}
	d := e.deques[self]
	head := e.injectHead
	for _, t := range e.inject[head+1 : head+take] {
		d.push(t)
	}
	t := e.inject[head]
	e.injectHead += take
	// Reclaim the consumed prefix: reset when drained, compact when the
	// dead prefix dominates.
	switch h := e.injectHead; {
	case h == len(e.inject):
		e.inject = e.inject[:0]
		e.injectHead = 0
	case h >= 32 && 2*h >= len(e.inject):
		e.inject = e.inject[:copy(e.inject, e.inject[h:])]
		e.injectHead = 0
	}
	return t, true
}

// acquire finds work for an idle worker: the submission queue first, then
// the ready structure's sweep, then parking. Returns false when the
// engine is closed and fully drained.
//
// Both the first sweep and the post-announcement recheck are exhaustive
// over everything the ready structure holds (the seam's contract, see
// sched.go), so the parking protocol's guarantee — a publication between
// sweep and park is never lost — covers every policy's structures.
//
//ndlint:allowblock parking slow path: the engine mutex serializes the sleeper ladder and cond.Wait is the park itself; the Dekker announce-then-recheck above every park keeps the blocking sound
func (e *Engine) acquire(w *Worker) (int64, bool) {
	self := w.self
	for {
		e.mu.Lock()
		if t, ok := e.takeInjectLocked(self); ok {
			e.mu.Unlock()
			return t, true
		}
		if e.closed && e.active == 0 {
			e.mu.Unlock()
			return 0, false
		}
		ep := e.epoch
		e.mu.Unlock()
		if t, ok := e.rs.sweep(w); ok {
			return t, true
		}
		e.mu.Lock()
		if e.epoch == ep {
			e.sleepers++
			e.nSleep.Store(int32(e.sleepers))
			e.mu.Unlock()
			// Announce-then-recheck (Dekker): the sleeper count is now
			// published, so a worker pushing work either observes it and
			// wakes us, or pushed before our announcement — in which case
			// this second sweep observes the work (sequentially consistent
			// atomics forbid missing both). Without it, a push landing
			// between the first sweep and the count increment would strand
			// us parked while tasks sit in an active worker's deque.
			if t, ok := e.rs.sweep(w); ok {
				e.mu.Lock()
				e.sleepers--
				e.nSleep.Store(int32(e.sleepers))
				e.mu.Unlock()
				return t, true
			}
			e.mu.Lock()
			if e.epoch == ep {
				// Last stop before parking. If this worker is the final one
				// to arrive and there is still an active run, the pool is
				// quiescent with a pending latch — run the watchdog: a
				// stalled dynamic run's parked continuations are
				// force-drained (failing the run) instead of hanging Wait
				// forever. The drain publishes task words, bumping the
				// epoch, so the ladder loops back around to consume them.
				if !e.rescueStalledLocked() {
					e.met.parks.Inc(self)
					if tr := e.tracer; tr != nil {
						tr.Record(self, telemetry.EvPark, -1, -1, 0)
					}
					e.waiting++
					e.cond.Wait()
					e.waiting--
					if tr := e.tracer; tr != nil {
						tr.Record(self, telemetry.EvUnpark, -1, -1, 0)
					}
				}
			}
			e.sleepers--
			e.nSleep.Store(int32(e.sleepers))
		}
		e.mu.Unlock()
	}
}

// rescueStalledLocked is the quiescence watchdog, called under the engine
// mutex at the final park edge; it reports whether it force-drained any
// run. Detection and drain are one critical section: Wait recycles a run
// handle (and retires its DynRun) under the same mutex, so a run selected
// here cannot be recycled before it is drained, and once a parked frame
// is claimed the run cannot finish until the claimed word — queued below,
// still under the mutex — has dispatched. The pool is quiescent
// iff every other worker is inside cond.Wait, the injector is drained,
// and the epoch is unchanged — then no unconsumed published work exists
// anywhere (every ready structure is swept before parking; deferred and
// pend words are only held by running workers), so an active run's
// remaining strands can only be parked behind unresolved futures. The
// sleeper count is not the test: a sleeper whose recheck sweep just
// found a task still counts until it retakes the mutex, and a verdict
// then would fail a run that worker is about to advance. Such runs are stalled:
// they will never finish unless an external resolver feeds them. When a
// resolver is registered, healthy runs get the benefit of the doubt and
// only already-failed (cancelled/panicked) runs are selected; each run
// is selected at most once per submission (rescued flag).
//
// A selected run is force-drained: its parked continuations are claimed
// and queued as skip-at-dispatch task words, so the run's tracker drains
// to zero and Wait returns a typed error. The fail callback installs
// UnresolvedFutureError unless the run already failed (a cancelled run
// keeps ErrRunCanceled — drain is then just cleanup).
func (e *Engine) rescueStalledLocked() bool {
	if e.waiting != e.workers-1 || e.active == 0 || len(e.inject) != e.injectHead {
		return false
	}
	ext := e.resolvers.Load() > 0
	rescued := false
	for _, r := range *e.slots.Load() {
		if r == nil || !r.live || r.dyn == nil || r.rescued {
			continue
		}
		if ext && r.failv.Load() == nil {
			continue
		}
		r.rescued, rescued = true, true
		e.met.rescues.IncShared()
		e.injectLocked(r.dyn.DrainStalled(func(parked int) {
			r.Fail(&UnresolvedFutureError{Parked: parked})
		}))
	}
	return rescued
}

// wake publishes n newly-available tasks to parked workers, waking up to
// n of them so a wide fan-out engages the whole pool, not one thief.
// Callers pre-check nSleep so the hot path (no sleepers) costs one
// atomic load.
//
//ndlint:allowblock entered only when parked sleepers exist; the no-sleeper hot path pays one atomic nSleep load and never reaches this mutex
func (e *Engine) wake(n int) {
	e.mu.Lock()
	e.epoch++
	if n >= e.sleepers {
		e.cond.Broadcast()
	} else {
		for i := 0; i < n; i++ {
			e.cond.Signal()
		}
	}
	e.mu.Unlock()
}

// finish retires a completed run: its slot returns to the free list and
// the submitter is released. Exactly one worker per run gets done=true
// from Complete, so finish runs once.
//
//ndlint:allowblock once-per-run retirement, off the per-task path: the slot free-list takes the engine mutex and the done channel is buffered (cap 1, one send per run)
func (e *Engine) finish(r *Run) {
	if f := r.Failed(); f != nil {
		r.err = f
	}
	e.met.runs.IncShared()
	if r.err != nil {
		if isCancellation(r.err) {
			e.met.runsCanceled.IncShared()
		} else {
			e.met.runsFailed.IncShared()
		}
	}
	if tr := e.tracer; tr != nil {
		// Stitch the run's trace now, before the slot returns to the
		// free list: every worker's body events for this run
		// happen-before the tracker completion that elected this
		// finisher, so the sweep is complete, and a recycled slot can
		// never inherit this run's events.
		tr.Record(-1, telemetry.EvRunEnd, r.slot, -1, 0)
		tr.RunFinished(r.slot)
	}
	e.mu.Lock()
	r.live = false
	e.freeSlot = append(e.freeSlot, r.slot)
	e.active--
	if e.closed && e.active == 0 {
		e.epoch++
		e.cond.Broadcast()
		e.drainSparesLocked()
	}
	e.mu.Unlock()
	r.done <- struct{}{}
}

func (e *Engine) worker(self int) {
	defer e.wg.Done()
	// Label the goroutine so CPU profiles break down by worker slot and
	// scheduling policy.
	pprof.Do(context.Background(), e.workerLabels(self), func(context.Context) {
		e.workerLoop(newWorker(e, self))
	})
}

// workerLabels is the pprof label set for a worker (or replacement)
// goroutine: its slot at spawn and the engine's scheduling policy.
func (e *Engine) workerLabels(self int) pprof.LabelSet {
	return pprof.Labels("worker", strconv.Itoa(self), "policy", e.policy.String())
}

// noteSteal meters a take through the work-stealing protocol (a deque
// steal or a far mailbox poll) and traces it.
func (e *Engine) noteSteal(self int, t int64, victim int) {
	e.met.steals.Inc(self)
	e.traceSteal(self, t, victim)
}

// traceSteal records a steal event carrying the stolen task's identity,
// for the tracer's victim→thief flow arrows. victim < 0 means the
// source has no single owner (domain mailbox, MultiQueue cross-pop).
func (e *Engine) traceSteal(self int, t int64, victim int) {
	if tr := e.tracer; tr != nil {
		slot, id := unpackTask(t &^ dynTaskBit)
		tr.Record(self, telemetry.EvSteal, slot, id, int64(victim))
	}
}

// runLeaf executes one compiled strand body under the panic guard: a
// failed run's remaining bodies are skipped (their completions still run,
// so the tracker drains), and a panic installs the run's first failure as
// a *StrandPanicError without taking the worker goroutine down.
func (e *Engine) runLeaf(r *Run, id int32, label string, body func()) {
	if r.failv.Load() != nil {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			r.Fail(&StrandPanicError{Strand: id, Label: label, Value: p, Stack: debug.Stack()})
		}
	}()
	body()
}

// applyFault applies the chaos hook's decision for one compiled strand
// dispatch. FaultPanic goes through runLeaf so the injected panic
// exercises the same recover path a real body panic takes.
//
//ndlint:allowblock test-only chaos hook, gated on e.faultFn != nil: FaultDelay blocks by design and the injected panic message formats with fmt
func (e *Engine) applyFault(r *Run, id int32) {
	switch e.faultFn(id) {
	case FaultPanic:
		e.runLeaf(r, id, "fault-injector", func() {
			panic(fmt.Sprintf("injected fault at strand %d", id))
		})
	case FaultDelay:
		time.Sleep(50 * time.Microsecond)
	case FaultCancel:
		r.Cancel()
	}
}

// workerLoop drains tasks until the engine shuts down. It is entered by
// the construction-time workers and by replacement goroutines spawned
// when a dynamic strand suspends (Worker.Detach). The loop re-reads its
// identity every iteration: a dynamic task body runs inline on the
// calling goroutine and may suspend mid-body, in which case the goroutine
// parks, is later resumed by a slot donation, and returns from Exec
// owning a different deque than it entered with.
//
// The loop is the engine's innermost hot path: ndlint walks every
// function statically reachable from here and rejects blocking
// operations that lack an //ndlint:allowblock justification. The walk
// does not see through the e.rs interface calls, so each ready
// structure's local/publish/sweep is annotated as a root of its own.
//
//ndlint:hotpath
func (e *Engine) workerLoop(w *Worker) {
	ready := make([]int32, 0, 64)
	scratch := make([]int32, 0, 64)
	next := int64(-1)
	for {
		t := next
		next = -1
		if t < 0 {
			var ok bool
			if t, ok = e.deques[w.self].pop(); !ok {
				if t, ok = e.rs.local(w.self); !ok {
					if t, ok = e.acquire(w); !ok {
						return
					}
				}
			}
		}
		if t&dynTaskBit != 0 {
			slot, id := unpackTask(t &^ dynTaskBit)
			r := (*e.slots.Load())[slot]
			finished, detached := r.dyn.Exec(w, id)
			if finished {
				e.finish(r)
			}
			if detached {
				// The donation branch publishes nothing, so no deferred
				// word can be pending here.
				if !e.retire(w) {
					return
				}
				continue
			}
			// Chain straight into the task the body published first (if
			// any) — the dynamic counterpart of the ready-list chaining
			// below.
			next = w.takeDeferred()
			continue
		}
		slot, id := unpackTask(t)
		r := (*e.slots.Load())[slot]
		inst := r.inst
		if e.faultFn != nil {
			e.applyFault(r, id)
		}
		if tr := e.tracer; tr != nil {
			tr.Record(w.self, telemetry.EvDispatch, slot, id, 0)
		}
		if leaf := inst.eg.Strand(id); leaf.Run != nil {
			e.runLeaf(r, id, leaf.Label, leaf.Run)
		}
		if tr := e.tracer; tr != nil {
			// Before the completion: that edge is what elects the
			// finishing worker, so recording first guarantees this event
			// is visible to the finisher's trace stitch.
			tr.Record(w.self, telemetry.EvComplete, slot, id, 0)
		}
		if inst.loc != nil {
			// Anchor accounting, like the trace record, precedes the
			// tracker completion: a σ-budget release ordered after it
			// could land after Wait had already rewound the anchoring
			// state. (Per-instance state, not a policy test: written
			// out here because a wrapper around Complete does not
			// inline and costs ~1% on the nil-body replay.)
			inst.loc.complete(id)
		}
		var finished bool
		ready, scratch, finished = inst.ct.Complete(id, ready[:0], scratch)
		// The ready structure keeps one enabled strand as this worker's
		// next task and publishes the rest (waking sleepers for them).
		next = e.rs.publish(w, inst, slot, id, ready)
		if finished {
			e.finish(r)
		}
	}
}
