// Package dyn is the online nested-dataflow runtime: the dynamic
// counterpart of the compiled pipeline, for computations whose DAG is
// discovered during execution instead of being rewritten and compiled up
// front. It implements the source paper's programming model as it is
// actually stated — strands spawn, sync and touch futures as the
// computation unfolds, and the scheduler learns the DAG one task at a
// time — which is what the compiled ExecGraph path cannot express:
// recursion whose shape depends on input, pipelines over request streams,
// and any workload where dependencies are data.
//
// The model is nested fork–join (Context.Spawn / Context.Sync, with an
// implicit sync when a task body returns) extended with single-assignment
// Futures (Put / Get) carrying dataflow edges that cut across the spawn
// tree — the dynamic analogues of the paper's fire construct.
//
// Scheduling rides the existing execution engine: every dynamic task is a
// packed task word on the engine's Chase–Lev deques, so dynamic tasks
// interleave with compiled-graph runs in one shared worker pool. Task
// bodies run inline on worker goroutines — a task that never waits costs
// a deque push/pop, a frame from a pool and a few counter updates, with
// no goroutine switch at all; the last child a body spawns skips even the
// deque round trip (it parks in the frame's pend slot and chains as the
// worker's next task when the body returns). A strand that must wait
// (Get on an unresolved future, Sync with stolen children) suspends as a
// continuation: its frame parks on the future's waiter list guarded by
// one atomic counter — the dynamic analogue of the wake graph's counters
// — and its goroutine hands the worker identity to a spare and parks.
// Resolving the counter re-enqueues the frame's task word; the worker
// that pops it donates its identity back to the parked goroutine and
// retires, so suspended continuations never shrink the pool's
// parallelism. Frames are allocated a slab at a time, pooled, and reused
// in place, so the per-task allocation cost is amortized O(1).
//
// Recurring dynamic programs can stop paying discovery prices entirely:
// a Program handle observes the shape of each run and, when the same
// shape recurs, records the unfolded DAG once and routes later runs
// through the compiled engine — see jit.go (adaptive replay
// compilation).
//
// Failure follows the engine's failure model (see exec): a panic in a
// task body is contained — the run fails with a *exec.StrandPanicError,
// remaining bodies are skipped at dispatch, and the spawn-tree cascade
// still drains so Wait returns instead of hanging. A run that parks on
// futures nobody can resolve is detected by the engine's quiescence
// watchdog (all workers parked, no external resolver registered — see
// exec.Engine.RegisterResolver) and failed with an
// *exec.UnresolvedFutureError; cancelling a run (exec.Run.Cancel)
// likewise force-drains its parked continuations.
package dyn

import (
	"errors"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// errRunAborted is the panic sentinel that unwinds a task body whose run
// has failed (panic elsewhere, cancellation, or watchdog): structural
// calls throw it at entry, and a continuation resumed after a force-drain
// throws it out of the suspension point. runBody recovers it by identity
// — it is an unwind mechanism, not a failure of this body.
var errRunAborted = errors.New("dyn: run aborted")

// abortCheck unwinds the calling body when its run has already failed,
// so cancelled runs stop at the next structural call instead of running
// their bodies to completion.
func (r *run) abortCheck() {
	if r.r.Failed() != nil {
		panic(errRunAborted)
	}
}

// Task is the body of a dynamic strand. The Context is valid only for the
// duration of the call and only on the calling goroutine.
type Task func(*Context)

// Frame states. A frame's word is published at most once per state
// transition (spawn or wake), so Exec observes exactly the state the
// publisher set. Two values are load-bearing reads: stateParked (a
// worker popping the frame's word donates its identity to the parked
// goroutine instead of running the body) and stateFinal (a child
// draining its parent's kids counter completes the parent inline
// instead of waking a parked Sync — see completeFrame). Transitions
// into both are stored before the guard drop that could publish them,
// so the never-read intermediate states (stateNew as the zero value,
// stateRunning) need no store on the non-suspending fast path.
const (
	stateNew     int32 = iota // spawned; body not started (or gated by SpawnAfter)
	stateRunning              // set after a suspension resumes, for clarity in dumps
	stateParked               // goroutine suspended mid-body; wake donates a slot
	stateFinal                // body returned; completes when live children drain
)

// frame is one dynamic strand's continuation state. Frames belong to
// their run's frame table for the run's whole pooled lifetime — a freed
// frame parks as a free index and is reused in place, so the steady state
// allocates no frame, node or channel memory at all. Every counter is
// drained back to zero by the decrements that fire it (see
// core.DynTracker), so reuse needs no counter reset.
type frame struct {
	// The counters lead the struct so the scheduling-hot state (armed,
	// decremented and checked on every spawn, wake and completion) shares
	// the frame's first cache line with the identity fields.

	state atomic.Int32
	// kids counts live children plus one guard held while the body can
	// still spawn (dropped at Sync and again when the body returns). The
	// decrement that reaches zero owns the frame's next step: resuming a
	// parked Sync or completing a finished frame.
	kids atomic.Int32
	// wait is the suspension counter — "one atomic counter per suspended
	// strand": unresolved futures plus one guard. Armed immediately
	// before use (Get, SpawnAfter) and fully drained by the decrements
	// that fire it; the decrement that reaches zero publishes the frame's
	// task word.
	wait atomic.Int32
	idx  int32 // index in the run's frame table; task words carry it

	// pend is the last child the body spawned, not yet on any deque: the
	// next Spawn flushes it to the deque and takes its place, and a body
	// that returns chains it as the worker's next task — so per spawned
	// child the common case pays one deque operation, not a push AND a
	// pop with its fence. -1 when empty. Flushed before any suspension
	// (Sync, Get park), since the parked strand may depend on the child.
	pend int64

	x      int64 // SpawnFor argument
	run    *run
	parent *frame
	fn     Task
	xfn    func(*Context, int64) // SpawnFor body; fn is nil when set
	// w is the Worker of the goroutine currently (or most recently)
	// executing the body. Only that goroutine uses it; across a
	// suspension the goroutine keeps its Worker and rebinds the slot a
	// donor passes through sem.
	w   *exec.Worker
	ctx Context // points back at this frame; handed to the body
	// sem is the parked goroutine's donation channel, buffered(1).
	// Allocated lazily on the first suspension — the majority of frames
	// never park and never pay for it.
	sem chan int

	// wnb and wn are the frame's waiter-node slab: one node per future
	// the frame is registered on. A frame arms at most one wait phase at
	// a time and a phase's nodes are all consumed before its counter can
	// drain, so the slab is reused phase after phase with no
	// synchronization beyond the wait counter itself. Phases waiting on
	// at most two futures — Get, and the typical SpawnAfter/SpawnFor
	// gating — use the inline array; wider phases spill to wn.
	wnb [2]waiter
	wn  []waiter

	// Shape-observation state, maintained only when the run belongs to a
	// Program (run.observing) — see jit.go. ph is the frame's pedigree
	// hash (position in the unfolding spawn tree), eh the rolling hash of
	// the structural events its body performed, veh the verification
	// variant that also folds in body code pointers (recording runs
	// only), and spawnN the number of children spawned this life (the
	// pedigree ordinal of the next child). rec is the frame's recording
	// entry during a recording run.
	ph     uint64
	eh     uint64
	veh    uint64
	spawnN int32
	rec    *recStrand
}

// nodes returns k registration nodes for the next wait phase, growing the
// spill slab when a phase needs more than any earlier one.
func (fr *frame) nodes(k int) []waiter {
	if k <= len(fr.wnb) {
		return fr.wnb[:k]
	}
	if cap(fr.wn) < k {
		fr.wn = make([]waiter, k)
	}
	return fr.wn[:k]
}

// publishChild publishes a freshly spawned child's task word with
// last-spawn chaining: the word parks in the frame's pend slot and the
// sibling previously parked there (if any) goes onto the deque. The pend
// word is flushed by the flush points listed on the field.
//
//ndlint:noalloc
func (fr *frame) publishChild(word int64) {
	if p := fr.pend; p >= 0 {
		fr.w.Push(p)
	}
	fr.pend = word
}

// flushPend publishes a parked pend word onto the deque. Must be called
// before the body can suspend — a hidden child is unschedulable, and the
// suspension may be waiting for exactly that child.
//
//ndlint:noalloc
func (fr *frame) flushPend() {
	if p := fr.pend; p >= 0 {
		fr.pend = -1
		fr.w.Push(p)
	}
}

// ensureSem allocates the frame's donation channel on first suspension.
// Must run before the frame's parked state can be published to a waker.
func (fr *frame) ensureSem() {
	if fr.sem == nil {
		fr.sem = make(chan int, 1)
	}
}

// Context is the capability handed to every task body: the handle for
// spawning children, syncing on them, and resolving futures from task
// context. It must not be retained past the body's return or used from
// goroutines the runtime did not call the body on.
type Context struct {
	fr *frame
	// rh is the replay-mode event hash. A Context with a nil fr belongs
	// to a strand being replayed through the compiled engine by a
	// Program's shape cache (see jit.go): structural calls verify the
	// recorded shape instead of scheduling anything, and rh accumulates
	// the verification hash compared against the recording when the body
	// returns.
	rh uint64
}

// Replaying reports whether the context belongs to a replay-compiled
// execution (see jit.go): structural calls are shape checks, not
// scheduling operations. Bodies that reach into runtime internals (bulk
// spawners like Replay) must branch on it; ordinary bodies need not care.
func (c *Context) Replaying() bool { return c.fr == nil }

// run is one in-flight dynamic computation: the engine-facing DynRun. It
// owns the frame table (task words carry indices, not pointers, so the
// deques never hold the only reference to a frame) and the run-level
// DynTracker whose single root charge is the termination latch.
type run struct {
	eng  *exec.Engine
	r    *exec.Run
	slot int32
	root *frame
	trk  core.DynTracker

	// prog, observing and recording tie the run to an adaptive-replay
	// Program (jit.go): observing folds per-frame shape hashes into the
	// shard accumulators, recording additionally captures the unfolded
	// DAG into recorder. All nil/false for plain Run/Submit runs.
	prog      *Program
	observing bool
	recording bool
	recorder  *recorder
	haccG     uint64 // shape-key accumulator for worker-less frees, under mu

	// tab is the frame table: a copy-on-write snapshot indexed by the
	// frame half of a task word. Readers load it lock-free after popping
	// a word; the deque's atomics order the slot write (done under mu
	// before the word is published) before the read.
	tab  atomic.Pointer[[]*frame]
	mu   sync.Mutex // guards free, table growth and shard resizing
	free []int32    // global free-index overflow; shards refill from here

	// shards are per-worker-slot free-index caches. A shard is touched
	// only by the goroutine currently owning that engine slot (worker
	// identity is single-owner, and every transfer — donation, spare
	// wake, replacement spawn, run recycling via Wait — carries a
	// happens-before edge), so shard pushes and pops need no atomics;
	// the mutex is paid once per frameBatch moves.
	shards []frameShard
}

// frameShard is one slot's free-index cache plus its slice of the run's
// shape-key accumulator (an atomic only because the run's Retire reads
// all shards from one goroutine; each worker adds to its own).
type frameShard struct {
	free []int32
	hacc atomic.Uint64
}

// frameBatch is the refill/spill granularity between a shard and the
// global free list — one mutex acquisition amortizes over this many
// frame allocations or frees — and the slab size of frame allocation:
// a growing run mints frames frameBatch at a time from one backing
// array instead of one heap object per task.
const frameBatch = 32

var runPool sync.Pool

func newRun(e *exec.Engine) *run {
	r, ok := runPool.Get().(*run)
	if !ok {
		r = &run{}
		empty := make([]*frame, 0, 8)
		r.tab.Store(&empty)
	}
	r.eng = e
	if len(r.shards) != e.Workers() {
		// First use, or a pooled run moving to an engine with a different
		// worker count: collect every cached index back into the global
		// list and resize the shard set.
		for i := range r.shards {
			r.free = append(r.free, r.shards[i].free...)
			r.shards[i].free = nil
		}
		r.shards = make([]frameShard, e.Workers())
	}
	return r
}

// Retire implements exec.DynRun: return the completed run's state to the
// pool, rewinding the tracker by generation (O(1)). The engine calls it
// from Run.Wait once it holds no reference to the run, so every
// submission path — Run and Submit alike — recycles frames, tables and
// tracker storage. A run that belongs to a Program reports its shape key
// (and a finished recording) back to the program first.
func (r *run) Retire() {
	if p := r.prog; p != nil {
		key := r.haccG
		r.haccG = 0
		for i := range r.shards {
			key += r.shards[i].hacc.Swap(0)
		}
		var rec *recorder
		if r.recording {
			rec = r.recorder
		}
		r.prog, r.observing, r.recording, r.recorder = nil, false, false, nil
		p.runRetired(r.eng, key, rec)
	}
	r.trk.Reset()
	r.eng, r.r, r.root = nil, nil, nil
	runPool.Put(r)
}

// Discard implements exec.DynRun: drop a failed run's state without
// pooling it. A force-drained run's frames hold claimed (zeroed or
// negative) wait counters and external Puts may still be racing toward
// its futures' waiter nodes, so rewinding and reusing the frames would
// hand corrupted counters to an unrelated run — the only sound option is
// to let the garbage collector take the whole table. A program-owned run
// reports the failure so a partial recording is discarded and the shape
// streak restarts.
func (r *run) Discard() {
	if p := r.prog; p != nil {
		wasRec := r.recording
		if wasRec {
			r.recorder.fail()
		}
		r.prog, r.observing, r.recording, r.recorder = nil, false, false, nil
		p.runFailed(r.eng, wasRec)
	}
	r.eng, r.r, r.root = nil, nil, nil
}

// DrainStalled implements exec.DynRun: force-drain every continuation
// parked behind an unresolved wait counter. Called by the engine's
// quiescence watchdog (or for a cancelled run) only while the pool is
// quiescent, so no frame of this run is concurrently executing; racing
// external Puts are still possible and are tolerated — a Put that loses
// the CAS claim decrements the counter below zero and never publishes,
// and the frames are never reused because failed runs are discarded, not
// pooled. Claimed frames re-enter dispatch as ordinary task words: a
// gated child's body is skipped (the run is failed), a parked Get
// resumes through the donation path and unwinds via errRunAborted —
// either way the spawn-tree cascade drains and Wait returns.
func (r *run) DrainStalled(fail func(parked int)) (words []int64) {
	for _, fr := range *r.tab.Load() {
		for {
			v := fr.wait.Load()
			if v <= 0 {
				break
			}
			if fr.wait.CompareAndSwap(v, 0) {
				words = append(words, r.word(fr))
				break
			}
		}
	}
	// Fail the run before the engine publishes the claimed words, so every
	// one of them dispatches against an already-failed run (first failure
	// wins: a cancelled run being drained keeps its cancellation error).
	fail(len(words))
	return words
}

// newFrame takes a frame for fn under parent from the run's table: a free
// index reuses its resident frame in place, growing the copy-on-write
// table by one slab only when every frame is live. With a worker identity
// (w non-nil, the spawner's) the index comes from that slot's shard — no
// lock, no atomics — refilled from the global list one frameBatch at a
// time. Field initialization happens after the index operation, before
// the frame's word is published (the deque's atomics order it for the
// worker that pops the word).
//
// No state store is needed: a frame is never retired as stateParked
// (every park is matched by a resume that overwrites it), and stateParked
// is the only value anyone reads.
func (r *run) newFrame(w *exec.Worker, parent *frame, fn Task) *frame {
	fr := r.takeFrame(w)
	fr.fn = fn
	fr.parent = parent
	return fr
}

// takeFrame performs newFrame's index operation alone — the hook bulk
// spawners like Replay and SpawnForRange use to assemble children with
// their own field wiring. The fast path is one shard-local slice pop;
// slab growth lives in newFrameSlow so this function stays
// allocation-free.
//
//ndlint:noalloc
func (r *run) takeFrame(w *exec.Worker) *frame {
	if w != nil {
		sh := &r.shards[w.Self()]
		if n := len(sh.free); n > 0 {
			fr := (*r.tab.Load())[sh.free[n-1]]
			sh.free = sh.free[:n-1]
			return fr
		}
	}
	return r.newFrameSlow(w)
}

// newFrameSlow refills the caller's shard from the global free list (one
// batch per lock), or grows the table by one slab of frameBatch frames —
// a single allocation whose spare frames seed the free list — and
// returns one frame.
func (r *run) newFrameSlow(w *exec.Worker) *frame {
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		take := 1
		if w != nil {
			if take = frameBatch; take > n {
				take = n
			}
		}
		moved := r.free[n-take:]
		tab := *r.tab.Load()
		fr := tab[moved[take-1]]
		if w != nil && take > 1 {
			sh := &r.shards[w.Self()]
			sh.free = append(sh.free, moved[:take-1]...)
		}
		r.free = r.free[:n-take]
		r.mu.Unlock()
		return fr
	}
	// Grow by one slab. Extending into spare table capacity is safe:
	// readers hold older, shorter snapshots and never index past their
	// own length.
	slab := make([]frame, frameBatch)
	old := *r.tab.Load()
	next := old
	if len(old)+frameBatch > cap(old) {
		next = make([]*frame, len(old), 2*len(old)+frameBatch)
		copy(next, old)
	}
	base := int32(len(next))
	for i := range slab {
		fr := &slab[i]
		fr.run = r
		fr.ctx.fr = fr
		fr.kids.Store(1) // the guard; free frames always hold it (see bodyDone)
		fr.pend = -1
		fr.idx = base + int32(i)
		next = append(next, fr)
	}
	r.tab.Store(&next)
	if w != nil {
		sh := &r.shards[w.Self()]
		for i := 1; i < frameBatch; i++ {
			sh.free = append(sh.free, base+int32(i))
		}
	} else {
		for i := 1; i < frameBatch; i++ {
			r.free = append(r.free, base+int32(i))
		}
	}
	r.mu.Unlock()
	return &slab[0]
}

// freeFrame retires a completed frame: its index returns to the freeing
// worker's shard (spilling half to the global list when the shard is
// full); the frame itself stays resident in the table for reuse. No task
// word for the frame exists at this point (its last word was consumed by
// the segment that completed it), so the index cannot be observed stale.
//
//ndlint:allowblock the run mutex is taken only for shard spills (once per frameBatch frees) and workerless callers; the common path is shard-local
func (r *run) freeFrame(w *exec.Worker, fr *frame) {
	if r.observing {
		// Fold the frame's shape contribution into the run key (see
		// jit.go) before its accumulators can be reused, and save the
		// verification hash on the recording entry — the frame may serve
		// another strand of this same run next.
		if rs := fr.rec; rs != nil {
			rs.veh = fr.veh
			fr.rec = nil
		}
		h := foldFrame(fr)
		if w != nil {
			r.shards[w.Self()].hacc.Add(h)
		} else {
			r.mu.Lock()
			r.haccG += h
			r.mu.Unlock()
		}
	}
	fr.fn, fr.xfn, fr.parent, fr.w = nil, nil, nil, nil
	if w == nil {
		r.mu.Lock()
		r.free = append(r.free, fr.idx)
		r.mu.Unlock()
		return
	}
	sh := &r.shards[w.Self()]
	sh.free = append(sh.free, fr.idx)
	if len(sh.free) >= 2*frameBatch {
		spill := sh.free[frameBatch:]
		r.mu.Lock()
		r.free = append(r.free, spill...)
		r.mu.Unlock()
		sh.free = sh.free[:frameBatch]
	}
}

// word returns the packed task word publishing frame fr.
//
//ndlint:noalloc
func (r *run) word(fr *frame) int64 { return exec.PackDynTask(r.slot, fr.idx) }

// Bind implements exec.DynRun: record the engine handle and slot, hand
// back the root frame for injection. Called under the engine mutex.
func (r *run) Bind(er *exec.Run, slot int32) int32 {
	r.r = er
	r.slot = slot
	return r.root.idx
}

// Exec implements exec.DynRun: run or resume frame id on worker w.
// This is the dynamic side of the engine's dispatch hot path; ndlint
// walks it for blocking operations like its compiled counterpart.
//
//ndlint:hotpath
func (r *run) Exec(w *exec.Worker, id int32) (finished, detached bool) {
	fr := (*r.tab.Load())[id]
	if fr.state.Load() == stateParked {
		// A resumed continuation: donate the worker identity to the
		// parked goroutine (the send cannot block — sem is buffered and
		// holds at most one donation per suspension) and retire.
		w.NoteDynDonate(r.slot, id)
		//ndlint:allowblock sem is buffered (cap 1) and holds at most one donation per suspension, so the send cannot block
		fr.sem <- w.Self()
		return false, true
	}
	fr.w = w
	w.NoteDynDispatch(r.slot, id)
	r.runBody(fr)
	if p := fr.pend; p >= 0 {
		// The last spawned child chains as the worker's next task: no
		// deque round trip at all for the tail of a spawn chain.
		fr.pend = -1
		w.PushChained(p)
	}
	// Note before bodyDone: the cascade can free the frame (and finish
	// the whole run), after which the id may be recycled.
	w.NoteDynComplete(r.slot, id)
	return r.bodyDone(fr), false
}

// runBody executes the frame's body under the run-level panic guard: a
// failed run's bodies are skipped entirely (the spawn-tree cascade still
// drains through bodyDone), a real panic installs the run's first
// failure, and the errRunAborted unwind of an aborted continuation is
// absorbed. The guard lives here — around the whole body invocation,
// suspensions included — so a panic after a mid-body park is recovered
// on the goroutine that owns the donated worker identity, and the
// donation machinery stays re-armed for the engine's next run.
func (r *run) runBody(fr *frame) {
	if r.r.Failed() != nil {
		return
	}
	defer func() {
		switch p := recover(); p {
		case nil, errRunAborted:
		default:
			r.r.Fail(&exec.StrandPanicError{Strand: fr.idx, Label: "dyn", Value: p, Stack: debug.Stack()})
		}
	}()
	if fr.fn != nil {
		fr.fn(&fr.ctx)
	} else {
		fr.xfn(&fr.ctx, fr.x)
	}
}

// bodyDone performs the implicit sync at body return: the frame completes
// once its live children drain. The guard drop decides ownership — if a
// child is still live, the last child to finish completes the frame.
//
// Free frames always hold their guard (kids == 1), so the common leaf
// case — no live child at body return — is a single atomic load: with the
// guard as the only count no concurrent mutator exists, and the frame
// keeps its guard armed for its next life. Frames completed through the
// drop path re-arm the guard before being freed.
func (r *run) bodyDone(fr *frame) (rootDone bool) {
	if fr.kids.Load() == 1 {
		return r.completeFrame(fr.w, fr)
	}
	fr.state.Store(stateFinal)
	if fr.kids.Add(-1) != 0 {
		return false
	}
	fr.kids.Store(1) // re-arm the guard for the frame's next life
	return r.completeFrame(fr.w, fr)
}

// completeFrame retires fr and cascades: the completion may be the last
// child a finished or syncing ancestor was waiting for. Runs as a loop on
// the completing worker, so a deep chain of final syncs costs no stack
// and no extra task words. Returns true when the cascade completed the
// root — the whole run is over. Only the root touches the run-level
// tracker: a task completes strictly after its subtree, so the root's
// completion is the termination event and per-child global accounting
// would be redundant atomics on the spawn path.
func (r *run) completeFrame(w *exec.Worker, fr *frame) bool {
	for {
		p := fr.parent
		r.freeFrame(w, fr)
		if p == nil {
			if !r.trk.Completed() {
				panic("dyn: root frame completed twice in one generation")
			}
			return true
		}
		if p.kids.Add(-1) != 0 {
			return false
		}
		if p.state.Load() == stateFinal {
			p.kids.Store(1) // re-arm the guard for the frame's next life
			fr = p
			continue
		}
		// Parent parked at an explicit Sync: wake it. The donation
		// machinery hands it a worker identity when the word is popped.
		w.NoteDynWake(r.slot, p.idx)
		w.PushChained(r.word(p))
		return false
	}
}

// park suspends the calling strand after its wake counter was armed and
// published: the goroutine hands its worker identity to a spare and waits
// for a donor to pass one back. Must be called with fr.state already
// stateParked and only when the armed counter's guard drop confirmed the
// wait is real. future tells the telemetry layer whether the suspension
// waits on a future Get rather than a Sync.
func (fr *frame) park(future bool) {
	fr.w.NoteDynPark(fr.run.slot, fr.idx, future)
	fr.w.Detach()
	fr.w.Attach(<-fr.sem)
	fr.state.Store(stateRunning)
	fr.w.NoteDynResume(fr.run.slot, fr.idx)
}

// Spawn schedules fn as a child task of the calling strand. The child is
// immediately stealable once the parent performs its next structural call
// (until then it rides the parent's pend slot); the parent keeps running.
// Children are joined by Sync or by the implicit sync when the parent's
// body returns.
func (c *Context) Spawn(fn Task) {
	if c.fr == nil {
		c.rh = mixSpawnV(c.rh, opSpawn, 0, 0, pcOf(fn))
		return
	}
	fr := c.fr
	r := fr.run
	r.abortCheck()
	child := r.newFrame(fr.w, fr, fn)
	fr.kids.Add(1)
	if r.observing {
		r.observeSpawn(fr, child, opSpawn, 0, 0, fn)
	}
	fr.publishChild(r.word(child))
}

// SpawnAfter schedules fn as a child task gated on the given futures: the
// child's frame parks as a continuation with one atomic counter holding
// the number of unresolved futures, and the Put that resolves the last
// one publishes the child onto the resolver's deque. A child gated only
// on already-resolved futures is published immediately. This is the
// allocation-light way to express dataflow edges — the child suspends
// before it ever starts, so no goroutine parks. The deps slice is not
// retained.
func (c *Context) SpawnAfter(fn Task, deps ...*Future) {
	if c.fr == nil {
		c.rh = mixSpawnV(c.rh, opSpawnAfter, 0, len(deps), pcOf(fn))
		return
	}
	fr := c.fr
	r := fr.run
	r.abortCheck()
	child := r.newFrame(fr.w, fr, fn)
	fr.kids.Add(1)
	if r.observing {
		r.observeSpawn(fr, child, opSpawnAfter, 0, len(deps), fn)
	}
	c.gate(child, deps)
}

// SpawnFor schedules fn(x) as a child task gated on the given futures:
// the indexed form of SpawnAfter for data-parallel dynamic loops. One
// shared body closure serves every iteration — the per-task argument
// travels in the continuation frame, not in a fresh closure — and the
// deps slice is not retained, so callers can reuse one scratch slice
// across a whole loop. Steady-state cost per task: no allocation at all.
func (c *Context) SpawnFor(fn func(*Context, int64), x int64, deps ...*Future) {
	if c.fr == nil {
		c.rh = mixSpawnV(c.rh, opSpawnFor, x, len(deps), pcOf(fn))
		return
	}
	fr := c.fr
	r := fr.run
	r.abortCheck()
	child := r.newFrame(fr.w, fr, nil)
	child.xfn, child.x = fn, x
	fr.kids.Add(1)
	if r.observing {
		r.observeSpawn(fr, child, opSpawnFor, x, len(deps), fn)
	}
	c.gate(child, deps)
}

// SpawnForRange schedules fn(x) for every x in [lo, hi) as ungated child
// tasks: the batch form of SpawnFor for dense data-parallel loops. The
// whole batch arms the parent's join guard with one atomic add and draws
// its frames from the slab-backed pool, so the per-child cost is the
// frame wiring and one deque publication — none of the per-call counter
// traffic of spawning the children one at a time.
func (c *Context) SpawnForRange(fn func(*Context, int64), lo, hi int64) {
	if c.fr == nil {
		pc := pcOf(fn)
		for x := lo; x < hi; x++ {
			c.rh = mixSpawnV(c.rh, opSpawnFor, x, 0, pc)
		}
		return
	}
	if hi <= lo {
		return
	}
	fr := c.fr
	r := fr.run
	r.abortCheck()
	fr.kids.Add(int32(hi - lo))
	for x := lo; x < hi; x++ {
		child := r.takeFrame(fr.w)
		child.xfn, child.x = fn, x
		child.parent = fr
		if r.observing {
			r.observeSpawn(fr, child, opSpawnFor, x, 0, fn)
		}
		fr.publishChild(r.word(child))
	}
}

// gate publishes a freshly spawned child: immediately when nothing gates
// it, otherwise parked behind its wait counter armed with the unresolved
// dependency count (plus the guard this call drops).
func (c *Context) gate(child *frame, deps []*Future) {
	fr := c.fr
	r := child.run
	if len(deps) == 0 {
		fr.publishChild(r.word(child))
		return
	}
	child.wait.Store(int32(len(deps)) + 1)
	settled := int32(1) // the guard
	wn := child.nodes(len(deps))
	for i, f := range deps {
		n := &wn[i]
		n.fr = child
		if !f.addWaiter(n) {
			settled++ // already resolved; its decrement will never come
			if r.recording {
				r.recorder.dep(child.rec, f)
			}
		}
	}
	if child.wait.Add(-settled) == 0 {
		fr.publishChild(r.word(child))
	}
}

// Sync blocks the calling strand until every child it has spawned so far
// has completed (including the children's own subtrees). If children are
// still live, the strand suspends and its worker moves on to other work;
// the last child to finish re-enqueues the continuation.
func (c *Context) Sync() {
	if c.fr == nil {
		// A recorded program never contains a reachable explicit Sync
		// (recording vetoes them), so replaying into one is a shape
		// divergence — and a Sync cannot be honored without a frame.
		panic(errReplayDiverged)
	}
	fr := c.fr
	if r := fr.run; r.observing {
		fr.eh = mix2(fr.eh, opSync)
		if r.recording {
			fr.veh = mix2(fr.veh, opSync)
			// A mid-body join cannot be expressed as a single compiled
			// strand; this shape stays on the live runtime.
			r.recorder.fail()
		}
	}
	fr.flushPend()
	if fr.kids.Load() == 1 {
		return // no live children; the guard is ours alone
	}
	fr.ensureSem()
	fr.state.Store(stateParked)
	if fr.kids.Add(-1) != 0 {
		fr.park(false)
	} else {
		fr.state.Store(stateRunning)
	}
	fr.kids.Store(1) // re-arm the guard for the next spawn phase
	// Abort only after the guard is re-armed: the errRunAborted unwind
	// runs bodyDone, which relies on the guard being exactly 1 here — an
	// un-re-armed guard would corrupt the kids accounting of the cascade.
	fr.run.abortCheck()
}

// Submit enqueues a dynamic run executing root on the engine and returns
// its handle; Wait blocks until the root task and its entire subtree have
// completed. Dynamic tasks share the engine's workers and deques with
// compiled-graph submissions.
func Submit(e *exec.Engine, root Task) (*exec.Run, error) {
	return submitRun(e, nil, root)
}

// submitRun is Submit plus the Program hookup: a run launched on behalf
// of a Program observes its shape (and records it when the program's
// streak says so).
func submitRun(e *exec.Engine, p *Program, root Task) (*exec.Run, error) {
	r := newRun(e)
	if p != nil {
		r.prog, r.observing = p, true
		if rec := p.armRecording(); rec != nil {
			r.recording, r.recorder = true, rec
		}
	}
	r.root = r.newFrame(nil, nil, root)
	r.trk.Spawned()
	if r.observing {
		r.root.ph = core.PedigreeRoot()
		r.root.eh, r.root.veh, r.root.spawnN = 0, 0, 0
		if r.recording {
			r.root.rec = r.recorder.newStrand(-1, r.root)
		}
	}
	er, err := e.SubmitDyn(r)
	if err != nil {
		// The engine rejected the run (closed): unwind the bookkeeping so
		// the pooled state stays consistent. The program is told nothing —
		// no run happened.
		if p != nil {
			p.abortSubmit(r.recording)
		}
		r.prog, r.observing, r.recording, r.recorder = nil, false, false, nil
		r.trk.Completed()
		r.freeFrame(nil, r.root)
		r.Retire()
		return nil, err
	}
	if r.recording {
		meterJIT(e, telemetry.MJITRecords)
		er.TraceMark(telemetry.EvJITRecord, 0)
	}
	return er, nil
}

// Run executes root to completion on the engine: Submit plus Wait. Run
// state is pooled and rewound by generation (Wait retires it through
// exec.DynRun.Retire), so steady-state dynamic runs — through Run and
// Submit alike — reuse pooled frames, tables and tracker storage.
func Run(e *exec.Engine, root Task) error {
	er, err := Submit(e, root)
	if err != nil {
		return err
	}
	return er.Wait()
}
