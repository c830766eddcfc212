package exec

import (
	"context"
	"runtime/pprof"

	"github.com/ndflow/ndflow/internal/telemetry"
)

// This file is the engine's dynamic-task surface: the hooks internal/dyn
// builds its online nested-dataflow runtime on. The engine itself stays a
// task-word multiplexer — it does not know what a future or a spawn tree
// is. It knows three new things:
//
//   - a task word can carry a kind bit marking it dynamic, in which case
//     the word is handed to the run's DynRun instead of the compiled
//     tracker (the run-slot half of the word is shared with compiled
//     runs, so dynamic and compiled tasks interleave on one deque);
//   - a goroutine's worker identity (its deque slot) is transferable: a
//     strand that must suspend mid-body hands its slot to a spare
//     goroutine and parks, and the worker that later pops the resumed
//     continuation donates its slot back and retires to the spare pool —
//     so suspended continuations never sequester a scheduling slot and
//     the pool's parallelism is invariant;
//   - task words can be injected from outside any worker (Inject), the
//     resume path for continuations whose resolver is external — e.g. a
//     Future.Put feeding a pipeline from a request goroutine.
//
// The Note* methods in metrics.go are the matching observability
// surface: dyn reports parks/resumes/donations through them so the
// engine's registry and tracer stay the one source of truth.

// dynTaskBit marks a packed task word as dynamic: the strand half is a
// frame ID interpreted by the run's DynRun rather than a compiled strand.
// Bit 62 keeps words non-negative (the workers' -1 sentinel stays free)
// and clear of the slot half, which the engine keeps below maxRunSlots.
const dynTaskBit int64 = 1 << 62

// PackDynTask packs a run slot and a dynamic frame ID into a deque task
// word. The slot is the one the engine passed to DynRun.Bind.
//
//ndlint:noalloc
func PackDynTask(slot, id int32) int64 { return dynTaskBit | packTask(slot, id) }

// DynRun is an in-flight dynamic computation multiplexed onto the engine:
// a run whose task graph unfolds online instead of being compiled up
// front. internal/dyn provides the implementation; the engine only routes
// task words to it.
type DynRun interface {
	// Bind attaches the engine handle and run slot before the first task
	// word is published, and returns the root frame's ID; the engine
	// injects PackDynTask(slot, root) to start the run. Called under the
	// engine mutex — it must only record the binding.
	Bind(r *Run, slot int32) (root int32)

	// Exec executes or resumes frame id on the calling worker. finished
	// reports that the whole run completed during this call (the engine
	// then retires the run and releases its submitter); detached reports
	// that the call donated the caller's worker identity to a parked
	// continuation — the caller must stop touching its deque and retire
	// to the spare pool.
	Exec(w *Worker, id int32) (finished, detached bool)

	// Retire releases the run's state for reuse. Called exactly once by
	// Run.Wait after the run completed without error, once the engine
	// holds no reference to the run.
	Retire()

	// Discard drops the run's state without pooling it. Called exactly
	// once by Run.Wait in place of Retire when the run failed (panic,
	// cancellation, or watchdog): a failed run's frames may hold claimed
	// wait counters and racing external Puts, so reusing them is unsound.
	Discard()

	// DrainStalled force-drains the run's parked continuations after the
	// engine's quiescence watchdog found the pool quiescent with this run
	// still holding its latch: every frame parked behind an unresolved
	// future is claimed and re-injected as a skip-at-dispatch task word,
	// so the run's tracker drains and Wait returns. The implementation
	// calls fail(parked) with the claimed strand count and returns the
	// claimed words; the engine queues them after fail has run, so the run
	// is already failed when they dispatch. fail is first-failure-wins (a
	// no-op on a run that already failed — a cancelled run being drained
	// keeps ErrRunCanceled). Called with the engine mutex held, on a
	// worker at the park edge, so it must not call back into the engine;
	// only called while the pool is quiescent, so no frame of the run is
	// concurrently executing.
	DrainStalled(fail func(parked int)) (words []int64)
}

// Worker is a goroutine's scheduling identity inside an engine: the deque
// slot it owns. Dynamic task bodies run inline on worker goroutines, so
// DynRun implementations use the Worker of the executing goroutine to
// publish new work and to transfer the slot across suspensions. A Worker
// is owned by exactly one goroutine at a time and its methods are not
// safe for concurrent use.
type Worker struct {
	e    *Engine
	self int
	// deferred holds one published task word the worker will execute
	// next, skipping the deque round trip — the dynamic analogue of the
	// compiled path's chained ready strand. -1 when empty. Flushed to the
	// deque whenever the goroutine gives its identity up (Detach).
	deferred int64
	// spare is the goroutine's parking channel while it waits in the
	// engine's spare pool; it carries the donated slot (or -1 at engine
	// shutdown). Allocated on first retirement and reused.
	spare chan int
	// rng is the goroutine's xorshift state for victim selection.
	rng uint64
}

func newWorker(e *Engine, self int) *Worker {
	return &Worker{e: e, self: self, deferred: -1, rng: uint64(self)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

// Engine returns the engine this worker belongs to.
func (w *Worker) Engine() *Engine { return w.e }

// Self returns the deque slot the worker currently owns.
func (w *Worker) Self() int { return w.self }

// Push publishes a task word on the worker's own deque (LIFO for the
// owner, stealable from the top), waking a parked worker when one is
// available. The no-sleeper fast path is a single atomic load. Words
// published mid-body (spawned children) take this path so they are
// immediately stealable for the whole remainder of the body.
func (w *Worker) Push(word int64) {
	w.e.deques[w.self].push(word)
	w.e.wakeFor(1)
}

// PushChained publishes a task word from a completion or wake context:
// the first word parks in the worker's deferred slot — the worker runs
// it next, no deque round trip, no wakeup needed, the dynamic analogue
// of the compiled path's ready-list chaining — and any further words
// fall back to Push. Only for publishes the worker is about to follow
// anyway (resumed continuations, futures resolved at body end);
// spawn-time words use Push so they stay stealable during the body.
func (w *Worker) PushChained(word int64) {
	if w.deferred < 0 {
		w.deferred = word
		return
	}
	w.Push(word)
}

// takeDeferred claims the deferred task word, if any (-1 otherwise).
func (w *Worker) takeDeferred() int64 {
	word := w.deferred
	w.deferred = -1
	return word
}

// flushDeferred moves a parked deferred word onto the deque, making it
// visible to thieves. Called before the goroutine parks or gives its
// identity away.
func (w *Worker) flushDeferred() {
	if w.deferred >= 0 {
		w.e.deques[w.self].push(w.deferred)
		w.deferred = -1
		w.e.wakeFor(1)
	}
}

// Detach hands the calling goroutine's worker identity to a spare (or a
// freshly spawned goroutine), so the caller can park as a suspended
// continuation without sequestering a scheduling slot. After Detach the
// caller must perform no deque operation until it reacquires an identity
// with Attach.
func (w *Worker) Detach() {
	w.flushDeferred() // a parked word must not sleep with the goroutine
	e := w.e
	e.mu.Lock()
	if n := len(e.spares); n > 0 {
		ch := e.spares[n-1]
		e.spares = e.spares[:n-1]
		e.mu.Unlock()
		ch <- w.self
		return
	}
	// The caller's own workerLoop membership keeps the WaitGroup counter
	// positive, so Add cannot race a returning Close.
	e.wg.Add(1)
	e.mu.Unlock()
	self := w.self
	go func() {
		defer e.wg.Done()
		// Same labels as a construction-time worker: the replacement
		// inherits the donated slot (it may migrate on later donations;
		// profiles label by slot at spawn).
		pprof.Do(context.Background(), workerLabels(self), func(context.Context) {
			e.workerLoop(newWorker(e, self))
		})
	}()
}

// Attach rebinds the worker to the given slot — the one a donor passed to
// the parked continuation when it popped the resume word.
func (w *Worker) Attach(slot int) { w.self = slot }

// retire parks the calling goroutine in the spare pool after it donated
// its worker identity to a resumed continuation. It returns true with
// w.self rebound to a newly donated slot when a suspension hands one
// over, and false when the engine has shut down and the goroutine should
// exit.
//
//ndlint:allowblock spare-pool parking: the goroutine just donated its worker identity and must block until a suspension donates one back (or shutdown releases it)
func (e *Engine) retire(w *Worker) bool {
	e.mu.Lock()
	if e.closed && e.active == 0 {
		e.mu.Unlock()
		return false
	}
	if w.spare == nil {
		w.spare = make(chan int, 1)
	}
	e.spares = append(e.spares, w.spare)
	e.mu.Unlock()
	if s := <-w.spare; s >= 0 {
		w.self = s
		return true
	}
	return false
}

// drainSparesLocked releases every parked spare goroutine at shutdown.
// Called with the engine mutex held, only once closed && active == 0 —
// after which retire refuses new parkings, so no spare is stranded.
func (e *Engine) drainSparesLocked() {
	for _, ch := range e.spares {
		ch <- -1
	}
	e.spares = nil
}

// Inject enqueues task words on the global submission queue from outside
// any worker: the resume path for continuations whose resolver is not a
// worker goroutine. The words' runs must still be in flight (a run cannot
// finish while one of its words is outstanding, so this holds for every
// word a live continuation produces).
func (e *Engine) Inject(words ...int64) {
	e.mu.Lock()
	e.injectLocked(words)
	e.mu.Unlock()
}

func (e *Engine) injectLocked(words []int64) {
	if len(words) == 0 {
		return
	}
	e.met.injects.AddShared(uint64(len(words)))
	e.inject = append(e.inject, words...)
	e.epoch++
	if e.sleepers > 0 {
		e.cond.Broadcast()
	}
}

// SubmitDyn enqueues a dynamic run: Bind is called with the allocated
// slot, then the root frame's task word is injected. The run's task graph
// unfolds online — frames spawned during execution are published straight
// onto worker deques, interleaving with compiled-graph tasks in the same
// pool. Safe for concurrent use.
func (e *Engine) SubmitDyn(d DynRun) (*Run, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	r := e.getRunLocked()
	r.inst, r.pool, r.err, r.dyn = nil, nil, nil, d
	r.failv.Store(nil)
	r.rescued = false
	slot := e.allocSlotLocked(r)
	r.live = true
	if tr := e.tracer; tr != nil {
		tr.RunStarted()
		tr.Record(-1, telemetry.EvRunStart, slot, -1, 0)
	}
	root := d.Bind(r, slot)
	e.inject = append(e.inject, PackDynTask(slot, root))
	e.active++
	e.epoch++
	if e.sleepers > 0 {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	return r, nil
}
