package core

import "sync/atomic"

// DynTracker is the run-level tracker of the online (dynamic) runtime: the
// counterpart of ConcurrentTracker for computations whose DAG is not known
// at compile time. A compiled run knows its strand count up front, so
// ConcurrentTracker can precompute every counter's per-run need and rewind
// them all at once with the −need·gen generation trick. A dynamic run
// discovers its strands as they spawn, so the per-strand counters live in
// the runtime's continuation frames and follow the degenerate form of the
// same discipline: each counter is armed with its need immediately before
// use (futures awaited plus one guard, or live children plus one guard)
// and is fully drained — back to zero, the firing value of every
// generation — by the decrements that fire it. A drained counter needs no
// reset at all, which is what lets frames be pooled and reused across
// tasks and runs without touching their counters.
//
// What remains run-global is exactly this tracker: the root latch that is
// the run's termination signal (the dynamic analogue of
// ConcurrentTracker's sink latch), and the generation stamp that lets a
// pooled run state be rewound in O(1) by Reset instead of being
// reallocated.
type DynTracker struct {
	// gen is the 0-based count of completed generations. Written only by
	// Reset, which callers must serialize with run completion.
	gen int32

	// pending is 1 while the run's root frame is live and 0 otherwise.
	// Only the root is charged: a task frame completes only after its
	// whole subtree has (implicit sync), so the root's completion is the
	// run's last, and counting the other frames would add atomics to the
	// spawn path and tell nothing more. Like ConcurrentTracker's
	// counters it is fully drained by the run that armed it, so Reset has
	// nothing to rewind but the stamp.
	pending atomic.Int64
}

// Spawned records the root frame. Safe for concurrent use.
func (t *DynTracker) Spawned() { t.pending.Add(1) }

// Completed records the root frame's completion and reports whether the
// run is over, which it is once the root is no longer live. Safe for
// concurrent use.
func (t *DynTracker) Completed() bool {
	return t.pending.Add(-1) == 0
}

// Reset rewinds the tracker for another run in O(1): only the generation
// stamp advances — the pending counter drained itself. It must only be
// called when the previous run has fully completed (Done reports true),
// and never concurrently with Spawned or Completed.
func (t *DynTracker) Reset() {
	if !t.Done() {
		panic("core: DynTracker.Reset with the root frame still live")
	}
	t.gen++
}

// Generation returns the 0-based count of completed generations.
func (t *DynTracker) Generation() int32 { return t.gen }

// Done reports whether the root frame is no longer live.
func (t *DynTracker) Done() bool { return t.pending.Load() == 0 }
