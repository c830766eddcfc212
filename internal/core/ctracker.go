package core

import (
	"sync/atomic"
)

// ConcurrentTracker is the lock-free counterpart of Tracker: readiness is
// propagated with atomic counter decrements, so any number of workers can
// complete strands and collect newly-ready work without a global lock.
//
// It operates on the strand-level wake graph (see WakeGraph), not the raw
// event graph: Complete(id) is a flat loop over strand id's wake list —
// one atomic decrement per waiting counter — with no DFS over relay
// chains, no per-vertex strand filtering, and |strands|+|relays| counters
// of mutable state instead of 2·|Nodes|.
//
// The firing discipline makes concurrent cascades safe without per-vertex
// state: every counter reaches its firing value exactly once, and only
// the worker that performs the firing decrement continues from it, so
// ownership of each firing is linearized by the atomic decrement itself.
// Weighted decrements keep this exact: the weights delivered to a counter
// per run sum to exactly its per-run need, so no decrement can step over
// the firing value.
//
// A tracker is reusable: Reset rewinds it to the pre-run state in O(1) by
// advancing a generation stamp instead of re-initializing the counters.
// Counters start at zero and are never re-initialized; each run drains
// counter t by exactly need[t] decrement weight, so after g completed
// runs the counter sits at −need[t]·g and the firing value of generation
// g is −need[t]·g. All arithmetic is int32 and wraps mod 2³², the stamp
// included; the firing comparison stays exact under wrap-around because
// within one run the counter traverses need[t] < 2³² distinct residues,
// so no mid-run value can collide with the firing value.
type ConcurrentTracker struct {
	wg *WakeGraph

	// cnt[t] counts down forever across generations. Indexed like
	// WakeGraph counters: t < NumStrands is strand t's ready gate,
	// t ≥ NumStrands is a relay.
	cnt []atomic.Int32
	// gen is the 1-based generation (run number). Written only by Reset,
	// which callers must serialize with run completion (see Reset).
	gen int32

	// left counts the sinks (strands with an empty wake row) not yet
	// completed this generation: it is the runtimes' termination latch.
	// A strand runs only after its wake-graph predecessors completed, and
	// every strand reaches a sink, so the last sink completion is the
	// last completion of the run. Only sink completions touch it: a run
	// pays NumWakeEdges + NumSinks shared atomics in all.
	left atomic.Int64
}

// NewConcurrentTracker returns a tracker over the compiled event graph
// with the initially-enabled strands collected (see InitialReady). The
// construction itself is single-threaded; the wake-graph collapse is
// computed once per ExecGraph and shared.
func NewConcurrentTracker(eg *ExecGraph) *ConcurrentTracker {
	w := eg.Wake()
	t := &ConcurrentTracker{wg: w, cnt: make([]atomic.Int32, len(w.need)), gen: 1}
	t.left.Store(int64(w.numSinks))
	return t
}

// InitialReady returns the strands ready before any completion, as strand
// IDs. The set is identical in every generation. The slice is shared;
// callers must not modify it.
func (t *ConcurrentTracker) InitialReady() []int32 { return t.wg.initial }

// Complete marks the ready strand id as executed and cascades readiness.
// Newly-ready strand IDs are appended to ready; scratch holds relay rows
// fired along the way (usually none). Both slices (possibly grown) are
// returned along with done, which is true for exactly the one completion
// per generation that finished the run (no strand ready or running
// anywhere afterwards), so a worker calling in a loop performs no
// steady-state allocation:
//
//	ready, scratch, done = t.Complete(id, ready[:0], scratch)
//
// Safe for concurrent use by any number of workers, each passing its own
// buffers. A strand must be completed exactly once per generation, and
// only after it was handed out by InitialReady or a previous Complete.
//
//ndlint:hotpath
//ndlint:noalloc
func (t *ConcurrentTracker) Complete(id int32, ready, scratch []int32) ([]int32, []int32, bool) {
	w := t.wg
	scratch = scratch[:0]
	if w.wakeOff[id] == w.wakeOff[id+1] {
		// A sink wakes nobody; its completion is the only kind that
		// touches the shared latch.
		return ready, scratch, t.left.Add(-1) == 0
	}
	// Firing value of this generation: −need[c]·gen, wrapping.
	negGen := -t.gen
	nStrands := int32(w.numStrands)
	row := id
	for {
		for k := w.wakeOff[row]; k < w.wakeOff[row+1]; k++ {
			c := w.targets[k]
			if t.cnt[c].Add(-w.weights[k]) != negGen*w.need[c] {
				continue
			}
			if c < nStrands {
				ready = append(ready, c)
			} else {
				scratch = append(scratch, c)
			}
		}
		n := len(scratch)
		if n == 0 {
			break
		}
		row = scratch[n-1]
		scratch = scratch[:n-1]
	}
	return ready, scratch, false
}

// Reset rewinds the tracker for another run of the same graph in O(1):
// the generation stamp advances and the sink latch rewinds; the wake
// counters are left alone (see the type comment). It must only
// be called when the previous run has fully completed (Done reports
// true), and never concurrently with Complete; callers
// re-publishing the tracker to workers must establish happens-before
// (the engine's submission mutex does).
func (t *ConcurrentTracker) Reset() {
	if !t.Done() {
		panic("core: ConcurrentTracker.Reset before the run completed")
	}
	t.gen++
	t.left.Store(int64(t.wg.numSinks))
}

// Generation returns the 1-based run number the tracker is serving.
func (t *ConcurrentTracker) Generation() int32 { return t.gen }

// Done reports whether every strand has been executed this generation:
// every sink has, and every strand reaches a sink.
func (t *ConcurrentTracker) Done() bool { return t.left.Load() == 0 }
