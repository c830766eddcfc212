package telemetry

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind discriminates trace events. Kinds are stable small ints so
// an Event stays fixed-size and branch tables stay dense.
type EventKind int32

const (
	EvNone EventKind = iota

	// Run lifecycle. Slot is the run's engine slot; recorded by the
	// submitter (RunStart), the failing caller (RunFail/RunCancel), and
	// the finishing worker (RunEnd).
	EvRunStart  // Arg = compiled strand count (0 for dynamic roots)
	EvRunEnd    //
	EvRunFail   // run failed with a non-cancellation error
	EvRunCancel // run failed with a cancellation error

	// Compiled strand execution on a worker. ID is the strand id.
	EvDispatch // strand body starting
	EvComplete // strand body returned

	// Scheduler events. Steal's Arg is the victim worker slot.
	// Park/Unpark bracket a worker sleeping on the idle condvar; they
	// carry Slot -1 (engine-level, not owned by a run).
	EvSteal
	EvPark
	EvUnpark

	// Dynamic-runtime events. ID is the frame index within the run.
	EvDynDispatch // frame body starting
	EvDynComplete // frame body returned
	EvDynPark     // frame suspended mid-body; Arg 0 = Sync, 1 = future Get
	EvDynResume   // suspended frame resumed on the recording worker
	EvDynWake     // parked continuation re-published (future Put or child completion)
	EvDonate      // worker identity donated to a parked continuation

	// JIT events, engine-level. Record/Replay carry the run's slot.
	EvJITRecord
	EvJITReplay
	EvJITDiverge

	evKinds // count sentinel
)

var evNames = [evKinds]string{
	EvNone:        "none",
	EvRunStart:    "run_start",
	EvRunEnd:      "run_end",
	EvRunFail:     "run_fail",
	EvRunCancel:   "run_cancel",
	EvDispatch:    "dispatch",
	EvComplete:    "complete",
	EvSteal:       "steal",
	EvPark:        "park",
	EvUnpark:      "unpark",
	EvDynDispatch: "dyn_dispatch",
	EvDynComplete: "dyn_complete",
	EvDynPark:     "dyn_park",
	EvDynResume:   "dyn_resume",
	EvDynWake:     "dyn_wake",
	EvDonate:      "donate",
	EvJITRecord:   "jit_record",
	EvJITReplay:   "jit_replay",
	EvJITDiverge:  "jit_diverge",
}

func (k EventKind) String() string {
	if k < 0 || k >= evKinds {
		return "invalid"
	}
	return evNames[k]
}

// Event is one fixed-size trace record: 32 bytes, so a worker's lane is
// a flat slab the recorder appends to without pointer chasing and the
// garbage collector never scans.
type Event struct {
	TS     int64     // nanoseconds since the tracer's epoch
	Arg    int64     // kind-specific payload (victim, strand count…)
	Slot   int32     // run slot; -1 for engine-level events
	ID     int32     // strand / frame id; -1 when not applicable
	Worker int32     // recording worker slot; -1 for external callers
	Kind   EventKind // discriminator
}

// lane is one worker's append-only event slab. The mutex is
// uncontended in steady state — only the owner appends; the stitcher
// takes it briefly at run end. Lanes live contiguously in
// Tracer.lanes, so the struct is padded to a cache-line multiple
// (held by TestCacheLinePadding) to keep neighbours from
// false-sharing.
type lane struct {
	mu sync.Mutex
	ev []Event
	_  [32]byte // keep adjacent lanes' hot fields off one line
}

// Tracer collects per-run strand-level event streams. Arm it on an
// engine with exec.WithTracing; each worker then records fixed-size
// events into its own lane, and when a run finishes the engine stitches
// that run's events from every lane into a time-ordered Trace.
//
// Recording is allocation-bounded: lanes are append-only slabs that
// keep their capacity across runs, and finished Traces returned to the
// tracer with Recycle are reused, so steady-state tracing performs no
// allocations after warmup.
type Tracer struct {
	epoch time.Time
	lanes []lane       // workers + 1 (last = external callers); set once by Bind
	live  atomic.Int32 // traced runs in flight; gates engine-level events

	mu   sync.Mutex
	done []*Trace // stitched, not yet taken
	free []*Trace // recycled storage
}

// NewTracer returns an unbound tracer. The engine it is armed on binds
// it to that engine's worker count at construction.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Bind sizes the per-worker lanes for an engine with the given worker
// count. Called by the engine when the tracer is installed, before any
// worker starts. A tracer serves one engine shape at a time: rebinding
// to a different worker count panics.
func (t *Tracer) Bind(workers int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lanes != nil {
		if len(t.lanes) != workers+1 {
			panic("telemetry: tracer already bound to a different worker count")
		}
		return
	}
	t.lanes = make([]lane, workers+1)
}

// Workers returns the bound worker count, -1 when unbound.
func (t *Tracer) Workers() int { return len(t.lanes) - 1 }

// Record appends one event to the worker's lane (worker < 0: the
// external lane). Engine-level events (slot < 0) are dropped while no
// traced run is in flight, so an idle engine's parked workers do not
// grow the lanes between runs.
//
//ndlint:hotpath
//ndlint:noalloc
func (t *Tracer) Record(worker int, kind EventKind, slot, id int32, arg int64) {
	lanes := t.lanes
	if lanes == nil {
		return
	}
	if slot < 0 && t.live.Load() == 0 {
		return
	}
	li := len(lanes) - 1
	if worker >= 0 && worker < li {
		li = worker
	}
	ts := int64(time.Since(t.epoch))
	l := &lanes[li]
	//ndlint:allowblock per-worker lane mutex: the lane's own worker is the only steady-state locker; the stitcher contends once per run end
	l.mu.Lock()
	l.ev = append(l.ev, Event{TS: ts, Arg: arg, Slot: slot, ID: id, Worker: int32(worker), Kind: kind})
	l.mu.Unlock()
}

// RunStarted marks one traced run in flight. Engine-level events are
// recorded only while at least one is.
func (t *Tracer) RunStarted() { t.live.Add(1) }

// RunFinished extracts the finished run's events — everything recorded
// with its slot, plus any engine-level events — from every lane,
// stitches them into one time-ordered Trace, and retains it for
// Take/TakeLast. The engine calls this when the run completes, before
// the slot can be reused, so a recycled slot never inherits a
// predecessor's events. When traced runs overlap, engine-level events
// land in whichever run finishes first.
func (t *Tracer) RunFinished(slot int32) *Trace {
	tr := t.takeFree()
	tr.Workers = len(t.lanes) - 1
	for i := range t.lanes {
		l := &t.lanes[i]
		l.mu.Lock()
		kept := l.ev[:0]
		for _, e := range l.ev {
			if e.Slot == slot || e.Slot < 0 {
				tr.Events = append(tr.Events, e)
			} else {
				kept = append(kept, e)
			}
		}
		l.ev = kept
		l.mu.Unlock()
	}
	t.live.Add(-1)
	// Lanes are individually time-ordered; a stable sort merges them
	// without reordering same-timestamp events within a lane.
	slices.SortStableFunc(tr.Events, func(a, b Event) int { return cmp.Compare(a.TS, b.TS) })
	t.mu.Lock()
	t.done = append(t.done, tr)
	t.mu.Unlock()
	return tr
}

func (t *Tracer) takeFree() *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.free); n > 0 {
		tr := t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		tr.Events = tr.Events[:0]
		return tr
	}
	return &Trace{}
}

// Take returns every stitched trace accumulated since the last Take, in
// completion order.
func (t *Tracer) Take() []*Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.done
	t.done = nil
	return d
}

// TakeLast pops the most recently stitched trace, nil when none. This
// is the steady-state serving pattern — one run, one trace, no slice
// churn — and with Recycle it keeps tracing allocation-free.
func (t *Tracer) TakeLast() *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.done)
	if n == 0 {
		return nil
	}
	tr := t.done[n-1]
	t.done[n-1] = nil
	t.done = t.done[:n-1]
	return tr
}

// Recycle returns traces' storage to the tracer for reuse. Nil entries
// are ignored. The caller must not touch a trace after recycling it.
func (t *Tracer) Recycle(trs ...*Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range trs {
		if tr != nil {
			t.free = append(t.free, tr)
		}
	}
}

// Trace is one run's stitched event stream, time-ordered across
// workers.
type Trace struct {
	Workers int // worker lane count (excluding the external lane)
	Events  []Event
}

// Counts tallies the trace's events by kind.
func (tr *Trace) Counts() map[EventKind]int {
	m := make(map[EventKind]int)
	for _, e := range tr.Events {
		m[e.Kind]++
	}
	return m
}
