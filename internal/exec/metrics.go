package exec

import (
	"github.com/ndflow/ndflow/internal/telemetry"
)

// metricsSet resolves the engine's counter handles once at construction
// so hot paths increment through plain pointers instead of name lookups.
// Every counter the engine or the dyn runtime can touch is registered
// here, which keeps snapshot keys stable even before first use.
type metricsSet struct {
	reg *telemetry.Registry

	runs, runsFailed, runsCanceled *telemetry.Counter

	steals, crossPops, parks, injects, rescues *telemetry.Counter

	progHits, progMisses, instHits, instMisses, evictions *telemetry.Counter

	claims, fallbacks, posts *telemetry.Counter

	dynParks, dynResumes, dynDonations *telemetry.Counter
}

func newMetricsSet(workers int) *metricsSet {
	reg := telemetry.NewRegistry(workers + 1)
	m := &metricsSet{
		reg:          reg,
		runs:         reg.Counter(telemetry.MRuns),
		runsFailed:   reg.Counter(telemetry.MRunsFailed),
		runsCanceled: reg.Counter(telemetry.MRunsCanceled),
		steals:       reg.Counter(telemetry.MSteals),
		crossPops:    reg.Counter(telemetry.MCrossPops),
		parks:        reg.Counter(telemetry.MParks),
		injects:      reg.Counter(telemetry.MInjects),
		rescues:      reg.Counter(telemetry.MRescues),
		progHits:     reg.Counter(telemetry.MProgHits),
		progMisses:   reg.Counter(telemetry.MProgMisses),
		instHits:     reg.Counter(telemetry.MInstHits),
		instMisses:   reg.Counter(telemetry.MInstMisses),
		evictions:    reg.Counter(telemetry.MEvictions),
		claims:       reg.Counter(telemetry.MClaims),
		fallbacks:    reg.Counter(telemetry.MFallbacks),
		posts:        reg.Counter(telemetry.MPosts),
		dynParks:     reg.Counter(telemetry.MDynParks),
		dynResumes:   reg.Counter(telemetry.MDynResumes),
		dynDonations: reg.Counter(telemetry.MDynDonations),
	}
	// The JIT meters itself through the registry by name (the dyn
	// package owns those call sites); pre-register so snapshots carry
	// the keys at zero before any recording run.
	for _, name := range []string{
		telemetry.MJITRecords, telemetry.MJITReplays, telemetry.MJITHits,
		telemetry.MJITDivergences, telemetry.MJITVetoes,
	} {
		reg.Counter(name)
	}
	return m
}

// Metrics returns the engine's telemetry registry, the one source of
// truth for scheduling, cache, topology, dynamic-runtime and JIT
// counters: Metrics().Snapshot().Get(telemetry.MSteals) and friends.
// Snapshot it for an instantaneous reading, or pair snapshots with
// Snapshot.Delta to meter an interval.
func (e *Engine) Metrics() *telemetry.Registry { return e.met.reg }

// Tracer returns the tracer armed with WithTracing, nil when tracing is
// off.
func (e *Engine) Tracer() *telemetry.Tracer { return e.tracer }

// WithTracing arms per-run strand-level tracing: every worker records
// dispatch/steal/park/dyn/anchor events into the tracer's per-worker
// lanes, and each finished run is stitched into a telemetry.Trace
// (collect with Tracer.Take or Tracer.TakeLast). The tracer is bound to
// this engine's worker count; share one tracer across engines only if
// their worker counts match.
func WithTracing(tr *telemetry.Tracer) Option {
	return func(c *engineConfig) { c.tracer = tr }
}

// TraceEvent records an engine-level trace event from outside any
// worker. No-op when tracing is off; engine-level events (slot < 0) are
// also dropped while no traced run is in flight.
func (e *Engine) TraceEvent(kind telemetry.EventKind, slot, id int32, arg int64) {
	if tr := e.tracer; tr != nil {
		tr.Record(-1, kind, slot, id, arg)
	}
}

// TraceMark records a run-scoped trace event on the run's slot from
// outside any worker — the dyn JIT's record/replay marks ride this.
// Must not be called after Wait has returned (the slot may be reused).
func (r *Run) TraceMark(kind telemetry.EventKind, arg int64) {
	if tr := r.eng.tracer; tr != nil {
		tr.Record(-1, kind, r.slot, -1, arg)
	}
}

// The Note* methods below are the dyn runtime's metering surface: the
// counter ones always meter and additionally trace when armed; the
// trace-only ones compile to a single nil check when tracing is off.

// NoteDynDispatch traces a dynamic frame body starting on this worker.
func (w *Worker) NoteDynDispatch(slot, id int32) {
	if tr := w.e.tracer; tr != nil {
		tr.Record(w.self, telemetry.EvDynDispatch, slot, id, 0)
	}
}

// NoteDynComplete traces a dynamic frame body returning.
func (w *Worker) NoteDynComplete(slot, id int32) {
	if tr := w.e.tracer; tr != nil {
		tr.Record(w.self, telemetry.EvDynComplete, slot, id, 0)
	}
}

// NoteDynPark meters a frame suspending mid-body (future reports a
// future Get, otherwise a Sync).
func (w *Worker) NoteDynPark(slot, id int32, future bool) {
	w.e.met.dynParks.Inc(w.self)
	if tr := w.e.tracer; tr != nil {
		var arg int64
		if future {
			arg = 1
		}
		tr.Record(w.self, telemetry.EvDynPark, slot, id, arg)
	}
}

// NoteDynResume meters a suspended frame resuming on this worker.
func (w *Worker) NoteDynResume(slot, id int32) {
	w.e.met.dynResumes.Inc(w.self)
	if tr := w.e.tracer; tr != nil {
		tr.Record(w.self, telemetry.EvDynResume, slot, id, 0)
	}
}

// NoteDynDonate meters this worker donating its identity to a parked
// continuation.
func (w *Worker) NoteDynDonate(slot, id int32) {
	w.e.met.dynDonations.Inc(w.self)
	if tr := w.e.tracer; tr != nil {
		tr.Record(w.self, telemetry.EvDonate, slot, id, 0)
	}
}

// NoteDynWake traces a parked continuation being re-published from this
// worker (future Put or last-child completion).
func (w *Worker) NoteDynWake(slot, id int32) {
	if tr := w.e.tracer; tr != nil {
		tr.Record(w.self, telemetry.EvDynWake, slot, id, 0)
	}
}
