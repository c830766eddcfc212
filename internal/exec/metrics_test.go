package exec

import (
	"testing"

	"github.com/ndflow/ndflow/internal/telemetry"
)

// TestDynMeteringSurface drives the dyn runtime's metering surface
// through a worker of a closed engine (so no live worker shares its trace
// lane): the counter methods bump their counters with or without a
// tracer, and every method records its event, with the worker, strand and
// argument it was given, only when tracing is armed.
func TestDynMeteringSurface(t *testing.T) {
	const slot = 3
	type ev struct {
		kind   telemetry.EventKind
		worker int32
		id     int32
		arg    int64
	}
	want := []ev{
		{telemetry.EvDynDispatch, 1, 10, 0},
		{telemetry.EvDynComplete, 1, 11, 0},
		{telemetry.EvDynPark, 1, 12, 1},
		{telemetry.EvDynPark, 1, 13, 0},
		{telemetry.EvDynResume, 1, 14, 0},
		{telemetry.EvDonate, 1, 15, 0},
		{telemetry.EvDynWake, 1, 16, 0},
		{telemetry.EvJITRecord, -1, 17, 5},
		{telemetry.EvJITReplay, -1, -1, 6},
	}
	for _, traced := range []bool{false, true} {
		var trc *telemetry.Tracer
		var opts []Option
		if traced {
			trc = telemetry.NewTracer()
			opts = append(opts, WithTracing(trc))
		}
		e := NewEngine(2, opts...)
		e.Close()
		if traced {
			trc.RunStarted()
		}
		w := newWorker(e, 1)
		w.NoteDynDispatch(slot, 10)
		w.NoteDynComplete(slot, 11)
		w.NoteDynPark(slot, 12, true)
		w.NoteDynPark(slot, 13, false)
		w.NoteDynResume(slot, 14)
		w.NoteDynDonate(slot, 15)
		w.NoteDynWake(slot, 16)
		e.TraceEvent(telemetry.EvJITRecord, slot, 17, 5)
		(&Run{eng: e, slot: slot}).TraceMark(telemetry.EvJITReplay, 6)

		s := e.Metrics().Snapshot()
		for name, n := range map[string]uint64{
			telemetry.MDynParks: 2, telemetry.MDynResumes: 1, telemetry.MDynDonations: 1,
		} {
			if got := s.Get(name); got != n {
				t.Errorf("traced=%v: %s = %d, want %d", traced, name, got, n)
			}
		}
		if !traced {
			if e.Tracer() != nil {
				t.Fatal("an engine built without WithTracing reports a tracer")
			}
			continue
		}
		tr := trc.RunFinished(slot)
		if len(tr.Events) != len(want) {
			t.Fatalf("trace has %d events, want %d: %v", len(tr.Events), len(want), tr.Events)
		}
		for i, got := range tr.Events {
			g := ev{got.Kind, got.Worker, got.ID, got.Arg}
			if g != want[i] || got.Slot != slot {
				t.Errorf("event %d = %+v on slot %d, want %+v on slot %d", i, g, got.Slot, want[i], slot)
			}
		}
	}
}
