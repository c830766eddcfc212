// Structural tests for the strand-level tracer: every algorithm builder
// executed on a traced engine must yield a trace whose event stream is
// sound — each dispatched strand completes exactly once, dispatch count
// equals the graph's strand count, steal records name in-range victims —
// and whose Chrome trace_event export is well-formed JSON. A traced
// chaos run must still fail typed while producing an exportable trace,
// and a
// traced dynamic run must surface the suspension machinery (park,
// donation, resume) as events.
package ndflow_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/dyn"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/telemetry"
)

const traceWorkers = 4

// takeTrace drains the single stitched trace a just-finished run left on
// the tracer.
func takeTrace(t *testing.T, trc *telemetry.Tracer) *telemetry.Trace {
	t.Helper()
	tr := trc.TakeLast()
	if tr == nil {
		t.Fatal("no stitched trace after run")
	}
	return tr
}

// checkChromeJSON exports the trace and round-trips it through
// encoding/json, returning the decoded event objects.
func checkChromeJSON(t *testing.T, tr *telemetry.Trace) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) == 0 {
		t.Fatal("chrome export decoded to zero events")
	}
	return decoded.TraceEvents
}

// TestTraceIntegrity runs every differential-suite builder on a traced
// engine and checks the structural invariants of each
// stitched trace.
func TestTraceIntegrity(t *testing.T) {
	trc := telemetry.NewTracer()
	eng := diffEngine(exec.WithTracing(trc))
	defer eng.Close()
	for _, c := range diffCases() {
		model := c.models[len(c.models)-1]
		t.Run(fmt.Sprintf("%s/%s", c.name, model), func(t *testing.T) {
			g, _, err := c.build(model)
			if err != nil {
				t.Fatal(err)
			}
			if err := submitTo(eng)(g); err != nil {
				t.Fatal(err)
			}
			tr := takeTrace(t, trc)
			defer trc.Recycle(tr)
			strands := g.Exec().NumStrands()

			type frameKey struct{ slot, id int32 }
			open := make(map[frameKey]int)
			var starts, ends, dispatches, completes int
			for _, ev := range tr.Events {
				if int(ev.Worker) >= tr.Workers {
					t.Fatalf("event %v on worker %d of %d", ev.Kind, ev.Worker, tr.Workers)
				}
				switch ev.Kind {
				case telemetry.EvRunStart:
					starts++
					if int(ev.Arg) != strands {
						t.Fatalf("EvRunStart carries %d strands, graph has %d", ev.Arg, strands)
					}
				case telemetry.EvRunEnd:
					ends++
				case telemetry.EvDispatch:
					dispatches++
					open[frameKey{ev.Slot, ev.ID}]++
				case telemetry.EvComplete:
					completes++
					k := frameKey{ev.Slot, ev.ID}
					open[k]--
					if open[k] < 0 {
						t.Fatalf("strand %d completed without a dispatch", ev.ID)
					}
				case telemetry.EvSteal:
					if ev.Arg < 0 || ev.Arg >= int64(tr.Workers) {
						t.Fatalf("steal victim %d out of range [0, %d)", ev.Arg, tr.Workers)
					}
				}
			}
			if starts != 1 || ends != 1 {
				t.Fatalf("trace has %d EvRunStart and %d EvRunEnd, want 1 and 1", starts, ends)
			}
			if dispatches != strands {
				t.Fatalf("trace has %d dispatches for %d strands", dispatches, strands)
			}
			if completes != dispatches {
				t.Fatalf("%d completes for %d dispatches", completes, dispatches)
			}
			for k, n := range open {
				if n != 0 {
					t.Fatalf("strand %d (slot %d) left %d unmatched dispatches", k.id, k.slot, n)
				}
			}
			checkChromeJSON(t, tr)
		})
	}
}

// TestChaosTraced arms tracing and the fault injector together: the run
// must still fail typed (panic containment is unchanged by tracing), the
// stitched trace must record the failure, and the Chrome export must
// stay well-formed.
func TestChaosTraced(t *testing.T) {
	// The subtest is named for the engine's steal order: thieves take
	// the oldest work first.
	t.Run("fifo", chaosTraced)
}

func chaosTraced(t *testing.T) {
	var fwCase diffCase
	for _, c := range diffCases() {
		if c.name == "FW-1D" {
			fwCase = c
		}
	}
	var armed atomic.Bool
	trc := telemetry.NewTracer()
	eng := diffEngine(
		exec.WithTracing(trc),
		exec.WithFaultInjector(func(strand int32) exec.Fault {
			if armed.Load() && strand == 7 {
				return exec.FaultPanic
			}
			return exec.FaultNone
		}))
	defer eng.Close()
	g, _, err := fwCase.build(algos.ND)
	if err != nil {
		t.Fatal(err)
	}

	// A disarmed traced run succeeds and stitches normally.
	if err := eng.Run(g.P); err != nil {
		t.Fatal(err)
	}
	trc.Recycle(takeTrace(t, trc))

	armed.Store(true)
	var spe *exec.StrandPanicError
	if err := submitTo(eng)(g); !errors.As(err, &spe) {
		t.Fatalf("traced chaos run returned %v, want *StrandPanicError", err)
	}
	tr := takeTrace(t, trc)
	defer trc.Recycle(tr)
	if fails := tr.Counts()[telemetry.EvRunFail]; fails != 1 {
		t.Fatalf("failed run's trace has %d EvRunFail events, want 1", fails)
	}
	checkChromeJSON(t, tr)
}

// TestTraceDynSuspension runs a dynamic program whose root strand parks
// on an unresolved future (the resolving child sleeps first) and checks
// the suspension machinery surfaces in the trace: the future park, the
// worker-identity donation to the parked continuation, and the resume.
func TestTraceDynSuspension(t *testing.T) {
	trc := telemetry.NewTracer()
	eng := exec.NewEngine(2, exec.WithTracing(trc))
	defer eng.Close()
	for attempt := 0; attempt < 50; attempt++ {
		fut := dyn.NewFuture()
		root := func(c *dyn.Context) {
			c.Spawn(func(cc *dyn.Context) {
				time.Sleep(2 * time.Millisecond) // let the parent reach Get first
				fut.Put(cc, 42)
			})
			if v := fut.Get(c); v != 42 {
				panic("future resolved to the wrong value")
			}
		}
		if err := dyn.Run(eng, root); err != nil {
			t.Fatal(err)
		}
		tr := takeTrace(t, trc)
		counts := map[telemetry.EventKind]int{}
		for _, ev := range tr.Events {
			counts[ev.Kind]++
		}
		trc.Recycle(tr)
		if counts[telemetry.EvDynPark] > 0 {
			if counts[telemetry.EvDynResume] == 0 {
				t.Fatal("trace has a dyn park but no resume")
			}
			if counts[telemetry.EvDonate] == 0 {
				t.Fatal("trace has a dyn park but no worker donation")
			}
			return
		}
		// The child won the race and resolved before the Get; retry.
	}
	t.Fatal("no run parked on the future in 50 attempts")
}
