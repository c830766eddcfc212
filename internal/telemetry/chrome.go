package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace_event format's
// JSON-array flavor (the subset about:tracing and Perfetto both read).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const chromePID = 1

// tid maps an event to its Chrome track: one per worker, plus a final
// "external" track for submitters and resolvers outside the pool.
func (tr *Trace) tid(e Event) int {
	if e.Worker >= 0 && int(e.Worker) < tr.Workers {
		return int(e.Worker)
	}
	return tr.Workers
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// openSeg tracks an in-progress duration slice on one track.
type openSeg struct {
	ts   int64
	name string
	open bool
}

// WriteChrome writes the trace as Chrome trace_event JSON: one track
// per worker (plus an "external" track), duration slices for strand and
// frame bodies (and parked idle time), instants for scheduler events,
// and flow arrows from steal victims to thieves and from future wakes
// to the resumed frames. Load the output in chrome://tracing or
// ui.perfetto.dev.
func (tr *Trace) WriteChrome(w io.Writer) error {
	out := chromeTrace{DisplayTimeUnit: "ns"}
	emit := func(e chromeEvent) { out.TraceEvents = append(out.TraceEvents, e) }

	for t := 0; t <= tr.Workers; t++ {
		name := fmt.Sprintf("worker %d", t)
		if t == tr.Workers {
			name = "external"
		}
		emit(chromeEvent{Name: "thread_name", Ph: "M", PID: chromePID, TID: t,
			Args: map[string]any{"name": name}})
	}

	// Duration slices are synthesized by open/close matching per track:
	// dispatches and resumes open a segment, completes and parks close
	// it. This tolerates mid-body suspension — a frame that parks closes
	// its slice and the resume (possibly on another worker) opens a new
	// one — where strict B/E nesting would not.
	busy := make([]openSeg, tr.Workers+1)
	idle := make([]openSeg, tr.Workers+1)
	// wakes maps a (slot, frame) key to pending wake timestamps, paired
	// FIFO with the frame's next resume or dispatch. Frame indices are
	// reused within a run, hence the queue rather than a single slot.
	type frameKey struct{ slot, id int32 }
	wakes := make(map[frameKey][]int64)
	var flowSeq int64

	flow := func(name string, fromTID int, fromTS int64, toTID int, toTS int64) {
		flowSeq++
		emit(chromeEvent{Name: name, Cat: name, Ph: "s", TS: usec(fromTS),
			PID: chromePID, TID: fromTID, ID: flowSeq})
		emit(chromeEvent{Name: name, Cat: name, Ph: "f", BP: "e", TS: usec(toTS),
			PID: chromePID, TID: toTID, ID: flowSeq})
	}
	instant := func(e Event, args map[string]any) {
		emit(chromeEvent{Name: e.Kind.String(), Cat: "sched", Ph: "i", TS: usec(e.TS),
			PID: chromePID, TID: tr.tid(e), Args: args})
	}

	for _, e := range tr.Events {
		t := tr.tid(e)
		switch e.Kind {
		case EvDispatch:
			busy[t] = openSeg{ts: e.TS, name: fmt.Sprintf("strand %d", e.ID), open: true}
		case EvDynDispatch:
			busy[t] = openSeg{ts: e.TS, name: fmt.Sprintf("frame %d", e.ID), open: true}
			if q := wakes[frameKey{e.Slot, e.ID}]; len(q) > 0 {
				// A gated spawn published by a wake: draw the arrow to
				// its first dispatch.
				flow("wake", t, q[0], t, e.TS)
				wakes[frameKey{e.Slot, e.ID}] = q[1:]
			}
		case EvDynResume:
			busy[t] = openSeg{ts: e.TS, name: fmt.Sprintf("frame %d (resumed)", e.ID), open: true}
			if q := wakes[frameKey{e.Slot, e.ID}]; len(q) > 0 {
				flow("wake", t, q[0], t, e.TS)
				wakes[frameKey{e.Slot, e.ID}] = q[1:]
			}
		case EvComplete, EvDynComplete, EvDynPark:
			if s := busy[t]; s.open {
				emit(chromeEvent{Name: s.name, Cat: "strand", Ph: "X", TS: usec(s.ts),
					Dur: usec(e.TS - s.ts), PID: chromePID, TID: t})
				busy[t].open = false
			}
			if e.Kind == EvDynPark {
				why := "sync"
				if e.Arg != 0 {
					why = "future"
				}
				instant(e, map[string]any{"frame": e.ID, "on": why})
			}
		case EvPark:
			idle[t] = openSeg{ts: e.TS, name: "parked", open: true}
		case EvUnpark:
			if s := idle[t]; s.open {
				emit(chromeEvent{Name: s.name, Cat: "idle", Ph: "X", TS: usec(s.ts),
					Dur: usec(e.TS - s.ts), PID: chromePID, TID: t})
				idle[t].open = false
			}
		case EvSteal:
			if e.Arg >= 0 && e.Arg < int64(tr.Workers) {
				flow("steal", int(e.Arg), e.TS, t, e.TS)
			}
			instant(e, map[string]any{"victim": e.Arg, "strand": e.ID})
		case EvDynWake:
			wakes[frameKey{e.Slot, e.ID}] = append(wakes[frameKey{e.Slot, e.ID}], e.TS)
			instant(e, map[string]any{"frame": e.ID})
		case EvDonate:
			instant(e, map[string]any{"frame": e.ID})
		case EvRunStart:
			instant(e, map[string]any{"slot": e.Slot, "strands": e.Arg})
		case EvRunEnd, EvRunFail, EvRunCancel:
			instant(e, map[string]any{"slot": e.Slot})
		case EvJITRecord, EvJITReplay, EvJITDiverge:
			instant(e, map[string]any{"slot": e.Slot})
		default:
			instant(e, nil)
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
