package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestEventIsFixedSize(t *testing.T) {
	if s := unsafe.Sizeof(Event{}); s != 32 {
		t.Fatalf("Event is %d bytes, want 32", s)
	}
}

// TestCacheLinePadding pins the padding of the structs that live
// contiguously and are written by different workers: each must be a
// positive multiple of a 64-byte cache line on the host architecture,
// so neighbours in a slice never share a line. A field added without
// rebalancing the padding tail fails here. It is a test, not a
// compile-time assertion, because lane is 52 bytes on 32-bit targets.
func TestCacheLinePadding(t *testing.T) {
	for name, size := range map[string]uintptr{
		"cell": unsafe.Sizeof(cell{}),
		"lane": unsafe.Sizeof(lane{}),
	} {
		if size == 0 || size%64 != 0 {
			t.Errorf("%s is %d bytes, want a positive multiple of 64; rebalance its padding tail", name, size)
		}
	}
}

func TestCounterShardingAndSum(t *testing.T) {
	r := NewRegistry(4 + 1)
	c := r.Counter("x_total")
	if c != r.Counter("x_total") {
		t.Fatal("Counter is not get-or-create")
	}
	var wg sync.WaitGroup
	for shard := 0; shard < 4; shard++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc(s)
			}
		}(shard)
	}
	wg.Wait()
	c.IncShared()
	c.AddShared(9)
	c.Add(-7, 5) // out of range: shared cell
	c.Add(99, 5) // out of range: shared cell
	if got := c.Value(); got != 4*1000+1+9+5+5 {
		t.Fatalf("Value = %d, want %d", got, 4*1000+20)
	}
	if r.Shards() != 5 {
		t.Fatalf("Shards = %d, want 5", r.Shards())
	}
}

func TestSnapshotDeltaAndGet(t *testing.T) {
	r := NewRegistry(2)
	a, b := r.Counter("a_total"), r.Counter("b_total")
	a.Add(0, 10)
	before := r.Snapshot()
	a.Add(1, 5)
	b.Inc(0)
	r.Counter("c_total").Add(0, 3) // registered mid-interval
	d := r.Snapshot().Delta(before)
	if d.Get("a_total") != 5 || d.Get("b_total") != 1 || d.Get("c_total") != 3 {
		t.Fatalf("Delta = %v", d.Values)
	}
	if d.Get("missing") != 0 {
		t.Fatal("missing counter should read 0")
	}
	if got := d.Names(); len(got) != 3 || got[0] != "a_total" || got[2] != "c_total" {
		t.Fatalf("Names = %v", got)
	}
	// A shrinking value (different registry) clamps rather than wraps.
	huge := Snapshot{Values: map[string]uint64{"a_total": 1 << 60}}
	if v, ok := r.Snapshot().Delta(huge).Values["a_total"]; ok {
		t.Fatalf("shrinking delta kept value %d, want dropped", v)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry(1)
	r.Counter("sched_steals_total").Add(0, 42)
	r.Counter("engine_runs_total").Add(0, 7)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf, "ndflow"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE ndflow_engine_runs_total counter\nndflow_engine_runs_total 7\n",
		"# TYPE ndflow_sched_steals_total counter\nndflow_sched_steals_total 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted: engine_ before sched_.
	if strings.Index(out, "engine_runs") > strings.Index(out, "sched_steals") {
		t.Fatalf("exposition not sorted:\n%s", out)
	}
}

func TestTracerUnboundAndGatedRecordsDrop(t *testing.T) {
	tr := NewTracer()
	tr.Record(0, EvDispatch, 0, 1, 0) // unbound: dropped, no panic
	tr.Bind(2)
	tr.Bind(2) // idempotent
	if tr.Workers() != 2 {
		t.Fatalf("Workers = %d, want 2", tr.Workers())
	}
	tr.Record(0, EvPark, -1, 0, 0) // engine-level with no live run: dropped
	tr.RunStarted()
	tr.Record(0, EvPark, -1, 0, 0) // kept
	got := tr.RunFinished(0)
	if len(got.Events) != 1 || got.Events[0].Kind != EvPark {
		t.Fatalf("events = %+v", got.Events)
	}
}

func TestTracerBindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rebinding to a different width did not panic")
		}
	}()
	tr := NewTracer()
	tr.Bind(2)
	tr.Bind(3)
}

func TestTracerStitchPartitionsBySlot(t *testing.T) {
	tr := NewTracer()
	tr.Bind(2)
	tr.RunStarted()
	tr.RunStarted()
	tr.Record(0, EvDispatch, 0, 10, 0)
	tr.Record(1, EvDispatch, 1, 20, 0)
	tr.Record(-1, EvUnpark, -1, 0, 0) // engine-level: lands in first finisher
	tr.Record(0, EvComplete, 0, 10, 0)
	tr.Record(1, EvComplete, 1, 20, 0)

	a := tr.RunFinished(0)
	if a.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", a.Workers)
	}
	ca := a.Counts()
	if ca[EvDispatch] != 1 || ca[EvComplete] != 1 || ca[EvUnpark] != 1 {
		t.Fatalf("slot-0 trace counts = %v", ca)
	}
	for _, e := range a.Events {
		if e.Slot == 1 {
			t.Fatalf("slot-1 event leaked into slot-0 trace: %+v", e)
		}
	}
	b := tr.RunFinished(1)
	cb := b.Counts()
	if cb[EvDispatch] != 1 || cb[EvComplete] != 1 || cb[EvUnpark] != 0 {
		t.Fatalf("slot-1 trace counts = %v", cb)
	}
	for i := 1; i < len(b.Events); i++ {
		if b.Events[i].TS < b.Events[i-1].TS {
			t.Fatal("stitched trace not time-ordered")
		}
	}

	// Take drains completion-ordered; TakeLast pops; Recycle pools.
	if got := tr.Take(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("Take = %v", got)
	}
	if tr.TakeLast() != nil {
		t.Fatal("TakeLast after drain should be nil")
	}
	tr.Recycle(a, nil, b)
	tr.RunStarted()
	c := tr.RunFinished(0)
	if c != b && c != a {
		t.Fatal("RunFinished did not reuse recycled trace storage")
	}
	if len(c.Events) != 0 {
		t.Fatalf("recycled trace kept stale events: %+v", c.Events)
	}
}

func TestEventKindString(t *testing.T) {
	if EvSteal.String() != "steal" || EvDynPark.String() != "dyn_park" {
		t.Fatal("kind names wrong")
	}
	if EventKind(-1).String() != "invalid" || evKinds.String() != "invalid" {
		t.Fatal("out-of-range kinds should stringify as invalid")
	}
	for k := EvNone; k < evKinds; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestWriteChromeRoundTrip(t *testing.T) {
	trc := &Trace{Workers: 2, Events: []Event{
		{TS: 0, Kind: EvRunStart, Slot: 0, ID: -1, Worker: -1, Arg: 2},
		{TS: 10, Kind: EvDispatch, Slot: 0, ID: 1, Worker: 0},
		{TS: 15, Kind: EvSteal, Slot: 0, ID: 2, Worker: 1, Arg: 0},
		{TS: 20, Kind: EvDispatch, Slot: 0, ID: 2, Worker: 1},
		{TS: 25, Kind: EvPark, Slot: -1, ID: 0, Worker: 0},
		{TS: 30, Kind: EvComplete, Slot: 0, ID: 1, Worker: 0},
		{TS: 35, Kind: EvDynDispatch, Slot: 0, ID: 3, Worker: 1},
		{TS: 40, Kind: EvDynPark, Slot: 0, ID: 3, Worker: 1, Arg: 1},
		{TS: 45, Kind: EvDynWake, Slot: 0, ID: 3, Worker: 0},
		{TS: 50, Kind: EvDynResume, Slot: 0, ID: 3, Worker: 1},
		{TS: 55, Kind: EvUnpark, Slot: -1, ID: 0, Worker: 0},
		{TS: 60, Kind: EvDynComplete, Slot: 0, ID: 3, Worker: 1},
		{TS: 70, Kind: EvRunEnd, Slot: 0, ID: -1, Worker: -1},
	}}
	var buf bytes.Buffer
	if err := trc.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TID  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			ID   int64   `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome JSON does not round-trip: %v", err)
	}
	var meta, slices, flowS, flowF int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			slices++
			if e.Dur < 0 {
				t.Fatalf("negative duration slice %+v", e)
			}
		case "s":
			flowS++
		case "f":
			flowF++
		}
	}
	if meta != 3 { // worker 0, worker 1, external
		t.Fatalf("thread_name metadata = %d, want 3", meta)
	}
	// strand 1, steal-opened strand 2 stays open (no complete), frame 3
	// body, frame 3 resumed segment, parked idle slice = 4 X events.
	if slices != 4 {
		t.Fatalf("duration slices = %d, want 4", slices)
	}
	// One steal arrow + one wake arrow.
	if flowS != 2 || flowF != 2 {
		t.Fatalf("flow events = %d starts / %d finishes, want 2/2", flowS, flowF)
	}
}
