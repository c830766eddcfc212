package main

import (
	"fmt"
	"math"
	"os"
	"runtime"

	"github.com/ndflow/ndflow/internal/telemetry"
)

// metric is one printed number.
type metric struct {
	name, unit string
}

// endToEnd is the list every workload reports, in print order; it must
// match BENCHMARK.json's end_to_end (bench_test.go checks).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cycle_ms_p50", "ms"},
	{"cycle_ms_p50_w1", "ms"},
	{"ops_per_s", "1/s"},
	{"allocs_per_op_plus1", "count"},
	{"kib_per_op_plus1", "KiB"},
	{"retained_heap_mb", "MB"},
	{"ok_share", "share"},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measuring budget of one run
	short    bool    // test scale: 2 windows of 50 ms per lane, 2 set-up samples
	verbose  bool    // print every window and set-up sample to standard error
	outDir   string  // where the traced run writes trace-<workload>.json
}

func (c config) protocol() protocol {
	if c.short {
		return shortProtocol
	}
	return fullProtocol
}

// count scales a window count to the run's budget: share of the budget
// in seconds over the window length, at least two. Window counts give
// way to a smaller budget; window length never does.
func (c config) count(share float64) int {
	if c.short {
		return 2
	}
	return max(2, int(math.Round(share*c.seconds/fullProtocol.window.Seconds())))
}

// workers is W: min(nproc, 4). The harness pins GOMAXPROCS to it so a
// bigger box does not change the load shape.
func workers() int { return min(runtime.NumCPU(), 4) }

// outcome is what one measuring pass returns.
type outcome struct {
	values            map[string]float64
	attempted, failed int
	byType            map[string]int
	note              string
}

func (o *outcome) book(a *acct) {
	o.attempted, o.failed, o.byType = a.ops, a.failed, a.byType
}

// measureEndToEnd is the untraced pass: the eight end-to-end metrics of
// one workload, per the noise protocol in README.md.
func measureEndToEnd(c config) (*outcome, error) {
	w, err := newWorkload(c.workload)
	if err != nil {
		return nil, err
	}
	W := workers()
	a := newAcct()
	defer a.watch(c.workload)()
	rn := newRunner(c.protocol())
	if err := w.prepare(c.seed); err != nil {
		return nil, err
	}
	setups := make([]float64, 0, 64)
	var winW, win1 []winStat
	var rescues uint64

	heap0 := heapAlloc()
	sample := func() (float64, error) {
		s, err := rn.setupSample(w, W, a)
		setups = append(setups, s)
		if c.verbose {
			fmt.Fprintf(os.Stderr, "set-up sample %.5f s\n", s)
		}
		return s, err
	}
	first, err := sample()
	if err != nil {
		return nil, err
	}

	// Half the budget to windows at W, a quarter to the one-worker
	// baseline (it is the steadier of the two), a fifth to set-up samples.
	nSetup := 1
	if !c.short {
		nSetup = max(3, int(0.2*c.seconds/math.Max(first, rn.p.setupFloor.Seconds()))-1)
	}
	var lastW instance // the latest W set-up stays live for retained_heap_mb
	ln := newLanes(c.count(0.5), c.count(0.25), nSetup)
	for lane := ln.next(); lane >= 0; lane = ln.next() {
		switch lane {
		case 0:
			if lastW != nil {
				rescues += retire(lastW).Get(telemetry.MRescues)
			}
			var ws winStat
			if ws, lastW, err = rn.freshWindow(w, W, nil, a); err != nil {
				return nil, err
			}
			winW = append(winW, ws)
			c.logWindow("W ", ws)
		case 1:
			ws, in, err := rn.freshWindow(w, 1, nil, a)
			if err != nil {
				return nil, err
			}
			rescues += retire(in).Get(telemetry.MRescues)
			win1 = append(win1, ws)
			c.logWindow("w1", ws)
		case 2:
			if _, err := sample(); err != nil {
				return nil, err
			}
		}
	}
	retained := float64(heapAlloc()) - float64(heap0)
	// What was live at the baseline must be live here too, or its size
	// would be credited to the workload.
	runtime.KeepAlive(rn)
	runtime.KeepAlive(w)
	rescues += retire(lastW).Get(telemetry.MRescues)

	qW, q1 := quietest(winW), quietest(win1)
	o := &outcome{values: map[string]float64{
		"setup_s":             lowerDecile(setups),
		"cycle_ms_p50":        qW.median / 1e6,
		"cycle_ms_p50_w1":     q1.median / 1e6,
		"ops_per_s":           qW.opsPerS,
		"allocs_per_op_plus1": 1 + float64(qW.objs)/float64(qW.ops),
		"kib_per_op_plus1":    1 + float64(qW.bytes)/1024/float64(qW.ops),
		"retained_heap_mb":    retained / 1e6,
		"ok_share":            float64(a.ops-a.failed) / float64(a.ops),
	}}
	o.book(a)
	o.note = fmt.Sprintf("W=%d: %d windows, %d cycles (%.0f per window); 1 worker: %d windows, %d cycles; %d set-up samples; watchdog rescues %d",
		W, qW.windows, qW.cycles, float64(qW.cycles)/float64(qW.windows), q1.windows, q1.cycles, len(setups), rescues)
	return o, nil
}

// logWindow prints one window's statistics to standard error under -v:
// the view that shows whether a spread comes from the host (one window
// in a dozen is slow) or from the program (the windows disagree).
func (c config) logWindow(lane string, w winStat) {
	if c.verbose {
		fmt.Fprintf(os.Stderr, "window %s median %.4f ms  p90 %.4f ms  %.0f ops/s  %d cycles  probe %.2f ms  gc %.2f ms\n",
			lane, w.median/1e6, w.p90/1e6, w.opsPerS, w.cycles, w.probeMS, w.gcMS)
	}
}

// retire reads an instance's lifetime counters and closes it.
func retire(in instance) telemetry.Snapshot {
	s := in.engine().Metrics().Snapshot()
	in.close(nil)
	return s
}
