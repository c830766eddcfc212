package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"github.com/ndflow/ndflow/internal/exec"
)

// workload is one of the benchmark's four load shapes. See README.md for
// why each exists and which layer it stresses.
type workload interface {
	// prepare generates the seeded inputs and the reference outputs they
	// are verified against, once per process. It is the harness's work
	// and is not part of setup_s.
	prepare(seed int64) error
	// setup is one complete set-up of the program: build the programs
	// from the prepared inputs, start an engine with the given worker
	// count, and run three warm cycles (the first compiles the programs
	// through the engine's cache). r, when non-nil, records the layer
	// calls; a counts the warm cycles' ops.
	setup(workers int, r *rec, a *acct, opts ...exec.Option) (instance, error)
	// specs lists the compiled programs one set-up builds, for the
	// per-layer dissection (core.*, exec.elision_ms, algos.nd_over_np_x).
	specs() []progSpec
}

// progSpec is one compiled program of a workload: which input, whether
// the workload strips its strand bodies, and how many times one cycle
// runs it.
type progSpec struct {
	in       *input
	nilBody  bool
	perCycle int
}

// instance is one set-up of a workload: programs plus a live engine.
type instance interface {
	// cycle runs the workload's fixed list of ops once and returns the
	// timed duration: the ops themselves, without the untimed restoring
	// of destroyed inputs and verifying of outputs around them.
	cycle(r *rec, a *acct) time.Duration
	engine() *exec.Engine
	// timeBodies swaps the strand closures of the instance's long-lived
	// programs for wrappers that add their run time to bodyNS (on), or
	// puts the originals back (off). Only called while the engine idles.
	timeBodies(on bool)
	bodyNS() int64
	// strandsPerCycle is the number of strands (compiled) and tasks
	// (dynamic) one cycle executes.
	strandsPerCycle() int
	close(r *rec)
}

// opDeadline fails the process when one op takes longer: the engine has
// hung, and a number computed around a hang would be meaningless.
const opDeadline = 10 * time.Second

// acct counts ops: attempted, failed, and failures by error type. The
// harness never aborts on an op error; it counts it.
type acct struct {
	ops, failed int
	byType      map[string]int
	// opStart is the running op's start (ns since procStart), 0 between
	// ops; the watchdog goroutine reads it.
	opStart atomic.Int64
}

var procStart = time.Now()

func newAcct() *acct { return &acct{byType: map[string]int{}} }

// begin marks an op started; the returned time starts its timing.
func (a *acct) begin() time.Time {
	t := time.Now()
	a.opStart.Store(int64(t.Sub(procStart)) | 1)
	return t
}

// done closes an op: err is its run's error, verified whether its output
// checked out.
func (a *acct) done(err error, verified bool) {
	a.opStart.Store(0)
	a.ops++
	switch {
	case err != nil:
		a.failed++
		a.byType[fmt.Sprintf("%T", err)]++
	case !verified:
		a.failed++
		a.byType["wrong-output"]++
	}
}

// watch starts the per-op deadline watchdog. A stuck op cannot be
// unblocked from outside the engine, so the watchdog reports it and ends
// the process without a result.
func (a *acct) watch(workload string) (stop func()) {
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if s := a.opStart.Load(); s != 0 && time.Since(procStart)-time.Duration(s) > opDeadline {
					fmt.Fprintf(os.Stderr, "bench: %s: an op exceeded its %v deadline after %d ops; the engine is hung, no result\n",
						workload, opDeadline, a.ops)
					os.Exit(3)
				}
			}
		}
	}()
	return func() { close(quit); <-exited }
}

// protocol holds the noise protocol's constants; short shrinks them for
// the test.
type protocol struct {
	window     time.Duration // length of one timed window
	setupFloor time.Duration // a set-up sample repeats set-ups until this long
}

var fullProtocol = protocol{window: time.Second, setupFloor: 250 * time.Millisecond}
var shortProtocol = protocol{window: 50 * time.Millisecond}

// windowAllocCap also ends a window: with the collector paused, the heap
// must not outgrow the box.
const windowAllocCap = 256 << 20

// winStat is what one window yields.
type winStat struct {
	median, p90 float64 // ns per cycle
	opsPerS     float64 // ops ÷ timed seconds, slowest tenth of the cycles left out
	cycles, ops int
	objs, bytes uint64 // heap objects and bytes allocated by the timed cycles
	probeMS     float64
	gcMS        float64
}

// runner runs windows. Its buffers are allocated once, before the
// retained-heap baseline is taken, so the harness's own memory is not
// charged to the workload.
type runner struct {
	p       protocol
	samples []float64
	sorted  []float64
	allocs  []metrics.Sample
	sweep   []byte
	sink    uint64
}

func newRunner(p protocol) *runner {
	return &runner{
		p:       p,
		samples: make([]float64, 0, 1<<17),
		sorted:  make([]float64, 0, 1<<17),
		allocs:  []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
		sweep:   make([]byte, 4<<20),
	}
}

func (rn *runner) allocated() uint64 {
	metrics.Read(rn.allocs)
	return rn.allocs[0].Value.Uint64()
}

// probe times a fixed piece of host work — a xorshift spin of about
// 10 ms and a sweep over 4 MiB — so a disturbed host is visible next to
// the window it preceded. It is reported only, never used to alter or
// drop a number.
func (rn *runner) probe() float64 {
	t := time.Now()
	x := uint64(88172645463325252) + rn.sink
	for i := 0; i < 6_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	for i := 0; i < len(rn.sweep); i += 64 {
		x += uint64(rn.sweep[i])
		rn.sweep[i] = byte(x)
	}
	rn.sink = x
	return float64(time.Since(t)) / 1e6
}

// window runs one timed window on the instance (protocol step 1): a
// full collection, one discarded cycle, then cycles until the window
// length or the allocation cap is reached. The collector stays paused
// (main sets GC percent to -1 for the whole process), so no GC cycle
// can land on some timed cycles and not on others.
func (rn *runner) window(in instance, r *rec, a *acct) winStat {
	var ws winStat
	t := time.Now()
	runtime.GC()
	ws.gcMS = float64(time.Since(t)) / 1e6
	ws.probeMS = rn.probe()
	in.cycle(nil, a) // discarded: re-warms caches the collection and the probe evicted

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0) // exact: flushes the per-P allocation caches
	ops0, body0 := a.ops, in.bodyNS()
	b0 := rn.allocated()
	rn.samples = rn.samples[:0]
	for start := time.Now(); ; {
		root := r.beginRoot("cycle")
		d := in.cycle(r, a)
		if r != nil {
			b := in.bodyNS()
			r.endRoot(root, b-body0)
			body0 = b
		}
		rn.samples = append(rn.samples, float64(d))
		if time.Since(start) >= rn.p.window || rn.allocated()-b0 >= windowAllocCap || len(rn.samples) == cap(rn.samples) {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	ws.cycles = len(rn.samples)
	ws.ops = a.ops - ops0
	ws.objs, ws.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	rn.sorted = append(rn.sorted[:0], rn.samples...)
	sort.Float64s(rn.sorted)
	ws.median = quantile(rn.sorted, 0.5)
	ws.p90 = quantile(rn.sorted, 0.9)
	// The rate leaves out the slowest tenth of the window's cycles: on a
	// shared host that tail is the host's, and a mean that includes it
	// repeats half as well as one that does not (NOISE.md).
	kept := rn.sorted[:int(math.Ceil(0.9*float64(ws.cycles)))]
	var sum float64
	for _, d := range kept {
		sum += d
	}
	ws.opsPerS = float64(ws.ops) / float64(ws.cycles) * float64(len(kept)) / (sum / 1e9)
	return ws
}

// freshWindow sets the workload up anew and runs one window on it. Every
// window gets its own set-up because where the allocator happens to put
// an engine's deques and trackers decides how its two workers' cache
// lines collide: on sched-replay one set-up runs 20 % slower than the
// next for as long as it lives. One long-lived set-up would turn that
// draw into a process-wide offset; a fresh one per window lets the
// quietest window also be the one with the ordinary layout. The caller
// reads what it needs off the instance and closes it.
func (rn *runner) freshWindow(w workload, workers int, r *rec, a *acct, opts ...exec.Option) (winStat, instance, error) {
	in, err := w.setup(workers, nil, a, opts...)
	if err != nil {
		return winStat{}, nil, err
	}
	if r != nil {
		in.timeBodies(true)
	}
	return rn.window(in, r, a), in, nil
}

// quantile reads the q-quantile off sorted values (nearest rank, the
// median of an even count being the mean of the middle two).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q == 0.5 && n%2 == 0 {
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quiet reduces a lane's windows to the quietest window's statistics
// (protocol step 3): noise on a shared host only adds time, so the
// minimum across windows of a window-level median keeps the program's
// own distribution and drops the host's disturbances.
type quiet struct {
	median, p90, opsPerS float64
	windows, cycles, ops int
	objs, bytes          uint64
}

func quietest(ws []winStat) quiet {
	q := quiet{median: math.Inf(1), p90: math.Inf(1)}
	for _, w := range ws {
		q.median = math.Min(q.median, w.median)
		q.p90 = math.Min(q.p90, w.p90)
		q.opsPerS = math.Max(q.opsPerS, w.opsPerS)
		q.windows++
		q.cycles += w.cycles
		q.ops += w.ops
		q.objs += w.objs
		q.bytes += w.bytes
	}
	return q
}

// setupSample is one set-up sample (protocol step 4): back-to-back
// complete set-ups until they last setupFloor together, each timed on
// its own (closing the engine between them is not set-up time), divided
// by their number.
func (rn *runner) setupSample(w workload, workers int, a *acct) (float64, error) {
	runtime.GC()
	var total time.Duration
	n := 0
	for total < rn.p.setupFloor || n == 0 {
		t := time.Now()
		in, err := w.setup(workers, nil, a)
		total += time.Since(t)
		if err != nil {
			return 0, err
		}
		n++
		in.close(nil)
	}
	return total.Seconds() / float64(n), nil
}

// lowerDecile is the set-up statistic: like the quietest window, it
// discards what the host added.
func lowerDecile(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.1)
}

// heapAlloc is the live heap after two full collections (the second
// clears what sync.Pool's victim cache kept through the first).
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// lanes interleaves several kinds of sample round-robin in proportion to
// their target counts (protocol step 2), so each metric samples the
// whole span of the run instead of one stretch of it.
type lanes struct {
	want, done []int
}

func newLanes(want ...int) *lanes { return &lanes{want: want, done: make([]int, len(want))} }

// next returns the lane furthest behind its target, -1 when all are met.
func (l *lanes) next() int {
	best, bestFrac := -1, 2.0
	for i, w := range l.want {
		if l.done[i] >= w {
			continue
		}
		if f := float64(l.done[i]) / float64(w); f < bestFrac {
			best, bestFrac = i, f
		}
	}
	if best >= 0 {
		l.done[best]++
	}
	return best
}
