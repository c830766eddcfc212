package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/dyn"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// perLayer is the list of single-layer metrics every workload prints in
// the traced pass, in print order; it must match BENCHMARK.json's
// per_layer (bench_test.go checks). A metric a workload has no call for
// (dyn.* outside serve-mix, algos.mm_ms where no MM runs) reads 0.
// README.md defines each one.
var perLayer = []metric{
	{"core.newprogram_us", "us"},
	{"core.rewrite_us", "us"},
	{"core.rewrite_ns_per_vertex", "ns"},
	{"core.wake_us", "us"},
	{"core.rewrite_allocs", "count"},
	{"core.rewrite_kib", "KiB"},
	{"core.time_share", "share"},

	{"algos.build_us", "us"},
	{"algos.mm_ms", "ms"},
	{"algos.trs_ms", "ms"},
	{"algos.cholesky_ms", "ms"},
	{"algos.lu_ms", "ms"},
	{"algos.fw1d_ms", "ms"},
	{"algos.lcs_ms", "ms"},
	{"algos.mflops_computed", "mflop/s"},
	{"algos.nd_over_np_x", "x"},
	{"algos.time_share", "share"},

	{"exec.engine_start_us", "us"},
	{"exec.engine_close_us", "us"},
	{"exec.new_instance_us", "us"},
	{"exec.submit_us", "us"},
	{"exec.wait_us", "us"},
	{"exec.fw1d_run_us", "us"},
	{"exec.fw1d_run_us_w1", "us"},
	{"exec.ns_per_strand", "ns"},
	{"exec.ns_per_strand_w1", "ns"},
	{"exec.speedup_x", "x"},
	{"exec.elision_ms", "ms"},
	{"exec.overhead_x", "x"},
	{"exec.steals_per_run", "count"},
	{"exec.parks_per_run", "count"},
	{"exec.injects_per_run", "count"},
	{"exec.rescues", "count"},
	{"exec.runs_failed", "count"},
	{"exec.inst_hit_share", "share"},
	{"exec.prog_hit_share", "share"},
	{"exec.evictions_per_cycle", "count"},
	{"exec.steal_bound_x", "x"},
	{"exec.time_share", "share"},

	{"dyn.spawnjoin_ns_per_task", "ns"},
	{"dyn.future_ns_per_task", "ns"},
	{"dyn.pipeline_us_per_item", "us"},
	{"dyn.replay_live_ns_per_strand", "ns"},
	{"dyn.jit_ns_per_strand", "ns"},
	{"dyn.jit_hit_share", "share"},
	{"dyn.jit_ladder_us", "us"},
	{"dyn.strand_deps_us", "us"},
	{"dyn.parks_per_run", "count"},
	{"dyn.resumes_per_run", "count"},
	{"dyn.donations_per_run", "count"},
	{"dyn.allocs_per_task", "count"},
	{"dyn.time_share", "share"},

	{"telemetry.trace_overhead_x", "x"},
	{"telemetry.events_per_run", "count"},
	{"telemetry.snapshot_us", "us"},

	{"cycle_ms_p90", "ms"},

	{"harness.span_overhead_x", "x"},
	{"harness.probe_ms", "ms"},
	{"harness.disturbed_share", "share"},
	{"harness.windows", "count"},
	{"harness.cycles", "count"},
	{"harness.gc_between_ms", "ms"},
	{"harness.workers", "count"},
}

// ratio is a/b, 0 when b is 0: a share of nothing reads 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// med is the median of sorted durations, 0 when there are none.
func med(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return quantile(sorted, 0.5)
}

// facts is what dissecting a workload's programs yields besides spans.
type facts struct {
	specs         []progSpec
	probs         []*problem    // one fresh, never-run ND problem per spec
	graphs        []*core.Graph // its rewritten graph
	vertices      int           // event-graph vertices, all programs
	spanPerCycle  int           // Σ runs per cycle × T∞ in strands
	flopsPerCycle float64       // Σ runs per cycle × flops, live programs
	allocs, kib   float64       // of Rewrite, all programs
}

// dissect takes one set-up apart, from outside: for each compiled
// program of the workload it times re-freezing the spawn tree
// (core.NewProgram), Rewrite with its allocations, the wake-graph
// collapse and NewInstance, each in its own span, then runs the
// workload's own set-up and close with spans on. The untraced set-up
// samples behind setup_s do none of this.
func dissect(w workload, workers int, r *rec, a *acct) (*facts, error) {
	root := r.beginRoot("setup")
	defer func() { r.end(root) }()
	f := &facts{specs: w.specs()}
	var m0, m1 runtime.MemStats
	for _, ps := range f.specs {
		p, err := ps.in.build(algos.ND)
		if err != nil {
			return nil, err
		}
		if ps.nilBody {
			stripBodies(p.prog)
		}
		s := r.begin(lCore, "NewProgram")
		_, err = core.NewProgram(p.prog.Root, p.prog.Rules)
		r.end(s)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m0)
		s = r.begin(lCore, "Rewrite")
		g, err := core.Rewrite(p.prog)
		r.end(s)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		f.allocs += float64(m1.Mallocs - m0.Mallocs)
		f.kib += float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
		eg := g.Exec()
		s = r.begin(lCore, "Wake")
		eg.Wake()
		r.end(s)
		s = r.begin(lExec, "NewInstance")
		exec.NewInstance(eg)
		r.end(s)

		if !ps.nilBody {
			p.keepInit() // the probes below run it more than once
		}
		f.probs, f.graphs = append(f.probs, p), append(f.graphs, g)
		f.vertices += eg.NumVertices()
		f.spanPerCycle += ps.perCycle * spanStrands(eg, dyn.StrandDeps(eg))
		if !ps.nilBody {
			f.flopsPerCycle += float64(ps.perCycle) * ps.in.spec.flops()
		}
	}
	in, err := w.setup(workers, r, a)
	if err != nil {
		return nil, err
	}
	in.close(r)
	return f, nil
}

// timeOps times k calls of op, each after an untimed prep (nil: none) and
// each booked in a, and returns the sorted durations in nanoseconds.
func timeOps(k int, a *acct, prep func(), op func() (err error, verified bool)) []float64 {
	d := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		if prep != nil {
			prep()
		}
		t := a.begin()
		err, ok := op()
		d = append(d, float64(time.Since(t)))
		a.done(err, err != nil || ok)
	}
	sort.Float64s(d)
	return d
}

// elision is exec.elision_ms: the serial elision (exec.RunElision) of
// the workload's compiled programs, each weighted by its runs per cycle.
// It is the plain single-threaded baseline exec.overhead_x divides by.
func elision(f *facts, k int, a *acct) float64 {
	var ns float64
	for i, p := range f.probs {
		g := f.graphs[i]
		if f.specs[i].nilBody {
			ns += float64(f.specs[i].perCycle) * med(timeOps(k, a, nil, func() (error, bool) {
				return exec.RunElision(g), true
			}))
			continue
		}
		ns += float64(f.specs[i].perCycle) * med(timeOps(k, a, p.restore, func() (error, bool) {
			return exec.RunElision(g), p.verify()
		}))
	}
	return ns / 1e6
}

// ndOverNP is algos.nd_over_np_x: the workload's live programs run on
// the engine in the ND model and in the NP model (same spawn tree, ";"
// where ND has fire constructs), ND time over NP time. Below 1, the
// paper's claim holds on this box at W workers. Both models compute the
// serial elision's result, and both are verified against it.
func ndOverNP(f *facts, e *exec.Engine, k int, a *acct) (float64, error) {
	var nd, np float64
	for i, ps := range f.specs {
		if ps.nilBody {
			continue
		}
		twin, err := ps.in.build(algos.NP)
		if err != nil {
			return 0, err
		}
		twin.keepInit()
		gNP, err := core.Rewrite(twin.prog)
		if err != nil {
			return 0, err
		}
		onEngine := func(p *problem, g *core.Graph) float64 {
			return med(timeOps(k, a, p.restore, func() (error, bool) {
				run, err := e.Submit(g)
				if err != nil {
					return err, false
				}
				return run.Wait(), p.verify()
			}))
		}
		nd += float64(ps.perCycle) * onEngine(f.probs[i], f.graphs[i])
		np += float64(ps.perCycle) * onEngine(twin, gNP)
	}
	return ratio(nd, np), nil
}

// prober is implemented by instances with per-layer probes of their own
// (serve-mix: the dynamic shapes; sched-replay: the FW-1D yardstick),
// each run k times on the idle engine.
type prober interface {
	probes(k int, v map[string]float64, a *acct)
}

// measureLayers is the traced pass: the per-layer metrics of one
// workload, and bench/out/trace-<workload>.json. End-to-end numbers
// never come from here.
func measureLayers(c config) (*outcome, error) {
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
	v := map[string]float64{}
	for _, m := range perLayer {
		v[m.name] = 0
	}
	k := 1 // repetitions of the small probes
	if !c.short {
		k = 5
	}

	// Set-up, taken apart.
	sr := newRec()
	var f *facts
	for i := 0; i < min(k, 3); i++ {
		runtime.GC()
		if f, err = dissect(w, W, sr, a); err != nil {
			return nil, err
		}
	}
	us := func(l layer, name string) float64 { return med(sr.perCycle(l, name)) / 1e3 }
	v["core.newprogram_us"] = us(lCore, "NewProgram")
	v["core.rewrite_us"] = us(lCore, "Rewrite")
	v["core.rewrite_ns_per_vertex"] = ratio(v["core.rewrite_us"]*1e3, float64(f.vertices))
	v["core.wake_us"] = us(lCore, "Wake")
	v["core.rewrite_allocs"], v["core.rewrite_kib"] = f.allocs, f.kib
	v["algos.build_us"] = us(lAlgos, "build")
	v["exec.engine_start_us"] = med(sr.durations(lExec, "NewEngine")) / 1e3
	v["exec.engine_close_us"] = med(sr.durations(lExec, "Close")) / 1e3
	v["exec.new_instance_us"] = med(sr.durations(lExec, "NewInstance")) / 1e3
	v["dyn.jit_ladder_us"] = us(lDyn, "jit-ladder")
	v["dyn.strand_deps_us"] = us(lDyn, "StrandDeps")

	// Windows, each on a fresh set-up: untraced at W and at one worker
	// (the baselines), traced at W, and untraced on an engine with the
	// strand tracer armed. retire books an instance's lifetime counters
	// and closes it; rescues and failed runs must both stay 0.
	cr := newRec()
	var wins [4][]winStat
	counters := map[string]float64{} // summed over the traced set-ups' lives
	var events, tracedRuns, strands float64
	retireBooked := func(in instance) telemetry.Snapshot {
		s := retire(in)
		v["exec.rescues"] += float64(s.Get(telemetry.MRescues))
		v["exec.runs_failed"] += float64(s.Get(telemetry.MRunsFailed) + s.Get(telemetry.MRunsCanceled))
		return s
	}
	ln := newLanes(c.count(1.0/6), c.count(1.0/8), min(4, c.count(1.0/6)), 2)
	for lane := ln.next(); lane >= 0; lane = ln.next() {
		var ws winStat
		var in instance
		switch lane {
		case 0:
			ws, in, err = rn.freshWindow(w, W, nil, a)
		case 1:
			ws, in, err = rn.freshWindow(w, 1, nil, a)
		case 2:
			ws, in, err = rn.freshWindow(w, W, cr, a)
		case 3:
			tr := telemetry.NewTracer()
			if in, err = w.setup(W, nil, a, exec.WithTracing(tr)); err == nil {
				tr.Recycle(tr.Take()...)
				ar := &armed{instance: in, tr: tr}
				ws = rn.window(ar, nil, a)
				events, tracedRuns = events+float64(ar.events), tracedRuns+float64(ar.runs)
			}
		}
		if err != nil {
			return nil, err
		}
		wins[lane] = append(wins[lane], ws)
		strands = float64(in.strandsPerCycle())
		if s := retireBooked(in); lane == 2 {
			for n, x := range s.Values {
				counters[n] += float64(x)
			}
		}
	}
	qU, q1, qT, qA := quietest(wins[0]), quietest(wins[1]), quietest(wins[2]), quietest(wins[3])

	// Where the traced cycles' time went.
	self, timed := cr.selfTimes(W)
	for _, l := range []layer{lCore, lAlgos, lExec, lDyn} {
		v[layerNames[l]+".time_share"] = ratio(self[l], timed)
	}
	v["exec.submit_us"] = med(mergeSorted(cr.durations(lExec, "SubmitProgram"), cr.durations(lExec, "SubmitInstance"))) / 1e3
	v["exec.wait_us"] = med(cr.durations(lExec, "Wait")) / 1e3
	for _, kd := range []kind{kMM, kTRS, kCholesky, kLU, kFW, kLCS} {
		v["algos."+string(kd)+"_ms"] = med(cr.durations(lHarness, string(kd))) / 1e6
	}
	v["algos.mflops_computed"] = ratio(f.flopsPerCycle*1e3, qU.median)
	v["exec.ns_per_strand"] = ratio(qU.median, strands)
	v["exec.ns_per_strand_w1"] = ratio(q1.median, strands)
	v["exec.speedup_x"] = ratio(q1.median, qU.median)
	v["cycle_ms_p90"] = qU.p90 / 1e6

	// Counters over the traced set-ups' whole lives: the warm cycles and
	// each window's discarded cycle are on both sides of every ratio.
	get := func(name string) float64 { return counters[name] }
	runs, cycles := get(telemetry.MRuns), float64(qT.cycles+qT.windows*(1+warmCycles))
	v["exec.steals_per_run"] = ratio(get(telemetry.MSteals), runs)
	v["exec.parks_per_run"] = ratio(get(telemetry.MParks), runs)
	v["exec.injects_per_run"] = ratio(get(telemetry.MInjects), runs)
	v["exec.inst_hit_share"] = ratio(get(telemetry.MInstHits), get(telemetry.MInstHits)+get(telemetry.MInstMisses))
	v["exec.prog_hit_share"] = ratio(get(telemetry.MProgHits), get(telemetry.MProgHits)+get(telemetry.MProgMisses))
	v["exec.evictions_per_cycle"] = ratio(get(telemetry.MEvictions), cycles)
	v["exec.steal_bound_x"] = ratio(get(telemetry.MSteals)/cycles, float64(W*f.spanPerCycle))
	v["dyn.parks_per_run"] = ratio(get(telemetry.MDynParks), runs)
	v["dyn.resumes_per_run"] = ratio(get(telemetry.MDynResumes), runs)
	v["dyn.donations_per_run"] = ratio(get(telemetry.MDynDonations), runs)
	v["dyn.jit_hit_share"] = ratio(get(telemetry.MJITHits), get(telemetry.MJITReplays))
	v["telemetry.trace_overhead_x"] = ratio(qA.median, qU.median)
	v["telemetry.events_per_run"] = ratio(events, tracedRuns)

	// Probes, on one more set-up whose engine idles between them.
	idle, err := w.setup(W, nil, a)
	if err != nil {
		return nil, err
	}
	v["exec.elision_ms"] = elision(f, min(k, 3), a)
	v["exec.overhead_x"] = ratio(q1.median/1e6, v["exec.elision_ms"])
	if v["algos.nd_over_np_x"], err = ndOverNP(f, idle.engine(), k, a); err != nil {
		return nil, err
	}
	if p, ok := idle.(prober); ok {
		p.probes(40*k, v, a)
	}
	snap := make([]float64, 0, 32)
	for i := 0; i < 32; i++ {
		t := time.Now()
		idle.engine().Metrics().Snapshot()
		snap = append(snap, float64(time.Since(t)))
	}
	sort.Float64s(snap)
	v["telemetry.snapshot_us"] = med(snap) / 1e3
	retireBooked(idle)

	var probes, gcs []float64
	for _, ws := range wins {
		for _, x := range ws {
			probes, gcs = append(probes, x.probeMS), append(gcs, x.gcMS)
			v["harness.windows"]++
			v["harness.cycles"] += float64(x.cycles)
		}
	}
	sort.Float64s(probes)
	for _, p := range probes {
		if p > 1.25*probes[0] {
			v["harness.disturbed_share"] += 1 / float64(len(probes))
		}
	}
	v["harness.probe_ms"] = med(probes)
	sort.Float64s(gcs)
	v["harness.gc_between_ms"] = med(gcs)
	v["harness.span_overhead_x"] = ratio(qT.median, qU.median)
	v["harness.workers"] = float64(W)

	path, err := writeTrace(c.outDir, c.workload, W, c.seed, sr, cr)
	if err != nil {
		return nil, err
	}
	o := &outcome{values: v}
	o.book(a)
	o.note = fmt.Sprintf("traced pass, W=%d: %d traced windows, %d traced cycles, %d spans; untraced %d windows at W, %d at 1 worker, %d tracer-armed; %s",
		W, qT.windows, qT.cycles, len(cr.spans), qU.windows, q1.windows, qA.windows, path)
	return o, nil
}

func mergeSorted(a, b []float64) []float64 {
	m := append(append([]float64(nil), a...), b...)
	sort.Float64s(m)
	return m
}

// armed is an instance on a WithTracing engine: after every cycle it
// takes the finished runs' traces off the tracer and hands their storage
// back, as a serving loop would, and counts their events.
type armed struct {
	instance
	tr           *telemetry.Tracer
	events, runs int
}

func (in *armed) cycle(r *rec, a *acct) time.Duration {
	d := in.instance.cycle(r, a)
	for _, t := range in.tr.Take() {
		in.events += len(t.Events)
		in.runs++
		in.tr.Recycle(t)
	}
	return d
}
