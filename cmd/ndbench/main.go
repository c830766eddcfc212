// Command ndbench regenerates the paper's quantitative artifacts as
// printed tables. Each experiment ID corresponds to a claim, theorem or
// figure of the paper (see DESIGN.md's experiment index):
//
//	ndbench                  # run every experiment at full size
//	ndbench -quick           # smaller sizes (seconds, CI friendly)
//	ndbench -experiment E4   # a single experiment
//	ndbench -list            # list experiment IDs
//
// It also has a serving mode that exercises the long-lived execution
// engine the way a production deployment would — N concurrent submitters
// re-running one cached program M times each — and reports runs/sec and
// allocs/run against the spawn-per-run baseline:
//
//	ndbench -serve                            # defaults: FW-1D n=256, 4×200
//	ndbench -serve -submitters 8 -repeats 500 -algo TRS -n 128 -nilbodies
//	ndbench -serve -workers 2                 # pin the engine pool size
//	ndbench -serve -policy critpath           # add a critical-path-first engine row
//	ndbench -serve -policy relaxed            # add a relaxed-MultiQueue engine row
//	ndbench -serve -policy locality           # add the cache-domain engine row
//
// -workers pins the engine pool size (default GOMAXPROCS), so a worker
// sweep is one invocation per count.
//
// Passing -json in either mode emits the result tables as a JSON array on
// stdout instead of printed tables, for machine-readable benchmark
// trajectories (BENCH_*.json files, CI trend tooling):
//
//	ndbench -quick -json > bench.json
//	ndbench -serve -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/dyn"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/experiments"
	"github.com/ndflow/ndflow/internal/telemetry"
)

func main() {
	var (
		id      = flag.String("experiment", "", "experiment ID to run (default: all)")
		quick   = flag.Bool("quick", false, "use reduced problem sizes")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		jsonOut = flag.Bool("json", false, "emit result tables as a JSON array on stdout")

		serve      = flag.Bool("serve", false, "run the engine serving benchmark instead of experiments")
		submitters = flag.Int("submitters", 4, "serving mode: concurrent submitter goroutines")
		repeats    = flag.Int("repeats", 200, "serving mode: runs per submitter")
		algo       = flag.String("algo", "FW-1D", "serving mode: algorithm builder (see experiments)")
		size       = flag.Int("n", 256, "serving mode: problem size")
		base       = flag.Int("base", 8, "serving mode: divide-and-conquer base case")
		workers    = flag.Int("workers", 0, "serving mode: engine worker count (0 = GOMAXPROCS); sweep by invoking once per count")
		nilBodies  = flag.Bool("nilbodies", false, "serving mode: strip strand closures (pure scheduling)")
		dynMode    = flag.Bool("dyn", false, "serving mode: add the dynamic runtime (online Spawn/Future replay) as a third row")
		policy     = flag.String("policy", "", "serving mode: add an engine row under another scheduling policy: critpath (depth-to-sink fan-out ordering), relaxed (per-worker MultiQueue pairs) or locality (cache-domain anchoring on pmh.DefaultSpec(workers))")
		traceOut   = flag.String("trace", "", "serving mode: write a Chrome trace (about:tracing / Perfetto) of one engine run to FILE")
		metricsOut = flag.Bool("metrics", false, "serving mode: append the engine's telemetry counter snapshot as a table")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *serve {
		tables, err := serveBench(*algo, *size, *base, *workers, *submitters, *repeats, *nilBodies, *dynMode, *policy, *traceOut, *metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ndbench:", err)
			os.Exit(1)
		}
		emit(tables, *jsonOut)
		return
	}
	cfg := experiments.Config{Quick: *quick}
	if *id == "" && !*jsonOut {
		// Human-readable full sweep streams each table as it finishes —
		// full-size experiments take minutes, so don't buffer them.
		if err := experiments.RunAll(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ndbench:", err)
			os.Exit(1)
		}
		return
	}
	ids := experiments.IDs()
	if *id != "" {
		ids = []string{*id}
	}
	tables := make([]*experiments.Table, 0, len(ids))
	for _, eid := range ids {
		table, err := experiments.Run(eid, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ndbench: %s: %v\n", eid, err)
			os.Exit(1)
		}
		tables = append(tables, table)
	}
	emit(tables, *jsonOut)
}

// emit renders tables either human-readably or as one JSON array, the
// machine-readable form benchmark-trajectory tooling consumes. A JSON
// document must be complete to parse, so -json buffers the sweep.
func emit(tables []*experiments.Table, jsonOut bool) {
	if !jsonOut {
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tables); err != nil {
		fmt.Fprintln(os.Stderr, "ndbench:", err)
		os.Exit(1)
	}
}

// serveBench measures serving throughput and returns the result table:
// submitters × repeats runs, first through a shared engine
// (compiled-graph cache, pooled instances, parked workers), then through
// exec.RunParallel calls — a transient engine per run — on the same
// worker count.
//
// With live strand bodies each submitter re-runs its own instance (its
// own backing matrices, like distinct requests in a server) — concurrent
// in-flight runs of one graph would race on shared data, and per-
// submitter re-running stays sound only for pure forward recurrences
// like the default FW-1D, not for in-place destructive factorizations
// (LU, Cholesky, TRS). -nilbodies strips the closures, shares one graph
// across submitters, and isolates scheduling overhead for any algorithm.
func serveBench(algo string, n, base, workers, submitters, repeats int, nilBodies, dynMode bool, policy, traceOut string, metricsOut bool) ([]*experiments.Table, error) {
	// Pure forward recurrences recompute the same table from untouched
	// inputs, so re-running one instance is sound; everything else (the
	// in-place destructive factorizations and solves) must serve with
	// stripped bodies or the reported throughput would describe garbage
	// computation on already-consumed data.
	rerunnable := map[string]bool{"FW-1D": true, "LCS": true, "Stencil": true}
	if !nilBodies && !rerunnable[algo] {
		return nil, fmt.Errorf("-serve with live bodies re-runs each instance in place, which is only sound for pure forward recurrences (FW-1D, LCS, Stencil); pass -nilbodies to serve %s", algo)
	}
	b, err := experiments.BuilderByName(algo)
	if err != nil {
		return nil, err
	}
	graphs := make([]*core.Graph, submitters)
	for s := range graphs {
		if s > 0 && nilBodies {
			graphs[s] = graphs[0]
			continue
		}
		if graphs[s], err = b.Build(algos.ND, n, base); err != nil {
			return nil, err
		}
		if nilBodies {
			for _, l := range graphs[s].P.Leaves {
				l.Run = nil
			}
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	eng := exec.NewEngine(workers)
	defer eng.Close()
	for _, g := range graphs { // warm the caches outside the clock
		if err := eng.Run(g.P); err != nil {
			return nil, err
		}
	}

	t := &experiments.Table{
		ID:      "SERVE",
		Title:   fmt.Sprintf("Engine serving: %s n=%d base=%d, %d submitters × %d runs, %d workers", algo, n, base, submitters, repeats, workers),
		Columns: []string{"mode", "runs", "wall", "runs/sec", "allocs/run", "bytes/run"},
	}
	modes := []struct {
		name string
		run  func(s int) error
	}{
		{"engine", func(s int) error { return eng.Run(graphs[s].P) }},
		{"spawn-per-run", func(s int) error { return exec.RunParallel(graphs[s], workers) }},
	}
	if policy != "" {
		// The same cached re-runs under another scheduling policy (see
		// DESIGN.md's scheduler-seam section for when each wins). With
		// -nilbodies the locality anchor plan is empty by design
		// (footprints no body touches are not worth colocating) and its
		// row should match the flat engine.
		pol, ok := map[string]exec.Policy{
			"critpath": exec.PolicyCriticalPath, "relaxed": exec.PolicyRelaxed, "locality": exec.PolicyLocality,
		}[policy]
		if !ok {
			return nil, fmt.Errorf("-policy %q: want critpath, relaxed or locality", policy)
		}
		polEng := exec.NewEngine(workers, exec.WithPolicy(pol))
		defer polEng.Close()
		for _, g := range graphs {
			if err := polEng.Run(g.P); err != nil {
				return nil, err
			}
		}
		modes = append(modes, struct {
			name string
			run  func(s int) error
		}{"engine-" + policy, func(s int) error { return polEng.Run(graphs[s].P) }})
	}
	var progs []*dyn.Program
	var warmRuns, warmHits uint64
	if dynMode {
		// The online runtime replaying the same strand closures through
		// Spawn/Future gating on the shared engine: what the same serving
		// load costs when the DAG is discovered per run instead of
		// compiled once. Dependency analysis is precomputed per graph,
		// the dynamic analogue of the engine's program cache.
		roots := make([]dyn.Task, submitters)
		for s, g := range graphs {
			if s > 0 && nilBodies {
				roots[s] = roots[0]
				continue
			}
			eg := g.Exec()
			roots[s] = dyn.Replay(eg, dyn.StrandDeps(eg))
		}
		modes = append(modes, struct {
			name string
			run  func(s int) error
		}{"dyn-replay", func(s int) error { return dyn.Run(eng, roots[s]) }})

		// The same load through the adaptive-replay JIT: each submitter's
		// Program is climbed past the observe/record ladder outside the
		// clock (the cold cost the dyn-replay row already prices), so the
		// measured runs are warm shape-cache hits on the compiled engine.
		progs = make([]*dyn.Program, submitters)
		for s := range progs {
			progs[s] = dyn.NewProgram(roots[s])
			for i := 0; i < 4; i++ {
				if err := progs[s].Run(eng); err != nil {
					return nil, err
				}
			}
			warmRuns += progs[s].Stats().Runs
			warmHits += progs[s].Stats().Hits
		}
		modes = append(modes, struct {
			name string
			run  func(s int) error
		}{"dyn-jit", func(s int) error { return progs[s].Run(eng) }})
	}
	for _, mode := range modes {
		wall, allocs, bytes, err := drive(mode.run, submitters, repeats)
		if err != nil {
			return nil, err
		}
		runs := submitters * repeats
		t.AddRow(mode.name, runs, wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(runs)/wall.Seconds()),
			fmt.Sprintf("%.1f", allocs), fmt.Sprintf("%.0f", bytes))
	}
	t.Note("engine amortizes Rewrite+Compile, trackers and worker spawn across runs; spawn-per-run starts and closes an engine per run and pays all three each time")
	if dynMode {
		var st dyn.ProgramStats
		compiled := 0
		for _, p := range progs {
			s := p.Stats()
			st.Runs += s.Runs
			st.Hits += s.Hits
			st.Records += s.Records
			st.Divergences += s.Divergences
			st.Vetoes += s.Vetoes
			if p.Compiled() {
				compiled++
			}
		}
		mRuns, mHits := st.Runs-warmRuns, st.Hits-warmHits
		hitRate := 0.0
		if mRuns > 0 {
			hitRate = 100 * float64(mHits) / float64(mRuns)
		}
		t.Note("dyn-jit: %d/%d shapes compiled after warm-up; measured window %d/%d runs on the compiled path (%.1f%% hit rate), %d records, %d divergences, %d vetoes",
			compiled, len(progs), mHits, mRuns, hitRate, st.Records, st.Divergences, st.Vetoes)
	}
	if workers == 1 {
		t.Note("workers=1: the spawn-per-run baseline degenerates to replaying the compiled serial schedule")
		t.Note("(no pool, no tracker, no spawn) — compare engines at -workers ≥ 2 for the serving comparison")
	}
	tables := []*experiments.Table{t}
	if traceOut != "" {
		// One traced execution of the first graph on its own armed engine
		// (the measured engine stays untraced, so the rows above price the
		// disabled-tracing hot path), exported as Chrome trace_event JSON.
		if err := writeTrace(traceOut, graphs[0], workers); err != nil {
			return nil, err
		}
		t.Note("trace: one traced run of %s written to %s (load in about:tracing or ui.perfetto.dev)", algo, traceOut)
	}
	if metricsOut {
		// The measured engine's full counter registry: everything the runs
		// above did — scheduling, cache, dynamic-runtime and JIT activity —
		// from the one source of truth.
		mt := &experiments.Table{
			ID:      "METRICS",
			Title:   fmt.Sprintf("Engine telemetry registry after serving (%d workers)", workers),
			Columns: []string{"counter", "value"},
		}
		snap := eng.Metrics().Snapshot()
		for _, name := range snap.Names() {
			mt.AddRow(name, snap.Get(name))
		}
		tables = append(tables, mt)
	}
	return tables, nil
}

// writeTrace runs the graph once on a tracing-armed engine of the same
// worker count and writes the stitched trace as Chrome trace_event JSON.
func writeTrace(path string, g *core.Graph, workers int) error {
	trc := telemetry.NewTracer()
	te := exec.NewEngine(workers, exec.WithTracing(trc))
	defer te.Close()
	if err := te.Run(g.P); err != nil {
		return err
	}
	tr := trc.TakeLast()
	if tr == nil {
		return fmt.Errorf("trace: run finished but no trace was stitched")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// drive fans runs out over concurrent submitters (each told its index,
// so modes can give every submitter private data) and reports wall time
// plus per-run heap allocation (objects and bytes).
func drive(run func(s int) error, submitters, repeats int) (time.Duration, float64, float64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < repeats; i++ {
				if err := run(s); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	close(errs)
	for err := range errs {
		return 0, 0, 0, err
	}
	runs := float64(submitters * repeats)
	return wall, float64(m1.Mallocs-m0.Mallocs) / runs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs, nil
}
