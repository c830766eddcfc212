// Micro-benchmarks for the compiled-core pipeline: the DAG Rewriting
// System (BenchmarkRewrite), the CSR compile step (BenchmarkCompile), the
// one-shot runtime (BenchmarkRunParallel: a transient engine per run) and
// the long-lived execution engine (BenchmarkEngineRerun for zero-alloc
// cached re-runs, BenchmarkEngineThroughput for concurrent serving) on
// large Floyd–Warshall and LU instances. Run with
//
//	go test -bench 'Rewrite|Compile|RunParallel|Engine' -benchmem
//
// to measure both throughput and per-strand allocation behaviour.
package ndflow_test

import (
	"math/rand"
	"testing"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/fw"
	"github.com/ndflow/ndflow/internal/algos/lu"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/matrix"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// fwProgram builds an ND 1-D Floyd–Warshall program (with live strand
// closures) at the given size.
func fwProgram(b *testing.B, n, base int) *core.Program {
	b.Helper()
	inst := fw.NewInstance(matrix.NewSpace(), n, 11)
	prog, err := fw.New(algos.ND, inst, base)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// luGraph builds an ND LU factorization event graph at the given size.
func luGraph(b *testing.B, n, base int) *core.Graph {
	b.Helper()
	r := rand.New(rand.NewSource(13))
	s := matrix.NewSpace()
	a := matrix.New(s, n, n)
	a.FillRandom(r)
	for i := 0; i < n; i++ {
		a.Add(i, i, 2)
	}
	inst, err := lu.NewInstance(s, a, base)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lu.New(algos.ND, inst)
	if err != nil {
		b.Fatal(err)
	}
	return core.MustRewrite(prog)
}

// BenchmarkRewrite measures the DAG Rewriting System (including the CSR
// compile it finishes with) on a large FW instance.
func BenchmarkRewrite(b *testing.B) {
	prog := fwProgram(b, 256, 8)
	b.ResetTimer()
	b.ReportAllocs()
	var g *core.Graph
	for i := 0; i < b.N; i++ {
		var err error
		g, err = core.Rewrite(prog)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(g.SortedArrows())), "arrows")
}

// BenchmarkCompile isolates the compile step: lowering a rewritten event
// graph into the flat CSR ExecGraph.
func BenchmarkCompile(b *testing.B) {
	g := core.MustRewrite(fwProgram(b, 256, 8))
	arrows := g.SortedArrows()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildGraph(g.P, arrows); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.Exec().NumVertices()), "vertices")
}

// BenchmarkCompileWake isolates the wake-graph collapse: contracting the
// relay vertices of a compiled event graph into the strand-level CSR the
// trackers run on. Paid once per ExecGraph, amortized across runs.
func BenchmarkCompileWake(b *testing.B) {
	g := core.MustRewrite(fwProgram(b, 256, 8))
	arrows := g.SortedArrows()
	b.ResetTimer()
	b.ReportAllocs()
	var counters int
	for i := 0; i < b.N; i++ {
		b.StopTimer() // the CSR compile itself is measured by BenchmarkCompile
		fresh, err := core.BuildGraph(g.P, arrows)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		counters = fresh.Exec().Wake().NumCounters()
	}
	b.ReportMetric(float64(counters), "counters")
}

// fwSchedGraph is a large FW event graph with the strand bodies stripped,
// so runtime benchmarks measure scheduling and readiness propagation, not
// the numerics inside the strands.
func fwSchedGraph(b *testing.B, n, base int) *core.Graph {
	b.Helper()
	g := core.MustRewrite(fwProgram(b, n, base))
	for _, l := range g.P.Leaves {
		l.Run = nil
	}
	return g
}

func benchRuntime(b *testing.B, g *core.Graph, workers int, run func(*core.Graph, int) error) {
	b.Helper()
	strands := float64(len(g.P.Leaves))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := run(g, workers); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(strands*float64(b.N)/b.Elapsed().Seconds(), "strands/s")
}

// BenchmarkRunParallel measures the lock-free runtime at the default
// worker count (GOMAXPROCS) on a quick-size FW instance: pure scheduling
// throughput. With one worker this is the compiled-schedule path, which
// performs zero readiness bookkeeping and zero allocation per run.
func BenchmarkRunParallel(b *testing.B) {
	benchRuntime(b, fwSchedGraph(b, 256, 4), 0, exec.RunParallel)
}

// BenchmarkRunParallelWorkers4 pins four workers, exercising the
// Chase–Lev deques and atomic readiness cascades even on small hosts.
func BenchmarkRunParallelWorkers4(b *testing.B) {
	benchRuntime(b, fwSchedGraph(b, 256, 4), 4, exec.RunParallel)
}

// BenchmarkRunParallelLU runs the lock-free runtime with live LU strand
// bodies: end-to-end factorization throughput rather than pure overhead.
func BenchmarkRunParallelLU(b *testing.B) {
	benchRuntime(b, luGraph(b, 128, 8), 0, exec.RunParallel)
}

// BenchmarkEngineRerun measures steady-state re-execution of one cached
// program on a long-lived engine: the program cache serves the compiled
// graph, the instance pool serves a generation-rewound tracker, and a run
// allocates nothing (the allocs/op column is the claim).
func BenchmarkEngineRerun(b *testing.B) {
	g := fwSchedGraph(b, 256, 4)
	p := g.P
	e := exec.NewEngine(0)
	defer e.Close()
	for i := 0; i < 3; i++ { // warm: compile cache, instance pool, deque growth
		if err := e.Run(p); err != nil {
			b.Fatal(err)
		}
	}
	strands := float64(len(p.Leaves))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(strands*float64(b.N)/b.Elapsed().Seconds(), "strands/s")
}

// BenchmarkEngineRerunTraced is the tracing-enabled pair of
// BenchmarkEngineRerun: the same cached FW-256/4 rerun with a tracer
// armed, every dispatch/complete/steal/park recorded and each run's
// trace stitched, taken and recycled. The allocs/op column is the
// claim that armed tracing allocates nothing in the steady state (the
// event slabs reach capacity during warmup and are reused); the
// ns/op delta against BenchmarkEngineRerun prices the armed-tracer
// hot path.
func BenchmarkEngineRerunTraced(b *testing.B) {
	g := fwSchedGraph(b, 256, 4)
	p := g.P
	trc := telemetry.NewTracer()
	e := exec.NewEngine(0, exec.WithTracing(trc))
	defer e.Close()
	events := 0.0
	for i := 0; i < 3; i++ { // warm: caches, pools, trace slab capacity
		if err := e.Run(p); err != nil {
			b.Fatal(err)
		}
		if tr := trc.TakeLast(); tr != nil {
			events = float64(len(tr.Events))
			trc.Recycle(tr)
		}
	}
	strands := float64(len(p.Leaves))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(p); err != nil {
			b.Fatal(err)
		}
		trc.Recycle(trc.TakeLast())
	}
	b.StopTimer()
	b.ReportMetric(strands*float64(b.N)/b.Elapsed().Seconds(), "strands/s")
	b.ReportMetric(events, "events/run")
}

// BenchmarkEngineThroughput drives one engine from ≥ 4 concurrent
// submitters re-running the same cached program.
func BenchmarkEngineThroughput(b *testing.B) {
	g := fwSchedGraph(b, 256, 4)
	e := exec.NewEngine(4)
	defer e.Close()
	if err := e.Run(g.P); err != nil {
		b.Fatal(err)
	}
	b.SetParallelism(4) // ≥ 4 submitter goroutines even on GOMAXPROCS=1
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := e.Run(g.P); err != nil {
				b.Error(err) // Fatal must not be called off the benchmark goroutine
				return
			}
		}
	})
}
