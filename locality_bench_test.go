// Paired benchmarks for the locality-aware scheduling policy: the same
// cached program re-run on a flat engine and on a locality-aware engine
// of equal worker count. The live-body pairs (FW, stencil — idempotent
// forward recurrences, safe to re-run in place) measure end-to-end
// wall-clock where anchored scheduling earns real cache reuse; the
// nil-body rerun pair isolates the policy's scheduling overhead, which
// must stay within a few percent of the flat engine. Run with
//
//	go test -bench 'LocalityEngine|FlatEngine' -benchmem
package ndflow_test

import (
	"testing"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/experiments"
	"github.com/ndflow/ndflow/internal/telemetry"
)

const benchLocWorkers = 4

// newBenchEngine builds the flat or locality-aware engine the pairs
// compare. The locality engine derives its domains from the default
// machine-shaped spec at the benchmark's worker count, the same
// configuration `ndbench -serve -policy locality` uses.
func newBenchEngine(locality bool) *exec.Engine {
	if locality {
		return newPolicyEngine(exec.PolicyLocality)
	}
	return newPolicyEngine(exec.PolicyFIFO)
}

func liveGraph(b *testing.B, algo string, n, base int) *core.Graph {
	b.Helper()
	builder, err := experiments.BuilderByName(algo)
	if err != nil {
		b.Fatal(err)
	}
	g, err := builder.Build(algos.ND, n, base)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchEngineGraph(b *testing.B, e *exec.Engine, g *core.Graph) {
	b.Helper()
	defer e.Close()
	p := g.P
	for i := 0; i < 3; i++ { // warm: program cache, instance pool, anchors
		if err := e.Run(p); err != nil {
			b.Fatal(err)
		}
	}
	before := e.Metrics().Snapshot()
	strands := float64(len(p.Leaves))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	d := e.Metrics().Snapshot().Delta(before)
	runs := float64(b.N)
	b.ReportMetric(strands*float64(b.N)/b.Elapsed().Seconds(), "strands/s")
	b.ReportMetric(float64(d.Get(telemetry.MSteals))/runs, "steals/run")
	b.ReportMetric(float64(d.Get(telemetry.MCrossPops))/runs, "xpops/run")
	b.ReportMetric(float64(d.Get(telemetry.MParks))/runs, "parks/run")
	if e.Topology() != nil {
		b.ReportMetric(float64(d.Get(telemetry.MClaims))/runs, "claims/run")
		b.ReportMetric(float64(d.Get(telemetry.MPosts))/runs, "posts/run")
		b.ReportMetric(float64(d.Get(telemetry.MFallbacks))/runs, "fallbacks/run")
	}
}

// FW-1D with live bodies at n=256: each strand recomputes a block of the
// table from rows above it — the cache-heavy pipelined workload whose
// simulator counterpart is experiment E7.
func BenchmarkFlatEngineFWLive(b *testing.B) {
	benchEngineGraph(b, newBenchEngine(false), liveGraph(b, "FW-1D", 256, 4))
}

func BenchmarkLocalityEngineFWLive(b *testing.B) {
	benchEngineGraph(b, newBenchEngine(true), liveGraph(b, "FW-1D", 256, 4))
}

// FW at n=512: the 2.1MB table exceeds this box's L2, so the execution
// order decides how often the live bodies refetch rows — the regime the
// anchored, task-contiguous schedule is built for.
func BenchmarkFlatEngineFWBigLive(b *testing.B) {
	benchEngineGraph(b, newBenchEngine(false), liveGraph(b, "FW-1D", 512, 8))
}

func BenchmarkLocalityEngineFWBigLive(b *testing.B) {
	benchEngineGraph(b, newBenchEngine(true), liveGraph(b, "FW-1D", 512, 8))
}

// Matrix multiplication with live bodies (C += A·B accumulates, so
// re-running one instance is numerically safe): heavy block reuse across
// sibling tasks.
func BenchmarkFlatEngineMatmulLive(b *testing.B) {
	benchEngineGraph(b, newBenchEngine(false), liveGraph(b, "MM", 256, 16))
}

func BenchmarkLocalityEngineMatmulLive(b *testing.B) {
	benchEngineGraph(b, newBenchEngine(true), liveGraph(b, "MM", 256, 16))
}

// The 2-D stencil with live bodies: wavefront dependencies, quadrant
// tasks with compact footprints — the shape anchoring likes most.
func BenchmarkFlatEngineStencilLive(b *testing.B) {
	benchEngineGraph(b, newBenchEngine(false), liveGraph(b, "Stencil", 256, 8))
}

func BenchmarkLocalityEngineStencilLive(b *testing.B) {
	benchEngineGraph(b, newBenchEngine(true), liveGraph(b, "Stencil", 256, 8))
}

// The stencil at n=512 (2.1MB table, past this box's L2), base 16.
func BenchmarkFlatEngineStencilBigLive(b *testing.B) {
	benchEngineGraph(b, newBenchEngine(false), liveGraph(b, "Stencil", 512, 16))
}

func BenchmarkLocalityEngineStencilBigLive(b *testing.B) {
	benchEngineGraph(b, newBenchEngine(true), liveGraph(b, "Stencil", 512, 16))
}

// The nil-body FW-256/4 replay: pure scheduling overhead. Pairs with
// BenchmarkFlatEngineRerun on the identical graph. Stripped bodies mean
// the anchor plan is empty by design ("nil bodies anchor nothing" —
// footprints no body touches are not worth colocating), so this pair
// prices exactly the locality policy's fixed costs: the nearest-first
// tiered steal sweep and the mailbox fast paths, with zero per-strand
// anchor bookkeeping. The live-body pairs above are the ones that price
// anchor resolution, budget accounting and mailbox routing.
func BenchmarkLocalityEngineRerun(b *testing.B) {
	benchEngineGraph(b, newBenchEngine(true), fwSchedGraph(b, 256, 4))
}

// BenchmarkFlatEngineRerun is BenchmarkEngineRerun pinned to the same
// worker count as the locality pair, so the two rows differ only in
// policy.
func BenchmarkFlatEngineRerun(b *testing.B) {
	benchEngineGraph(b, newBenchEngine(false), fwSchedGraph(b, 256, 4))
}
