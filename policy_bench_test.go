// Paired benchmarks for the criticality-aware scheduling policies: the
// same workload re-run on flat-FIFO, critical-path-first and relaxed
// MultiQueue engines of equal worker count. The live LU pair is the
// separating case — LU's panel factorization is a long dependence chain
// feeding wide rank-1 updates, so starting the deep strands first keeps
// the chain from waiting behind bulk work. The nil-body FW replay pair
// prices the policies' fixed scheduling overhead, which must stay at
// parity with the flat engine (within ~1.05×). steals/run and
// xpops/run show the cross-worker traffic each policy generates —
// Chase–Lev deque steals vs shared-MultiQueue cross pops. Run with
//
//	go test -bench 'FlatEngine|CritPathEngine|RelaxedEngine' -benchmem
package ndflow_test

import (
	"math/rand"
	"testing"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/lu"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/matrix"
	"github.com/ndflow/ndflow/internal/telemetry"
)

func newPolicyEngine(policy exec.Policy) *exec.Engine {
	return exec.NewEngine(benchLocWorkers, exec.WithPolicy(policy))
}

// The LU live pair's instance size: big enough that the working set
// outruns the cache and the panel chain's temporal locality matters.
const luBenchN = 512

// benchLULive factors an n×n LU instance (base 8, ND model) with live
// bodies. LU factors in place, so the input state is restored from a
// pristine snapshot outside the clock before every run — each timed
// iteration factors identical data.
func benchLULive(b *testing.B, policy exec.Policy) {
	r := rand.New(rand.NewSource(44))
	s := matrix.NewSpace()
	a := matrix.New(s, luBenchN, luBenchN)
	a.FillRandom(r)
	for i := 0; i < luBenchN; i++ {
		a.Add(i, i, 4) // diagonally dominant enough to keep pivoting stable
	}
	inst, err := lu.NewInstance(s, a, 8)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lu.New(algos.ND, inst)
	if err != nil {
		b.Fatal(err)
	}
	g, err := core.Rewrite(prog)
	if err != nil {
		b.Fatal(err)
	}
	snapA := inst.A.Copy(s)
	snapPiv := inst.Piv.Copy(s)
	restore := func() {
		inst.A.CopyFrom(snapA)
		inst.Piv.CopyFrom(snapPiv)
	}
	e := newPolicyEngine(policy)
	defer e.Close()
	run := func() {
		sub, err := e.Submit(g)
		if err != nil {
			b.Fatal(err)
		}
		if err := sub.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm: instance pool, priority table, heaps
		run()
		restore()
	}
	before := e.Metrics().Snapshot()
	strands := float64(len(g.P.Leaves))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run()
		b.StopTimer()
		restore()
		b.StartTimer()
	}
	b.StopTimer()
	d := e.Metrics().Snapshot().Delta(before)
	runs := float64(b.N)
	b.ReportMetric(strands*float64(b.N)/b.Elapsed().Seconds(), "strands/s")
	b.ReportMetric(float64(d.Get(telemetry.MSteals))/runs, "steals/run")
	b.ReportMetric(float64(d.Get(telemetry.MCrossPops))/runs, "xpops/run")
	b.ReportMetric(float64(d.Get(telemetry.MParks))/runs, "parks/run")
}

func BenchmarkFlatEngineLULive(b *testing.B)     { benchLULive(b, exec.PolicyFIFO) }
func BenchmarkCritPathEngineLULive(b *testing.B) { benchLULive(b, exec.PolicyCriticalPath) }
func BenchmarkRelaxedEngineLULive(b *testing.B)  { benchLULive(b, exec.PolicyRelaxed) }

// The nil-body FW-256/4 replay, pairing with BenchmarkFlatEngineRerun
// on the identical graph: pure scheduling overhead. The priority
// policies touch every fan-out (a small sort, or heap pushes), so this
// is where their fixed cost shows — the acceptance bar is parity within
// ~1.05× of flat.
func BenchmarkCritPathEngineRerun(b *testing.B) {
	benchEngineGraph(b, newPolicyEngine(exec.PolicyCriticalPath), fwSchedGraph(b, 256, 4))
}

func BenchmarkRelaxedEngineRerun(b *testing.B) {
	benchEngineGraph(b, newPolicyEngine(exec.PolicyRelaxed), fwSchedGraph(b, 256, 4))
}
