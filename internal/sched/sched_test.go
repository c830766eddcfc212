// Package sched_test exercises both schedulers end-to-end on simulated
// PMHs, verifying the paper's §4 guarantees in measurable form: complete
// deadlock-free execution, Theorem 1's per-level cache miss bound for the
// space-bounded scheduler, speedup from added processors, and the
// SB-beats-WS locality shape at shared cache levels.
package sched_test

import (
	"math/rand"
	"testing"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/lcs"
	"github.com/ndflow/ndflow/internal/algos/matmul"
	"github.com/ndflow/ndflow/internal/algos/trs"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/matrix"
	"github.com/ndflow/ndflow/internal/metrics"
	"github.com/ndflow/ndflow/internal/pmh"
	"github.com/ndflow/ndflow/internal/sched/spacebound"
	"github.com/ndflow/ndflow/internal/sim"
)

func twoLevelSpec(procs int) pmh.Spec {
	return pmh.Spec{
		ProcsPerL1: 1,
		Caches: []pmh.CacheSpec{
			{Size: 256, Fanout: procs / 2, MissCost: 1},
			{Size: 4096, Fanout: 2, MissCost: 10},
		},
		MemMissCost: 100,
	}
}

func trsGraph(t *testing.T, model algos.Model, n, base int) *core.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(3))
	s := matrix.NewSpace()
	tri := matrix.New(s, n, n)
	tri.FillLowerTriangular(r)
	b := matrix.New(s, n, n)
	b.FillRandom(r)
	prog, err := trs.New(model, tri, b, base)
	if err != nil {
		t.Fatal(err)
	}
	return core.MustRewrite(prog)
}

func mmGraph(t *testing.T, model algos.Model, n, base int) *core.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(4))
	s := matrix.NewSpace()
	a, b, c := matrix.New(s, n, n), matrix.New(s, n, n), matrix.New(s, n, n)
	a.FillRandom(r)
	b.FillRandom(r)
	prog, err := matmul.New(model, c, a, b, 1, base)
	if err != nil {
		t.Fatal(err)
	}
	return core.MustRewrite(prog)
}

func lcsGraph(t *testing.T, model algos.Model, n, base int) *core.Graph {
	t.Helper()
	inst := lcs.NewInstance(matrix.NewSpace(), n, 3, 5)
	prog, err := lcs.New(model, inst, base)
	if err != nil {
		t.Fatal(err)
	}
	return core.MustRewrite(prog)
}

func runOn(t *testing.T, g *core.Graph, spec pmh.Spec, sched sim.Scheduler) *sim.Result {
	t.Helper()
	m, err := pmh.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(g, m, sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strands != len(g.P.Leaves) {
		t.Fatalf("executed %d of %d strands", res.Strands, len(g.P.Leaves))
	}
	return res
}

func TestWorkStealingCompletes(t *testing.T) {
	for _, model := range []algos.Model{algos.NP, algos.ND} {
		g := trsGraph(t, model, 32, 4)
		res := runOn(t, g, twoLevelSpec(4), exec.NewSimScheduler())
		if res.Makespan <= 0 {
			t.Fatalf("%s: makespan = %d", model, res.Makespan)
		}
	}
}

func TestSpaceBoundedCompletes(t *testing.T) {
	for _, model := range []algos.Model{algos.NP, algos.ND} {
		for _, mk := range []func(*testing.T, algos.Model, int, int) *core.Graph{trsGraph, mmGraph, lcsGraph} {
			g := mk(t, model, 32, 4)
			res := runOn(t, g, twoLevelSpec(4), spacebound.New(spacebound.Config{}))
			if res.Makespan <= 0 {
				t.Fatalf("makespan = %d", res.Makespan)
			}
		}
	}
}

// TestTheorem1MissBound verifies Theorem 1: under the SB scheduler with
// dilation σ, the total misses at cache level j are at most Q*(t; σ·Mj).
func TestTheorem1MissBound(t *testing.T) {
	spec := twoLevelSpec(8)
	sigma := 1.0 / 3
	for _, mk := range []func(*testing.T, algos.Model, int, int) *core.Graph{mmGraph, trsGraph, lcsGraph} {
		g := mk(t, algos.ND, 32, 4)
		res := runOn(t, g, spec, spacebound.New(spacebound.Config{Sigma: sigma}))
		for j, cache := range spec.Caches {
			bound := metrics.PCC(g.P, int64(sigma*float64(cache.Size)))
			if res.Misses[j] > bound {
				t.Errorf("level %d: misses %d exceed Q*(t;σM)=%d", j+1, res.Misses[j], bound)
			}
		}
	}
}

// TestSpeedup: more processors must not slow the SB schedule down, and
// for the parallel ND DAGs should speed it up substantially.
func TestSpeedup(t *testing.T) {
	g := mmGraph(t, algos.ND, 32, 4)
	res2 := runOn(t, g, twoLevelSpec(2), spacebound.New(spacebound.Config{}))
	res8 := runOn(t, g, twoLevelSpec(8), spacebound.New(spacebound.Config{}))
	speedup := float64(res2.Makespan) / float64(res8.Makespan)
	if speedup < 1.5 {
		t.Errorf("8-proc speedup over 2-proc = %.2f, want ≥ 1.5", speedup)
	}
}

// TestSBLocalityBeatsWS: the motivating claim from [47, 48]: SB incurs
// no more misses at the shared (highest) cache level than work stealing.
func TestSBLocalityBeatsWS(t *testing.T) {
	spec := twoLevelSpec(8)
	g := mmGraph(t, algos.ND, 32, 2)
	sb := runOn(t, g, spec, spacebound.New(spacebound.Config{}))
	gWS := mmGraph(t, algos.ND, 32, 2)
	ws := runOn(t, gWS, spec, exec.NewSimScheduler())
	top := len(spec.Caches) - 1
	if sb.Misses[top] > ws.Misses[top]*11/10 {
		t.Errorf("SB top-level misses %d exceed WS %d by >10%%", sb.Misses[top], ws.Misses[top])
	}
}

// TestNDOutperformsNPUnderSB reproduces the headline scheduling claim:
// with many processors, the SB scheduler finishes the ND version of TRS
// faster than the NP version (the extra parallelizability is usable).
func TestNDOutperformsNPUnderSB(t *testing.T) {
	spec := twoLevelSpec(16)
	nd := runOn(t, trsGraph(t, algos.ND, 64, 4), spec, spacebound.New(spacebound.Config{}))
	np := runOn(t, trsGraph(t, algos.NP, 64, 4), spec, spacebound.New(spacebound.Config{}))
	if nd.Makespan >= np.Makespan {
		t.Errorf("ND makespan %d not better than NP %d", nd.Makespan, np.Makespan)
	}
}

// TestWorkConservation: simulated work equals the program's work under
// any scheduler.
func TestWorkConservation(t *testing.T) {
	g := lcsGraph(t, algos.ND, 32, 4)
	res := runOn(t, g, twoLevelSpec(4), exec.NewSimScheduler())
	if res.Work != g.P.Work() {
		t.Fatalf("simulated work %d != program work %d", res.Work, g.P.Work())
	}
}
