package stencil

import (
	"fmt"
	"math"
	"testing"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/algotest"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/matrix"
	"github.com/ndflow/ndflow/internal/pmh"
	"github.com/ndflow/ndflow/internal/sched/spacebound"
	"github.com/ndflow/ndflow/internal/sim"
)

func factory(n, base int, seed int64) algotest.Factory {
	return func(model algos.Model) (*core.Program, func() error, error) {
		inst := NewInstance(matrix.NewSpace(), n, seed)
		ref := NewInstance(matrix.NewSpace(), n, seed)
		ref.Serial()
		prog, err := New(model, inst, base)
		if err != nil {
			return nil, nil, err
		}
		check := func() error {
			if d := matrix.MaxAbsDiff(inst.Table, ref.Table); d != 0 {
				return fmt.Errorf("table differs from serial reference by %g", d)
			}
			return nil
		}
		return prog, check, nil
	}
}

func TestSuiteSmall(t *testing.T) { algotest.RunSuite(t, factory(8, 2, 51)) }
func TestSuiteDeep(t *testing.T)  { algotest.RunSuite(t, factory(32, 4, 52)) }
func TestSuiteFine(t *testing.T)  { algotest.RunSuite(t, factory(16, 2, 53)) }

func TestRulesValidate(t *testing.T) {
	if err := Rules().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOperatorAsymmetry(t *testing.T) {
	if MixOp(1, 2) == MixOp(2, 1) {
		t.Fatal("MixOp is symmetric; operand swaps would go undetected")
	}
}

// TestSpanGap: the ND wavefront has Θ(n) span; the NP composition (like
// LCS) has Θ(n^lg3), so the ratio grows with n.
func TestSpanGap(t *testing.T) {
	span := func(model algos.Model, n int) int64 {
		prog, _, err := factory(n, 2, 3)(model)
		if err != nil {
			t.Fatal(err)
		}
		return core.MustRewrite(prog).Span()
	}
	ndGrowth := float64(span(algos.ND, 64)) / float64(span(algos.ND, 32))
	if ndGrowth > 2.4 {
		t.Errorf("ND span growth %.2f exceeds linear", ndGrowth)
	}
	r32 := float64(span(algos.NP, 32)) / float64(span(algos.ND, 32))
	r64 := float64(span(algos.NP, 64)) / float64(span(algos.ND, 64))
	if r64 <= r32 {
		t.Errorf("NP/ND span ratio did not grow: %.3f → %.3f", r32, r64)
	}
}

// TestNDPipelinesUnderSB: on a simulated PMH with several processors the
// ND wavefront must finish no later than the NP band-barrier version.
func TestNDPipelinesUnderSB(t *testing.T) {
	spec := pmh.Spec{
		ProcsPerL1: 1,
		Caches: []pmh.CacheSpec{
			{Size: 128, Fanout: 4, MissCost: 1},
			{Size: 2048, Fanout: 2, MissCost: 10},
		},
		MemMissCost: 100,
	}
	makespan := func(model algos.Model) int64 {
		prog, _, err := factory(64, 4, 5)(model)
		if err != nil {
			t.Fatal(err)
		}
		g := core.MustRewrite(prog)
		m, err := pmh.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(g, m, spacebound.New(spacebound.Config{}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	nd, np := makespan(algos.ND), makespan(algos.NP)
	if nd > np {
		t.Errorf("ND makespan %d exceeds NP %d; the wavefront should pipeline", nd, np)
	}
}

// TestAvailableParallelism: count ready strands per greedy round; the ND
// wavefront must reach a strictly higher peak width than the NP version,
// whose band barriers cap the front at one band.
func TestAvailableParallelism(t *testing.T) {
	width := func(model algos.Model) int {
		prog, _, err := factory(32, 2, 7)(model)
		if err != nil {
			t.Fatal(err)
		}
		g := core.MustRewrite(prog)
		tr := core.NewTracker(g)
		best := 0
		round := tr.TakeReady()
		for len(round) > 0 {
			if len(round) > best {
				best = len(round)
			}
			for _, leaf := range round {
				if err := tr.Complete(leaf); err != nil {
					t.Fatal(err)
				}
			}
			round = tr.TakeReady()
		}
		return best
	}
	nd, np := width(algos.ND), width(algos.NP)
	if nd < np {
		t.Errorf("ND peak width %d below NP %d", nd, np)
	}
	t.Logf("peak ready-front width: ND=%d NP=%d", nd, np)
}

// MixOp is integer arithmetic; it must return math.Mod's bits on every
// operand pair a table can hold: each operand is a row-0 or inflow value
// (an integer below 2¹⁹) or a residue. Every residue meets, in both
// positions, a sample of residues and of row-0 values.
func TestMixOpMatchesMod(t *testing.T) {
	check := func(left, mid float64) {
		got, want := MixOp(left, mid), math.Mod(left+3*mid+1, 2039)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MixOp(%v, %v) = %v, math.Mod form %v", left, mid, got, want)
		}
	}
	sample := []float64{2039, 2040, 1<<19 - 2040, 1<<19 - 1}
	for r := 0; r < 2039; r += 1 + r/16 { // dense near 0, every 128th by the end
		sample = append(sample, float64(r), float64(2038-r))
	}
	state := uint64(7)
	for i := 0; i < 256; i++ { // the generator NewInstance fills row 0 with
		state = state*6364136223846793005 + 1442695040888963407
		sample = append(sample, float64(state>>45))
	}
	for r := 0; r < 2039; r++ {
		for _, v := range sample {
			check(float64(r), v)
			check(v, float64(r))
		}
	}
	for _, v := range sample {
		for _, w := range sample {
			check(v, w)
		}
	}
}
