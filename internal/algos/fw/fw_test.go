package fw

import (
	"fmt"
	"math"
	"testing"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/algotest"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/matrix"
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

func TestSuiteSmall(t *testing.T) { algotest.RunSuite(t, factory(8, 2, 31)) }
func TestSuiteDeep(t *testing.T)  { algotest.RunSuite(t, factory(32, 4, 32)) }
func TestSuiteFine(t *testing.T)  { algotest.RunSuite(t, factory(16, 2, 33)) }

func TestRulesValidate(t *testing.T) {
	if err := Rules().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSpanGap verifies Eq. 15's consequence: the ND span is Θ(n) while the
// NP span is Θ(n log n), so the ratio grows with n.
func TestSpanGap(t *testing.T) {
	ratio := func(n int) float64 {
		var spans [2]int64
		for i, model := range []algos.Model{algos.NP, algos.ND} {
			prog, _, err := factory(n, 2, 3)(model)
			if err != nil {
				t.Fatal(err)
			}
			spans[i] = core.MustRewrite(prog).Span()
		}
		return float64(spans[0]) / float64(spans[1])
	}
	r16, r64 := ratio(16), ratio(64)
	if r64 <= r16 {
		t.Errorf("NP/ND span ratio did not grow: n=16 → %.3f, n=64 → %.3f", r16, r64)
	}
}

// TestNDSpanLinear: the ND span doubles when n doubles.
func TestNDSpanLinear(t *testing.T) {
	span := func(n int) int64 {
		prog, _, err := factory(n, 2, 3)(algos.ND)
		if err != nil {
			t.Fatal(err)
		}
		return core.MustRewrite(prog).Span()
	}
	s16, s32, s64 := span(16), span(32), span(64)
	g1, g2 := float64(s32)/float64(s16), float64(s64)/float64(s32)
	if g1 > 2.6 || g2 > 2.6 {
		t.Errorf("ND span growth factors %.2f, %.2f exceed linear scaling", g1, g2)
	}
}

// TestOperatorAsymmetry guards the test oracle itself: MixOp must not be
// symmetric, otherwise swapped-argument bugs would go unnoticed.
func TestOperatorAsymmetry(t *testing.T) {
	if MixOp(3, 5) == MixOp(5, 3) {
		t.Fatal("MixOp is symmetric; the oracle cannot detect argument swaps")
	}
}

// TestPaperRuleSetIncomplete documents the deviation from the preprint:
// the printed rule family (without the vertical/corner types) misses true
// dependencies. We reconstruct it and show the validator rejects it.
func TestPaperRuleSetIncomplete(t *testing.T) {
	printed := core.RuleSet{
		FireABAB: {core.R("2", FireBAv, "1")}, // paper: ABAB = {+2 BA~> -1}
		FireAB: {
			core.R("1.1", FireAB, "1.1"),
			core.R("1.1", FireAB, "1.2"),
			core.R("2.1", FireAB, "2.1"),
			core.R("2.1", FireAB, "2.2"),
		},
		FireBAv: {
			core.R("2.1", FireBAv, "1.1"),
			core.R("2.2", FireBBv, "1.2"),
		},
		FireBBv: {
			core.R("2.1", FireBBv, "1.1"),
			core.R("2.2", FireBBv, "1.2"),
		},
		FireBBBB: {
			core.R("1", FireBBv, "1"),
			core.R("2", FireBBv, "2"),
		},
	}
	inst := NewInstance(matrix.NewSpace(), 16, 44)
	prog, err := core.NewProgram(inst.treeA(algos.ND, 1, 17, 2), printed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Rewrite(prog)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := depsCheck(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep {
		t.Fatal("the preprint's printed 1-D FW rules unexpectedly cover all dependencies; deviation note in DESIGN.md is stale")
	}
}

// MixOp is integer arithmetic; it must return math.Mod's bits on every
// operand pair a table can hold: prev is a row-0 value (an integer below
// 2²⁴) or a residue, and so is diag. Every residue meets, in both
// positions, a sample of residues and of row-0 values.
func TestMixOpMatchesMod(t *testing.T) {
	check := func(prev, diag float64) {
		got, want := MixOp(prev, diag), math.Mod(prev+2*diag+1, 1021)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MixOp(%v, %v) = %v, math.Mod form %v", prev, diag, got, want)
		}
	}
	sample := []float64{1021, 1022, 1<<24 - 1022, 1<<24 - 1}
	for r := 0; r < 1021; r += 1 + r/16 { // dense near 0, every 64th by the end
		sample = append(sample, float64(r), float64(1020-r))
	}
	state := uint64(7)
	for i := 0; i < 256; i++ { // the generator NewInstance fills row 0 with
		state = state*2862933555777941757 + 3037000493
		sample = append(sample, float64(state>>40))
	}
	for r := 0; r < 1021; r++ {
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
