package trs

import (
	"fmt"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/matmul"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/footprint"
	"github.com/ndflow/ndflow/internal/matrix"
)

const (
	// FireRM connects a right sub-solve to the multiply consuming the
	// solve's output as its first operand.
	FireRM = "RM"
	// FireRMB connects a right sub-solve to a multiply consuming the
	// solve's output transposed as its second operand (used by Cholesky's
	// symmetric update A11 -= L10·L10ᵀ).
	FireRMB = "RMB"
	// FireMR connects a multiply to the right solve consuming its
	// accumulator as the right-hand side.
	FireMR = "MR"
	// FirePairR connects the two row pairs to the right sub-solves.
	FirePairR = "2RM2R"
)

// RulesRight returns the fire-rule set for the ND right solve, including
// the matmul rules it builds on. The table is shared and must not be
// modified.
func RulesRight() core.RuleSet { return rulesRight }

var rulesRight = core.MustMerge(core.RuleSet{
	FirePairR: {
		core.R("1.2", FireMR, "1"),
		core.R("2.2", FireMR, "2"),
	},
	FireRM: {
		// Solve produces X quadrants at 1.1.1 (X00), 1.2.1 (X10),
		// 2.1 (X01), 2.2 (X11); the multiply's first operand A uses
		// A00 at {1.1.1, 1.1.2}, A10 at {1.2.1, 1.2.2}, A01 at
		// {2.1.1, 2.1.2}, A11 at {2.2.1, 2.2.2}.
		core.R("1.1.1", FireRM, "1.1.1"),
		core.R("1.1.1", FireRM, "1.1.2"),
		core.R("1.2.1", FireRM, "1.2.1"),
		core.R("1.2.1", FireRM, "1.2.2"),
		core.R("2.1", FireRM, "2.1.1"),
		core.R("2.1", FireRM, "2.1.2"),
		core.R("2.2", FireRM, "2.2.1"),
		core.R("2.2", FireRM, "2.2.2"),
	},
	FireRMB: {
		// The multiply's second operand is the solve output
		// transposed, so B_kj = X_jkᵀ: B00 = X00ᵀ from 1.1.1,
		// B01 = X10ᵀ from 1.2.1, B10 = X01ᵀ from 2.1, B11 = X11ᵀ
		// from 2.2. The table coincides with FireTM's but recurses
		// with right-solve source shapes.
		core.R("1.1.1", FireRMB, "1.1.1"),
		core.R("1.1.1", FireRMB, "1.2.1"),
		core.R("1.2.1", FireRMB, "1.1.2"),
		core.R("1.2.1", FireRMB, "1.2.2"),
		core.R("2.1", FireRMB, "2.1.1"),
		core.R("2.1", FireRMB, "2.2.1"),
		core.R("2.2", FireRMB, "2.1.2"),
		core.R("2.2", FireRMB, "2.2.2"),
	},
	FireMR: {
		core.R("2.1.1", FireMR, "1.1.1"),
		core.R("2.1.2", matmul.FireSame, "1.1.2"),
		core.R("2.2.1", FireMR, "1.2.1"),
		core.R("2.2.2", matmul.FireSame, "1.2.2"),
	},
}, matmul.Rules())

// TreeRight builds the spawn tree solving X·Lᵀ = B in place on B, where L
// is the n×n lower-triangular view and B is n×n.
func TreeRight(model algos.Model, l, b *matrix.Matrix, base int) *core.Node {
	n := l.Rows()
	if l.Cols() != n || b.Rows() != n || b.Cols() != n {
		panic(fmt.Sprintf("trs.TreeRight: need square equal shapes, got L %d×%d B %d×%d", l.Rows(), l.Cols(), b.Rows(), b.Cols()))
	}
	if n <= base {
		return leafRight(l, b)
	}
	l00, l10, l11 := l.Quad(0, 0), l.Quad(1, 0), l.Quad(1, 1)
	pair := func(i int) *core.Node {
		solve := TreeRight(model, l00, b.Quad(i, 0), base)
		mult := matmul.Tree(model, b.Quad(i, 1), b.Quad(i, 0), l10.T(), -1, base)
		if model == algos.NP {
			return core.NewSeq(solve, mult)
		}
		return core.NewFire(FireRM, solve, mult)
	}
	top := core.NewPar(pair(0), pair(1))
	bottom := core.NewPar(
		TreeRight(model, l11, b.Quad(0, 1), base),
		TreeRight(model, l11, b.Quad(1, 1), base),
	)
	if model == algos.NP {
		return core.NewSeq(top, bottom)
	}
	return core.NewFire(FirePairR, top, bottom)
}

func leafRight(l, b *matrix.Matrix) *core.Node {
	n := l.Rows()
	writes := b.Footprint()
	return core.NewStrand(
		labelsRight.Size(n),
		matrix.SolveLowerRightTWork(n, b.Rows()),
		footprint.Union(l.Footprint(), writes),
		writes,
		func() { matrix.SolveLowerRightT(l, b) },
	)
}

// NewRight builds a complete program solving X·Lᵀ = B in place on B.
func NewRight(model algos.Model, l, b *matrix.Matrix, base int) (*core.Program, error) {
	if err := algos.CheckPow2(l.Rows(), base); err != nil {
		return nil, fmt.Errorf("trs: %w", err)
	}
	return core.NewProgram(TreeRight(model, l, b, base), algos.RulesFor(model, rulesRight))
}

// SerialRight solves X·Lᵀ = B in place on B; the reference implementation.
func SerialRight(l, b *matrix.Matrix) { matrix.SolveLowerRightT(l, b) }
