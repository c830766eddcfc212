// Package cholesky builds spawn trees for the 2-way divide-and-conquer
// Cholesky factorization A = L·Lᵀ of §3 of the paper (Eq. 10 for NP,
// Eq. 11 for ND, Figure 9). The factor L overwrites A's lower triangle in
// place; diagonal base blocks zero their strict upper triangles, and
// blocks strictly above the diagonal are left untouched.
//
// The recursion is
//
//	L00 ← CHO(A00)
//	L10 ← A10·L00⁻ᵀ            (right triangular solve, trs.TreeRight)
//	A11 ← A11 − L10·L10ᵀ       (matmul with a transposed view, as the
//	                            paper's MMS(L10, L10ᵀ, A11))
//	L11 ← CHO(A11)
//
// The ND fire types follow Eq. 11's shape — CT between the factor and the
// solve, MC between the update and the trailing factor, and CTMC between
// the two halves — with rule tables re-derived from the data dependencies
// (the preprint's displayed tables contain typos; see DESIGN.md). The
// CTMC construct emits two arrows of different types between the same pair
// of subtasks because the update consumes L10 both directly (first
// operand) and transposed (second operand).
package cholesky

import (
	"fmt"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/matmul"
	"github.com/ndflow/ndflow/internal/algos/trs"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/matrix"
)

const (
	// FireCT connects CHO(A00) to the right solve consuming L00.
	FireCT = "CT"
	// FireMC connects the symmetric update to CHO(A11) consuming it.
	FireMC = "MC"
	// FireCTMC connects the two halves: the solve's L10 output feeds the
	// update's two operands.
	FireCTMC = "CTMC"
)

// Rules returns the fire-rule set for ND Cholesky, including the solve and
// matmul rules it builds on. The table is shared and must not be modified.
func Rules() core.RuleSet { return rules }

var labels = algos.NewLabels("cho")

var rules = core.MustMerge(core.RuleSet{
	FireCT: {
		// L00's sub-blocks feed their consumers inside the right
		// solve TRSR(L00, A10): the diagonal sub-factors feed the
		// sub-solves, the off-diagonal sub-solve feeds the row
		// updates (as a transposed second operand).
		core.R("1.1", FireCT, "1.1.1"),
		core.R("1.1", FireCT, "1.2.1"),
		core.R("1.2", trs.FireRMB, "1.1.2"),
		core.R("1.2", trs.FireRMB, "1.2.2"),
		core.R("2.2", FireCT, "2.1"),
		core.R("2.2", FireCT, "2.2"),
	},
	FireCTMC: {
		// The solve's output L10 is both operands of the update.
		core.R("2", trs.FireRM, "1"),
		core.R("2", trs.FireRMB, "1"),
	},
	FireMC: {
		// The update's final writes per quadrant feed the trailing
		// factorization: A11_00 → sub-factor, A11_10 → sub-solve
		// (right-hand side), A11_11 → sub-update (accumulator).
		// A11_01 is written by the full-square update but never read
		// by the lower-triangular factorization, so it needs no rule.
		core.R("2.1.1", FireMC, "1.1"),
		core.R("2.2.1", trs.FireMR, "1.2"),
		core.R("2.2.2", matmul.FireSame, "2.1"),
	},
}, trs.RulesRight())

// Tree builds the spawn tree factoring the n×n SPD view a in place.
// Numerical failures (non-positive pivots) in base-case strands are
// recorded in errSlot, which must be non-nil.
func Tree(model algos.Model, a *matrix.Matrix, base int, errSlot *error) *core.Node {
	n := a.Rows()
	if a.Cols() != n {
		panic(fmt.Sprintf("cholesky.Tree: not square: %d×%d", n, a.Cols()))
	}
	if n <= base {
		return leaf(a, errSlot)
	}
	a00, a10, a11 := a.Quad(0, 0), a.Quad(1, 0), a.Quad(1, 1)
	factorTop := Tree(model, a00, base, errSlot)
	solve := trs.TreeRight(model, a00, a10, base)
	update := matmul.Tree(model, a11, a10, a10.T(), -1, base)
	factorBottom := Tree(model, a11, base, errSlot)
	if model == algos.NP {
		return core.NewSeq(factorTop, solve, update, factorBottom)
	}
	return core.NewFire(FireCTMC,
		core.NewFire(FireCT, factorTop, solve),
		core.NewFire(FireMC, update, factorBottom),
	)
}

func leaf(a *matrix.Matrix, errSlot *error) *core.Node {
	n := a.Rows()
	fp := a.Footprint()
	return core.NewStrand(
		labels.Size(n),
		matrix.CholeskyWork(n),
		fp, fp,
		func() {
			if err := matrix.CholeskyInPlace(a); err != nil && *errSlot == nil {
				*errSlot = err
			}
		},
	)
}

// New builds a complete program factoring a in place. The returned error
// slot must be checked after execution for numerical failures.
func New(model algos.Model, a *matrix.Matrix, base int) (*core.Program, *error, error) {
	if err := algos.CheckPow2(a.Rows(), base); err != nil {
		return nil, nil, fmt.Errorf("cholesky: %w", err)
	}
	errSlot := new(error)
	prog, err := core.NewProgram(Tree(model, a, base, errSlot), algos.RulesFor(model, rules))
	if err != nil {
		return nil, nil, err
	}
	return prog, errSlot, nil
}

// Serial factors a in place using the same recursion shape as the parallel
// trees (so rounding behaviour matches); the reference implementation.
func Serial(a *matrix.Matrix, base int) error {
	n := a.Rows()
	if n <= base {
		return matrix.CholeskyInPlace(a)
	}
	a00, a10, a11 := a.Quad(0, 0), a.Quad(1, 0), a.Quad(1, 1)
	if err := Serial(a00, base); err != nil {
		return err
	}
	matrix.SolveLowerRightT(a00, a10)
	matrix.MulAdd(a11, a10, a10.T(), -1)
	return Serial(a11, base)
}
