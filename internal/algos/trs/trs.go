// Package trs builds spawn trees for triangular system solvers:
//
//   - Tree / New: the paper's 2-way divide-and-conquer left solve
//     T·X = B (§3, Eq. 3 for NP, Eq. 4 for ND, rules from Eq. 8), with X
//     overwriting B;
//   - TreeRight / NewRight: the mirrored right solve X·Lᵀ = B used by the
//     Cholesky factorization's "TRS(L00, A10ᵀ)ᵀ" step.
//
// In the ND model the solver exposes the wavefront parallelism of Figure 8:
// the two fire types connect each sub-solve to the multiply consuming its
// output ("TM"/"RM") and each multiply to the sub-solve consuming its
// accumulator ("MT"/"MR"), refined recursively per quadrant.
//
// The rule tables are re-derived from the data dependencies (the displayed
// Eq. (8) MT block in the arXiv preprint disagrees with the paper's own
// prose derivation); TestSuite* verifies mechanically that every true
// dependency is enforced.
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
	// FireTM connects a sub-solve (source) to the multiply consuming the
	// solve's output as its second operand (the paper's "TM~>").
	FireTM = "TM"
	// FireMT connects a multiply (source) to the solve consuming the
	// multiply's accumulator as its right-hand side (the paper's "MT~>").
	FireMT = "MT"
	// FirePair connects the two column pairs to the bottom solves (the
	// paper's "2TM2T~>").
	FirePair = "2TM2T"
)

// Rules returns the fire-rule set for the ND left solve, including the
// matmul rules it builds on. The table is shared and must not be modified.
func Rules() core.RuleSet { return rules }

var (
	labelsLeft  = algos.NewLabels("trs")
	labelsRight = algos.NewLabels("trsr")
)

var rules = core.MustMerge(core.RuleSet{
	FirePair: {
		// Each column's multiply feeds the solve below it (Eq. 5).
		core.R("1.2", FireMT, "1"),
		core.R("2.2", FireMT, "2"),
	},
	FireTM: {
		// Solve of X quadrant → multiplies reading that quadrant.
		// Matches the paper's Eq. (8) first block exactly.
		core.R("1.1.1", FireTM, "1.1.1"),
		core.R("1.1.1", FireTM, "1.2.1"),
		core.R("1.2.1", FireTM, "1.1.2"),
		core.R("1.2.1", FireTM, "1.2.2"),
		core.R("2.1", FireTM, "2.1.1"),
		core.R("2.1", FireTM, "2.2.1"),
		core.R("2.2", FireTM, "2.1.2"),
		core.R("2.2", FireTM, "2.2.2"),
	},
	FireMT: {
		// The multiply's final (group-2) update of each accumulator
		// quadrant feeds that quadrant's first consumer in the solve:
		// the top-left/top-right sub-solves for B00/B01 and the
		// column multiplies for B10/B11 (re-derived; see package doc).
		core.R("2.1.1", FireMT, "1.1.1"),
		core.R("2.1.2", FireMT, "1.2.1"),
		core.R("2.2.1", matmul.FireSame, "1.1.2"),
		core.R("2.2.2", matmul.FireSame, "1.2.2"),
	},
}, matmul.Rules())

// Tree builds the spawn tree solving T·X = B in place on B, where T is the
// n×n lower-triangular view and B is n×n. If unit is true the diagonal of
// T is taken to be 1 (needed by LU, whose packed L has U's diagonal).
func Tree(model algos.Model, t, b *matrix.Matrix, base int, unit bool) *core.Node {
	n := t.Rows()
	if t.Cols() != n || b.Rows() != n || b.Cols() != n {
		panic(fmt.Sprintf("trs.Tree: need square equal shapes, got T %d×%d B %d×%d", t.Rows(), t.Cols(), b.Rows(), b.Cols()))
	}
	if n <= base {
		return leafLeft(t, b, unit)
	}
	t00, t10, t11 := t.Quad(0, 0), t.Quad(1, 0), t.Quad(1, 1)
	pair := func(j int) *core.Node {
		solve := Tree(model, t00, b.Quad(0, j), base, unit)
		mult := matmul.Tree(model, b.Quad(1, j), t10, b.Quad(0, j), -1, base)
		if model == algos.NP {
			return core.NewSeq(solve, mult)
		}
		return core.NewFire(FireTM, solve, mult)
	}
	top := core.NewPar(pair(0), pair(1))
	bottom := core.NewPar(
		Tree(model, t11, b.Quad(1, 0), base, unit),
		Tree(model, t11, b.Quad(1, 1), base, unit),
	)
	if model == algos.NP {
		return core.NewSeq(top, bottom)
	}
	return core.NewFire(FirePair, top, bottom)
}

func leafLeft(t, b *matrix.Matrix, unit bool) *core.Node {
	n := t.Rows()
	writes := b.Footprint()
	return core.NewStrand(
		labelsLeft.Size(n),
		matrix.SolveLowerLeftWork(n, b.Cols()),
		footprint.Union(t.Footprint(), writes),
		writes,
		func() {
			if unit {
				matrix.SolveUnitLowerLeft(t, b)
			} else {
				matrix.SolveLowerLeft(t, b)
			}
		},
	)
}

// New builds a complete program solving T·X = B in place on B.
func New(model algos.Model, t, b *matrix.Matrix, base int) (*core.Program, error) {
	if err := algos.CheckPow2(t.Rows(), base); err != nil {
		return nil, fmt.Errorf("trs: %w", err)
	}
	return core.NewProgram(Tree(model, t, b, base, false), algos.RulesFor(model, rules))
}

// Serial solves T·X = B in place on B; the reference implementation.
func Serial(t, b *matrix.Matrix) { matrix.SolveLowerLeft(t, b) }
