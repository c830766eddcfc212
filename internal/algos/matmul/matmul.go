// Package matmul builds spawn trees for the recursive, cache-oblivious
// matrix multiply-accumulate C += sign·A·B of §2 of the paper, in both the
// nested parallel (NP) and nested dataflow (ND) models.
//
// The divide-and-conquer step splits every matrix into quadrants and runs
// two groups of four independent sub-multiplies; the two sub-multiplies
// that accumulate into the same C quadrant must be serialized. The NP tree
// uses ";" between the groups. The ND tree uses a fire construct that
// serializes the groups per C quadrant, recursively.
//
// Deviation from the paper's printed Eq. (1): the printed rule set
// {+1 MM~> -1, +2 MM~> -2} maps group-halves of one multiply to
// group-halves of its successor position-wise at every depth, which at
// recursion depth ≥ 3 lets a successor's *first* update of a C sub-quadrant
// run concurrently with the predecessor's *second* update of the same
// sub-quadrant (a write-write race). We therefore use two shape-specific
// types: FireGroups serializes the two groups inside one multiply per C
// quadrant, and FireSame serializes two whole multiplies that accumulate
// into the same C by chaining the predecessor's final updates to the
// successor's first updates. The deps validator proves the repaired rules
// enforce every true dependency (see TestNDCoversAllDependencies).
package matmul

import (
	"fmt"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/footprint"
	"github.com/ndflow/ndflow/internal/matrix"
)

const (
	// FireGroups ("MMgrp") connects the two groups of four sub-multiplies
	// inside one multiply task: the group-2 multiply of each C quadrant
	// waits for the group-1 multiply of the same quadrant.
	FireGroups = "MMgrp"
	// FireSame ("MM") connects two whole multiply tasks accumulating into
	// the same C: each quadrant's final update in the source precedes the
	// same quadrant's first update in the sink.
	FireSame = "MM"
)

// rules is parsed once, at package initialization; builds share it.
var rules = core.RuleSet{
	FireGroups: {
		// Same C quadrant, group 1 → group 2, refined by FireSame.
		core.R("1.1", FireSame, "1.1"),
		core.R("1.2", FireSame, "1.2"),
		core.R("2.1", FireSame, "2.1"),
		core.R("2.2", FireSame, "2.2"),
	},
	FireSame: {
		// Source's final (group-2) updates feed the sink's first
		// (group-1) updates of the same C sub-quadrant; the sink's own
		// FireGroups construct orders its group 2 transitively.
		core.R("2.1.1", FireSame, "1.1.1"),
		core.R("2.1.2", FireSame, "1.1.2"),
		core.R("2.2.1", FireSame, "1.2.1"),
		core.R("2.2.2", FireSame, "1.2.2"),
	},
}

var labels = algos.NewLabels("mm")

// Rules returns the fire-rule set for ND matrix multiplication. The table
// is shared by every program built from it and must not be modified.
func Rules() core.RuleSet { return rules }

// Tree builds the spawn tree for C += sign·A·B with square power-of-two
// operands and base-case side length base. The returned tree can be
// embedded as a subtask of larger programs (TRS, Cholesky, LU).
func Tree(model algos.Model, c, a, b *matrix.Matrix, sign float64, base int) *core.Node {
	n := c.Rows()
	if c.Cols() != n || a.Rows() != n || a.Cols() != n || b.Rows() != n || b.Cols() != n {
		panic(fmt.Sprintf("matmul.Tree: need square equal shapes, got C %d×%d A %d×%d B %d×%d",
			c.Rows(), c.Cols(), a.Rows(), a.Cols(), b.Rows(), b.Cols()))
	}
	if n <= base {
		return leaf(c, a, b, sign)
	}
	cq, aq, bq := quads(c), quads(a), quads(b) // each view is shared by two sub-multiplies
	group := func(k int) *core.Node {
		// Group k ∈ {0,1} computes C_ij += A_ik · B_kj for all i, j.
		sub := func(i, j int) *core.Node {
			return Tree(model, cq[i][j], aq[i][k], bq[k][j], sign, base)
		}
		return core.NewPar(
			core.NewPar(sub(0, 0), sub(0, 1)),
			core.NewPar(sub(1, 0), sub(1, 1)),
		)
	}
	g1, g2 := group(0), group(1)
	if model == algos.NP {
		return core.NewSeq(g1, g2)
	}
	return core.NewFire(FireGroups, g1, g2)
}

func quads(m *matrix.Matrix) [2][2]*matrix.Matrix {
	return [2][2]*matrix.Matrix{{m.Quad(0, 0), m.Quad(0, 1)}, {m.Quad(1, 0), m.Quad(1, 1)}}
}

func leaf(c, a, b *matrix.Matrix, sign float64) *core.Node {
	n := c.Rows()
	writes := c.Footprint()
	reads := footprint.UnionAll(a.Footprint(), b.Footprint(), writes) // accumulation reads C as well
	return core.NewStrand(labels.Size(n), matrix.MulAddWork(n, a.Cols(), n), reads, writes, func() {
		matrix.MulAdd(c, a, b, sign)
	})
}

// New builds a complete program computing C += sign·A·B.
func New(model algos.Model, c, a, b *matrix.Matrix, sign float64, base int) (*core.Program, error) {
	if err := algos.CheckPow2(c.Rows(), base); err != nil {
		return nil, fmt.Errorf("matmul: %w", err)
	}
	return core.NewProgram(Tree(model, c, a, b, sign, base), algos.RulesFor(model, rules))
}

// Serial computes C += sign·A·B directly; the reference implementation the
// parallel trees are verified against.
func Serial(c, a, b *matrix.Matrix, sign float64) {
	matrix.MulAdd(c, a, b, sign)
}
