// Package stencil implements a 1-D upwind (transport-equation) stencil in
// the ND model — the paper's §3 notes that "other algorithms such as
// stencils … can also be effectively described in this model". Each cell
// depends on two cells of the previous time step:
//
//	d(t,i) = f(d(t−1,i−1), d(t−1,i))
//
// The divide-and-conquer splits the (time × space) table into quadrants.
// A block depends on the block above it (vertical), the block to its left
// in the same time band (the skewed i−1 dependency crosses the column
// boundary at every row), and the bottom-right corner of its above-left
// diagonal neighbour — a wavefront pattern with fire types SH
// (left → right within a band), SV (vertical), and SR (diagonal corner).
//
// Scope note: the symmetric three-point stencil d(t−1, i−1..i+1) makes
// square space-time blocks *mutually* dependent (each neighbour needs the
// other's previous rows), which rectangular spawn trees cannot express —
// that is exactly why trapezoidal decompositions exist. The upwind
// variant keeps the paper's point (stencils fit the fire construct) with
// an acyclic rectangular decomposition; a trapezoid decomposition is
// future work here as it is in the paper.
package stencil

import (
	"fmt"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/footprint"
	"github.com/ndflow/ndflow/internal/matrix"
)

const (
	// FireSS connects a block's top time half-band to its bottom one.
	FireSS = "SS"
	// FireSH connects a block to the right neighbour in its time band.
	FireSH = "SH"
	// FireSV connects a block to the column-aligned block below it.
	FireSV = "SV"
	// FireSR connects a block to its below-right diagonal neighbour,
	// which consumes the block's bottom-right corner cell.
	FireSR = "SR"
)

// Rules returns the fire-rule set for the ND upwind stencil. The table is
// shared and must not be modified.
func Rules() core.RuleSet { return rules }

var labels = algos.NewLabels("st")

var rules = core.RuleSet{
	FireSS: {
		// Band halves: vertical per column half, plus the up-left
		// diagonal into the sink's right half.
		core.R("1", FireSV, "1"),
		core.R("2", FireSV, "2"),
		core.R("1", FireSR, "2"),
	},
	FireSH: {
		// The source's right-column halves feed the sink's left
		// column, row-aligned; the source's top-right also feeds the
		// sink's bottom-left (the skew crosses the row boundary).
		core.R("1.2", FireSH, "1.1"),
		core.R("2.2", FireSH, "2.1"),
		core.R("1.2", FireSR, "2.1"),
	},
	FireSV: {
		core.R("2.1", FireSV, "1.1"),
		core.R("2.2", FireSV, "1.2"),
		core.R("2.1", FireSR, "1.2"),
	},
	FireSR: {
		core.R("2.2", FireSR, "1.1"),
	},
}

// Op combines the two stencil inputs. Deterministic and asymmetric so
// tests detect operand swaps.
type Op func(left, mid float64) float64

// MixOp is the default operator (exact integer arithmetic mod 2039).
// Cells are integers (row 0 and the inflow column below 2¹⁹, the rest
// residues), so the sum is an exact non-negative integer below 2²¹ and
// its integer remainder is math.Mod's, bit for bit.
func MixOp(left, mid float64) float64 {
	return float64(int64(left+3*mid+1) % 2039)
}

// Instance is a stencil table: rows are time steps 0..N (row 0 given),
// columns 0..N with column 0 held as a fixed inflow boundary.
type Instance struct {
	N     int
	Table *matrix.Matrix // (N+1)×(N+1)
	Op    Op
}

// NewInstance builds an instance with pseudo-random initial and boundary
// values.
func NewInstance(space *matrix.Space, n int, seed int64) *Instance {
	inst := &Instance{N: n, Table: matrix.New(space, n+1, n+1), Op: MixOp}
	state := uint64(seed)*0x2545f4914f6cdd1d + 11
	val := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state >> 45)
	}
	for i := 0; i <= n; i++ {
		inst.Table.Set(0, i, val())
	}
	for t := 1; t <= n; t++ { // fixed inflow boundary
		inst.Table.Set(t, 0, inst.Table.At(0, 0))
	}
	return inst
}

// tree builds the task computing rows [lo,hi) × cols [c0,c1).
func (inst *Instance) tree(model algos.Model, lo, hi, c0, c1, base int) *core.Node {
	if hi-lo <= base {
		return inst.leaf(lo, hi, c0, c1)
	}
	m, cm := (lo+hi)/2, (c0+c1)/2
	tl := inst.tree(model, lo, m, c0, cm, base)
	tr := inst.tree(model, lo, m, cm, c1, base)
	bl := inst.tree(model, m, hi, c0, cm, base)
	br := inst.tree(model, m, hi, cm, c1, base)
	if model == algos.NP {
		// The natural NP composition (cf. the paper's LCS): the mutually
		// independent anti-diagonal pair runs in parallel.
		return core.NewSeq(tl, core.NewPar(tr, bl), br)
	}
	return core.NewFire(FireSS,
		core.NewFire(FireSH, tl, tr),
		core.NewFire(FireSH, bl, br),
	)
}

func (inst *Instance) leaf(lo, hi, c0, c1 int) *core.Node {
	tab := inst.Table
	block := tab.BlockFootprint(lo, c0, hi-lo, c1-c0)
	// Row t reads (t−1, c0−1..c1−1): the row above plus the left column
	// at rows lo−1 .. hi−2 (never later rows, which would declare false
	// conflicts with the block below the left neighbour).
	reads := footprint.UnionAll(
		tab.BlockFootprint(lo-1, c0-1, 1, c1-c0+1), // row above incl. left corner
		tab.BlockFootprint(lo-1, c0-1, hi-lo, 1),   // left column, rows lo−1..hi−2
		block,
	)
	return core.NewStrand(
		labels.Size(hi-lo),
		int64(hi-lo)*int64(c1-c0),
		reads,
		block,
		func() { inst.compute(lo, hi, c0, c1) },
	)
}

//ndlint:noalloc
func (inst *Instance) compute(lo, hi, c0, c1 int) {
	tab, op := inst.Table, inst.Op
	for t := lo; t < hi; t++ {
		prev, cur := tab.Row(t-1), tab.Row(t)[c0:c1]
		left, mid := prev[c0-1:][:len(cur)], prev[c0:][:len(cur)]
		for i := range cur {
			cur[i] = op(left[i], mid[i])
		}
	}
}

// New builds a complete program filling rows 1..N, columns 1..N.
func New(model algos.Model, inst *Instance, base int) (*core.Program, error) {
	if err := algos.CheckPow2(inst.N, base); err != nil {
		return nil, fmt.Errorf("stencil: %w", err)
	}
	return core.NewProgram(inst.tree(model, 1, inst.N+1, 1, inst.N+1, base), algos.RulesFor(model, rules))
}

// Serial fills the table row by row; the reference implementation.
func (inst *Instance) Serial() {
	inst.compute(1, inst.N+1, 1, inst.N+1)
}
