// Package fw builds spawn trees for the 1-D Floyd–Warshall synthetic
// benchmark of §3 of the paper (Eq. 13/14, Figure 10) and, for the cache
// complexity experiments, a 2-D Floyd–Warshall (all-pairs shortest paths).
//
// The 1-D recurrence over a (time × space) table is
//
//	d(t,i) = d(t−1,i) ⊕ d(t−1,t−1)
//
// so every cell depends on the cell above it (vertical) and on the
// previous time step's diagonal cell. The divide-and-conquer of Eq. 14
// uses A-tasks on diagonal-aligned blocks and B-tasks on off-diagonal
// blocks whose diagonal inputs live in a neighbouring A-block.
//
// Rule-set deviation: the preprint's printed rules (ABAB = {+2 BA~> -1}
// and friends) enforce only the diagonal chains; the vertical dependencies
// X00 → X10 across an A-task's horizontal midline, and the corner cell
// (m−1, m−1) consumed by the first row below the midline, are not covered
// and the deps validator rejects them. We use the completed rule family
// below — AB (diagonal), AAc/ABc (corner), ABv/BAv/BBv (vertical) — which
// keeps the paper's Θ(n) ND span (all chains follow rows, columns or the
// diagonal) and passes the validator; see DESIGN.md.
package fw

import (
	"fmt"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/footprint"
	"github.com/ndflow/ndflow/internal/matrix"
)

const (
	// FireABAB connects (A00 AB~> B01) to (A11 AB~> B10): corner,
	// vertical and boundary-row dependencies between the two halves.
	FireABAB = "ABAB"
	// FireAB connects a diagonal A-task to the row-aligned B-task
	// consuming its diagonal cells.
	FireAB = "AB"
	// FireAAc delivers an A-task's final diagonal (corner) cell to the
	// next A-task down the diagonal.
	FireAAc = "AAc"
	// FireABc delivers an A-task's corner cell to a B-task's first row.
	FireABc = "ABc"
	// FireABv orders an A-task before the B-task directly below it
	// (column-aligned vertical dependency).
	FireABv = "ABv"
	// FireBAv orders a B-task before the A-task directly below it.
	FireBAv = "BAv"
	// FireBBv orders a B-task before the B-task directly below it
	// (the paper's "BB~>").
	FireBBv = "BBv"
	// FireBBBB connects a B-task's top row-half to its bottom row-half
	// (the paper's "BBBB~>").
	FireBBBB = "BBBB"
)

// Rules returns the completed fire-rule set for ND 1-D Floyd–Warshall. The
// table is shared and must not be modified.
func Rules() core.RuleSet { return rules }

var (
	labelsA = algos.NewLabels("fwA")
	labelsB = algos.NewLabels("fwB")
)

var rules = core.RuleSet{
	FireABAB: {
		core.R("1", FireAAc, "1"), // A00 corner → A11
		core.R("1", FireABv, "2"), // A00 column-block → B10 below it
		core.R("2", FireBAv, "1"), // B01 rows → A11 below it
	},
	FireAB: {
		core.R("1.1", FireAB, "1.1"),
		core.R("1.1", FireAB, "1.2"),
		core.R("2.1", FireAB, "2.1"),
		core.R("2.1", FireAB, "2.2"),
	},
	FireAAc: {
		core.R("2.1", FireAAc, "1.1"),
		core.R("2.1", FireABc, "1.2"),
	},
	FireABc: {
		core.R("2.1", FireABc, "1.1"),
		core.R("2.1", FireABc, "1.2"),
	},
	FireABv: {
		core.R("2.2", FireBBv, "1.1"), // source's bottom-left B → sink's top-left B
		core.R("2.1", FireABv, "1.2"), // source's bottom-right A → sink's top-right B
	},
	FireBAv: {
		core.R("2.1", FireBAv, "1.1"), // matches the paper's BA first rule
		core.R("2.2", FireBBv, "1.2"), // matches the paper's BA second rule
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

// Op combines the vertical input d(t−1,i) with the diagonal input
// d(t−1,t−1). It must be deterministic; tests use a non-commutative
// operator so mis-ordered executions change the result.
type Op func(prev, diag float64) float64

// MixOp is the default operator: exact integer arithmetic bounded by a
// modulus, asymmetric in its arguments. Cells are integers (row 0 below
// 2²⁴, the rest residues), so the sum is an exact non-negative integer
// below 2²⁶ and its integer remainder is math.Mod's, bit for bit.
func MixOp(prev, diag float64) float64 {
	return float64(int64(prev+2*diag+1) % 1021)
}

// Instance is a 1-D Floyd–Warshall table: rows are time steps, columns are
// positions. Row 0 is input; cells (t, i) for 1 ≤ t, i ≤ N are computed.
type Instance struct {
	N     int
	Table *matrix.Matrix // (N+1)×(N+1)
	Op    Op
}

// NewInstance allocates a table with a deterministic pseudo-random input
// row 0.
func NewInstance(space *matrix.Space, n int, seed int64) *Instance {
	inst := &Instance{N: n, Table: matrix.New(space, n+1, n+1), Op: MixOp}
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i := 0; i <= n; i++ {
		state = state*2862933555777941757 + 3037000493
		inst.Table.Set(0, i, float64(state>>40))
	}
	return inst
}

// treeA builds the task for the diagonal-aligned block rows [lo,hi) ×
// cols [lo,hi).
func (inst *Instance) treeA(model algos.Model, lo, hi, base int) *core.Node {
	if hi-lo <= base {
		return inst.leafA(lo, hi)
	}
	m := (lo + hi) / 2
	top := pairAB(model, inst.treeA(model, lo, m, base), inst.treeB(model, lo, m, m, hi, base))
	bottom := pairAB(model, inst.treeA(model, m, hi, base), inst.treeB(model, m, hi, lo, m, base))
	if model == algos.NP {
		return core.NewSeq(top, bottom)
	}
	return core.NewFire(FireABAB, top, bottom)
}

func pairAB(model algos.Model, a, b *core.Node) *core.Node {
	if model == algos.NP {
		return core.NewSeq(a, b)
	}
	return core.NewFire(FireAB, a, b)
}

// treeB builds the task for the off-diagonal block rows [lo,hi) ×
// cols [c0,c1); its diagonal inputs live in rows [lo,hi) of the diagonal.
func (inst *Instance) treeB(model algos.Model, lo, hi, c0, c1, base int) *core.Node {
	if hi-lo <= base {
		return inst.leafB(lo, hi, c0, c1)
	}
	m, cm := (lo+hi)/2, (c0+c1)/2
	top := core.NewPar(
		inst.treeB(model, lo, m, c0, cm, base),
		inst.treeB(model, lo, m, cm, c1, base),
	)
	bottom := core.NewPar(
		inst.treeB(model, m, hi, c0, cm, base),
		inst.treeB(model, m, hi, cm, c1, base),
	)
	if model == algos.NP {
		return core.NewSeq(top, bottom)
	}
	return core.NewFire(FireBBBB, top, bottom)
}

func (inst *Instance) leafA(lo, hi int) *core.Node {
	tab := inst.Table
	block := tab.BlockFootprint(lo, lo, hi-lo, hi-lo)
	return core.NewStrand(
		labelsA.Size(hi-lo),
		int64(hi-lo)*int64(hi-lo),
		footprint.Union(tab.BlockFootprint(lo-1, lo-1, 1, hi-lo+1), block), // boundary row incl. corner
		block,
		func() { inst.compute(lo, hi, lo, hi) },
	)
}

func (inst *Instance) leafB(lo, hi, c0, c1 int) *core.Node {
	tab := inst.Table
	block := tab.BlockFootprint(lo, c0, hi-lo, c1-c0)
	diag := make([]footprint.Interval, 0, hi-lo) // diagonal inputs d(t−1, t−1)
	for t := lo; t < hi; t++ {
		w := tab.Addr(t-1, t-1)
		diag = append(diag, footprint.Interval{Lo: w, Hi: w + 1})
	}
	return core.NewStrand(
		labelsB.Size(hi-lo),
		int64(hi-lo)*int64(c1-c0),
		footprint.UnionAll(tab.BlockFootprint(lo-1, c0, 1, c1-c0), block, footprint.New(diag...)), // boundary row, own block, diagonal
		block,
		func() { inst.compute(lo, hi, c0, c1) },
	)
}

//ndlint:noalloc
func (inst *Instance) compute(lo, hi, c0, c1 int) {
	tab, op := inst.Table, inst.Op
	for t := lo; t < hi; t++ {
		prev, cur := tab.Row(t-1), tab.Row(t)[c0:c1]
		diag := prev[t-1]
		for i, p := range prev[c0:c1] {
			cur[i] = op(p, diag)
		}
	}
}

// New builds a complete program filling rows 1..N of the instance table.
func New(model algos.Model, inst *Instance, base int) (*core.Program, error) {
	if err := algos.CheckPow2(inst.N, base); err != nil {
		return nil, fmt.Errorf("fw: %w", err)
	}
	return core.NewProgram(inst.treeA(model, 1, inst.N+1, base), algos.RulesFor(model, rules))
}

// Serial fills the table time step by time step; the reference.
func (inst *Instance) Serial() {
	inst.compute(1, inst.N+1, 1, inst.N+1)
}
