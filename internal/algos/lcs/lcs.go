// Package lcs builds spawn trees for the divide-and-conquer Longest Common
// Subsequence dynamic program of §3 of the paper (Eq. 16/17, Figures 1 and
// 11). The DP table X has X(i,j) depending on X(i−1,j−1), X(i,j−1) and
// X(i−1,j); the 2-way decomposition solves the four quadrants with
//
//	X00  HV~>  (X01 ‖ X10)  VH~>  X11
//
// using the published rule tables (Eqs. 18–21), which our dependency
// validator confirms are complete: the diagonal (corner) dependencies are
// enforced transitively through the horizontal and vertical chains.
//
// In the NP model the same tree uses ";" and the span recurrence
// T(n) = 3T(n/2) + O(1) gives Θ(n^lg3); the ND rules restore the optimal
// Θ(n). (The paper's prose quotes O(n log n) for the NP span; the 4-way
// composition it draws in Figure 1c actually yields Θ(n^lg3) ≈ n^1.585,
// which is what we measure. Either way the ND gap grows with n.)
package lcs

import (
	"fmt"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/footprint"
	"github.com/ndflow/ndflow/internal/matrix"
)

const (
	// FireHV connects X00 to (X01 ‖ X10): horizontal into X01, vertical
	// into X10 (Eq. 18).
	FireHV = "HV"
	// FireVH connects (X01 ‖ X10) to X11: vertical from X01, horizontal
	// from X10 (Eq. 19).
	FireVH = "VH"
	// FireH is the horizontal partial dependency between two LCS tasks on
	// row-aligned adjacent blocks (Eq. 20).
	FireH = "H"
	// FireV is the vertical partial dependency between two LCS tasks on
	// column-aligned adjacent blocks (Eq. 21).
	FireV = "V"
)

// Rules returns the fire-rule set for ND LCS (Eqs. 18–21 of the paper). The
// table is shared and must not be modified.
func Rules() core.RuleSet { return rules }

var labels = algos.NewLabels("lcs")

var rules = core.RuleSet{
	FireHV: {
		core.R("", FireH, "1"),
		core.R("", FireV, "2"),
	},
	FireVH: {
		// X01 is directly above X11 and X10 directly to its left
		// (Figure 11a). The source of VH~> is the HV~> node, whose
		// second child is (X01 ‖ X10), so their pedigrees are 2.1 and
		// 2.2. (The preprint's Eq. 19 prints them as 1 and 2, which
		// aims the refinements at X00 and the ‖ node and drops
		// vertical dependencies at recursion depth ≥ 3; the deps
		// validator rejects that variant.)
		core.R("2.1", FireV, ""),
		core.R("2.2", FireH, ""),
	},
	FireH: {
		// Source's right-column halves feed the sink's left-column
		// halves, row-aligned: X01 → sink X00, X11 → sink X10.
		core.R("1.2.1", FireH, "1.1"),
		core.R("2", FireH, "1.2.2"),
	},
	FireV: {
		// Source's bottom-row halves feed the sink's top-row halves,
		// column-aligned: X10 → sink X00, X11 → sink X01.
		core.R("1.2.2", FireV, "1.1"),
		core.R("2", FireV, "1.2.1"),
	},
}

// Instance holds the DP table and the two sequences. The table has an
// extra boundary row 0 and column 0, which are inputs (all zeros for LCS).
type Instance struct {
	N     int            // sequence length; table is (N+1)×(N+1)
	Table *matrix.Matrix // X(i,j); row 0 and column 0 are given
	S, T  *matrix.Matrix // 1×(N+1); entries 1..N hold the symbols
}

// NewInstance allocates a table and two random sequences over an
// alphabet of the given size (small alphabets produce many matches).
func NewInstance(space *matrix.Space, n int, alphabet int, seed int64) *Instance {
	inst := &Instance{
		N:     n,
		Table: matrix.New(space, n+1, n+1),
		S:     matrix.New(space, 1, n+1),
		T:     matrix.New(space, 1, n+1),
	}
	// Simple deterministic LCG so instances are reproducible without
	// threading a *rand.Rand through.
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state >> 33)
	}
	for i := 1; i <= n; i++ {
		inst.S.Set(0, i, float64(next()%alphabet))
		inst.T.Set(0, i, float64(next()%alphabet))
	}
	return inst
}

// Tree builds the spawn tree computing rows/cols [r0, r0+size) of the
// table (1-based; the caller's top-level call is Tree(model, inst, 1, 1,
// inst.N, base)).
func (inst *Instance) Tree(model algos.Model, r0, c0, size, base int) *core.Node {
	if size <= base {
		return inst.leaf(r0, c0, size)
	}
	h := size / 2
	x00 := inst.Tree(model, r0, c0, h, base)
	x01 := inst.Tree(model, r0, c0+h, h, base)
	x10 := inst.Tree(model, r0+h, c0, h, base)
	x11 := inst.Tree(model, r0+h, c0+h, h, base)
	if model == algos.NP {
		return core.NewSeq(x00, core.NewPar(x01, x10), x11)
	}
	return core.NewFire(FireVH,
		core.NewFire(FireHV, x00, core.NewPar(x01, x10)),
		x11,
	)
}

func (inst *Instance) leaf(r0, c0, size int) *core.Node {
	tab := inst.Table
	block := tab.BlockFootprint(r0, c0, size, size)
	reads := footprint.UnionAll(
		tab.BlockFootprint(r0-1, c0-1, 1, size+1), // row above, incl. corner
		tab.BlockFootprint(r0, c0-1, size, 1),     // column to the left
		block,                                     // own block (rows beyond the first read earlier rows)
		inst.S.BlockFootprint(0, r0, 1, size),
		inst.T.BlockFootprint(0, c0, 1, size),
	)
	return core.NewStrand(
		labels.Size(size),
		int64(size)*int64(size),
		reads,
		block,
		func() { inst.computeBlock(r0, c0, size) },
	)
}

//ndlint:noalloc
func (inst *Instance) computeBlock(r0, c0, size int) {
	tab, s, t := inst.Table, inst.S.Row(0), inst.T.Row(0)[c0:c0+size]
	for i := r0; i < r0+size; i++ {
		// diag and left start one column left of the block, so index j is
		// block column j in all four; left[j+1] is the cell cur[j] just set.
		up, row := tab.Row(i-1), tab.Row(i)
		diag, above := up[c0-1:][:len(t)], up[c0:][:len(t)]
		left, cur := row[c0-1:][:len(t)], row[c0:][:len(t)]
		si := s[i]
		for j, tj := range t {
			if si == tj {
				cur[j] = diag[j] + 1
			} else {
				cur[j] = max(left[j], above[j])
			}
		}
	}
}

// New builds a complete program filling the instance's table.
func New(model algos.Model, inst *Instance, base int) (*core.Program, error) {
	if err := algos.CheckPow2(inst.N, base); err != nil {
		return nil, fmt.Errorf("lcs: %w", err)
	}
	return core.NewProgram(inst.Tree(model, 1, 1, inst.N, base), algos.RulesFor(model, rules))
}

// Serial fills the table with the classic row-major dynamic program;
// the reference implementation.
func (inst *Instance) Serial() {
	inst.computeBlock(1, 1, inst.N)
}

// Length returns X(N, N): the LCS length (valid after execution).
func (inst *Instance) Length() int { return int(inst.Table.At(inst.N, inst.N)) }
