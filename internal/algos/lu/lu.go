// Package lu builds spawn trees for LU factorization with partial pivoting
// using Toledo's 2-way column recursion, as sketched in §3 of the paper:
//
//	LU(A[:, :w/2])                      // left half, recursively
//	apply its pivots to the right half  // parallel over column chunks
//	U12 ← L11⁻¹·A12                     // unit triangular solve (trs)
//	A22 ← A22 − L21·U12                 // parallel over square row chunks
//	LU(A[w/2:, w/2:])                   // trailing half, recursively
//	apply its pivots back to the left   // parallel over column chunks
//
// Pivot selection is data dependent, so a panel factorization is a single
// strand whose footprint covers the whole panel; pivot application is a
// parallel loop of column-chunk strands whose footprints cover their full
// columns (a swap may touch any row). The paper gives no fire-rule table
// for LU; per its one-paragraph description we obtain the ND variant by
// substituting the ND TRS and ND matmul substrates and firing the solve
// into the update (each U12 quadrant releases the row-chunk multiplies
// that read it) via a broadcast rule over the chunk list.
package lu

import (
	"fmt"
	"strconv"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/matmul"
	"github.com/ndflow/ndflow/internal/algos/trs"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/footprint"
	"github.com/ndflow/ndflow/internal/matrix"
)

// FireTU broadcasts the triangular solve's output to every row-chunk
// update multiply (each refined by the TM rules).
const FireTU = "TU"

// Rules returns the fire-rule set for ND LU, including the solve and
// matmul rules it builds on. The table is shared and must not be modified.
func Rules() core.RuleSet { return rules }

var rules = core.MustMerge(core.RuleSet{
	FireTU: {
		core.R("", trs.FireTM, "*"),
	},
}, trs.Rules())

// Instance is an in-place LU factorization problem: after execution A
// holds the packed factors (unit L strictly below the diagonal, U on and
// above it) and Piv holds, for each column j, the frame-relative row
// swapped with row j by that column's panel (the panel for column j spans
// rows [⌊j/base⌋·base, n) — see pivotRow).
type Instance struct {
	N    int
	Base int
	A    *matrix.Matrix
	Piv  *matrix.Matrix // 1×N, float64-encoded row indices
	err  error
}

// NewInstance wraps an n×n matrix for factorization with the given
// base-case panel width.
func NewInstance(space *matrix.Space, a *matrix.Matrix, base int) (*Instance, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("lu: matrix is %d×%d, need square", n, a.Cols())
	}
	if err := algos.CheckPow2(n, base); err != nil {
		return nil, fmt.Errorf("lu: %w", err)
	}
	return &Instance{N: n, Base: base, A: a, Piv: matrix.New(space, 1, n)}, nil
}

// Err returns the first numerical failure (singular panel) recorded
// during execution.
func (inst *Instance) Err() error { return inst.err }

// PivotRow returns the global row exchanged with global row j when column
// j was factored (replaying these swaps in column order builds P).
func (inst *Instance) PivotRow(j int) int {
	frame := (j / inst.Base) * inst.Base
	return frame + int(inst.Piv.At(0, j))
}

// tree builds the factorization of a (a view of rows [f, N) of the full
// matrix) writing pivots into piv (1×cols(a) view).
func (inst *Instance) tree(model algos.Model, a, piv *matrix.Matrix) *core.Node {
	w := a.Cols()
	if w <= inst.Base {
		return inst.panelLeaf(a, piv)
	}
	m, w2 := a.Rows(), w/2
	a1 := a.View(0, 0, m, w2)
	a2 := a.View(0, w2, m, w2)
	piv1 := piv.View(0, 0, 1, w2)
	piv2 := piv.View(0, w2, 1, w2)

	lu1 := inst.tree(model, a1, piv1)
	pivRight := inst.pivotApply(a2, piv1, w2)
	solve := trs.Tree(model, a1.View(0, 0, w2, w2), a2.View(0, 0, w2, w2), inst.Base, true)
	update := inst.updateChunks(model, a1, a2, w2)
	lu2 := inst.tree(model, a.View(w2, w2, m-w2, w2), piv2)
	pivLeft := inst.pivotApply(a1.View(w2, 0, m-w2, w2), piv2, w2)

	if model == algos.NP {
		return core.NewSeq(lu1, pivRight, solve, update, lu2, pivLeft)
	}
	var pipeline *core.Node
	if update.Kind == core.KindPar {
		pipeline = core.NewFire(FireTU, solve, update)
	} else {
		// A single row chunk: fire the solve into it directly.
		pipeline = core.NewFire(trs.FireTM, solve, update)
	}
	return core.NewSeq(lu1, pivRight, pipeline, lu2, pivLeft)
}

// pivotApply builds the parallel loop applying npiv row swaps to the
// columns of b, in chunks of the base width.
func (inst *Instance) pivotApply(b, piv *matrix.Matrix, npiv int) *core.Node {
	var chunks []*core.Node
	for c0 := 0; c0 < b.Cols(); c0 += inst.Base {
		width := inst.Base
		if c0+width > b.Cols() {
			width = b.Cols() - c0
		}
		chunk := b.View(0, c0, b.Rows(), width)
		fp := chunk.Footprint()
		chunks = append(chunks, core.NewStrand(
			label("piv", b.Rows(), width),
			int64(npiv)*int64(width),
			footprint.Union(fp, piv.Footprint()),
			fp,
			func() { inst.applyPivots(chunk, piv, npiv) },
		))
	}
	return core.NewPar(chunks...)
}

// applyPivots applies the first npiv recorded row swaps to b, in order.
// Pivot entries are relative to their panel's frame, which starts
// ⌊j/base⌋·base rows into b (views and pivot slices always start at a
// panel boundary in this recursion).
//
//ndlint:noalloc
func (inst *Instance) applyPivots(b, piv *matrix.Matrix, npiv int) {
	for j, p := range piv.Row(0)[:npiv] {
		if target := (j/inst.Base)*inst.Base + int(p); target != j {
			matrix.SwapRows(b, j, target)
		}
	}
}

// updateChunks builds the trailing update A22 −= L21·U12 as a parallel
// loop of square w2×w2 multiplies over row chunks.
func (inst *Instance) updateChunks(model algos.Model, a1, a2 *matrix.Matrix, w2 int) *core.Node {
	m := a1.Rows()
	var chunks []*core.Node
	for r0 := w2; r0 < m; r0 += w2 {
		c := a2.View(r0, 0, w2, w2)
		l := a1.View(r0, 0, w2, w2)
		u := a2.View(0, 0, w2, w2)
		chunks = append(chunks, matmul.Tree(model, c, l, u, -1, inst.Base))
	}
	return core.NewPar(chunks...)
}

func (inst *Instance) panelLeaf(a, piv *matrix.Matrix) *core.Node {
	m, w := a.Rows(), a.Cols()
	reads := a.Footprint()
	return core.NewStrand(
		label("panel", m, w),
		matrix.LUPanelWork(m, w),
		reads,
		footprint.Union(reads, piv.Footprint()),
		func() {
			if err := factorPanel(a, piv); err != nil && inst.err == nil {
				inst.err = err
			}
		},
	)
}

// factorPanel is the base case: LUPanel, its pivots stored as float64 in
// piv's row through a stack buffer (no allocation up to 64 columns).
func factorPanel(a, piv *matrix.Matrix) error {
	var buf [64]int
	tmp, w := buf[:], a.Cols()
	if w > len(buf) {
		tmp = make([]int, w)
	}
	if err := matrix.LUPanel(a, tmp); err != nil {
		return err
	}
	row := piv.Row(0)
	for j, p := range tmp[:w] {
		row[j] = float64(p)
	}
	return nil
}

// label names a rows×cols strand; LU's blocks are not square, so the
// shared power-of-two tables do not apply.
func label(prefix string, rows, cols int) string {
	return prefix + strconv.Itoa(rows) + "x" + strconv.Itoa(cols)
}

// New builds a complete program factoring the instance in place.
func New(model algos.Model, inst *Instance) (*core.Program, error) {
	return core.NewProgram(inst.tree(model, inst.A, inst.Piv), algos.RulesFor(model, rules))
}

// Serial factors the instance with the identical recursion executed
// serially, producing bit-identical results; the reference implementation.
func Serial(inst *Instance) error {
	return serialRec(inst, inst.A, inst.Piv)
}

func serialRec(inst *Instance, a, piv *matrix.Matrix) error {
	w := a.Cols()
	if w <= inst.Base {
		return factorPanel(a, piv)
	}
	m, w2 := a.Rows(), w/2
	a1, a2 := a.View(0, 0, m, w2), a.View(0, w2, m, w2)
	piv1, piv2 := piv.View(0, 0, 1, w2), piv.View(0, w2, 1, w2)
	if err := serialRec(inst, a1, piv1); err != nil {
		return err
	}
	inst.applyPivots(a2, piv1, w2)
	matrix.SolveUnitLowerLeft(a1.View(0, 0, w2, w2), a2.View(0, 0, w2, w2))
	for r0 := w2; r0 < m; r0 += w2 {
		matrix.MulAdd(a2.View(r0, 0, w2, w2), a1.View(r0, 0, w2, w2), a2.View(0, 0, w2, w2), -1)
	}
	if err := serialRec(inst, a.View(w2, w2, m-w2, w2), piv2); err != nil {
		return err
	}
	inst.applyPivots(a1.View(w2, 0, m-w2, w2), piv2, w2)
	return nil
}
