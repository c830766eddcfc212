package fw

import (
	"fmt"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/matrix"
)

// This file implements the 2-D Floyd–Warshall all-pairs-shortest-paths
// algorithm via the cache-oblivious Gaussian-elimination-paradigm
// recursion of Chowdhury and Ramachandran [23], which the paper adapts.
// Claim 1 includes its parallel cache complexity (Q* = O(N^1.5/M^0.5));
// the paper calls its ND formulation "a straightforward extension" of the
// 1-D rules and gives no rule table, so we provide the NP spawn tree
// (sufficient for the cache-complexity experiments, which are
// model-invariant) plus the serial reference.
//
// The recursion works on the update primitive
//
//	upd(X, U, V):  x_ij = min(x_ij, u_ik + v_kj)  over the block's k-range
//
// with the four specializations A (X = U = V, diagonal), B (U diagonal:
// same rows), C (V diagonal: same columns) and D (general).

// APSP is a 2-D Floyd–Warshall instance on an n×n distance matrix.
type APSP struct {
	N    int
	Dist *matrix.Matrix
}

// NewAPSP builds an instance with pseudo-random edge weights in [1, 64]
// and zero diagonal.
func NewAPSP(space *matrix.Space, n int, seed int64) *APSP {
	a := &APSP{N: n, Dist: matrix.New(space, n, n)}
	state := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			state = state*6364136223846793005 + 1442695040888963407
			w := float64(state>>58) + 1
			if i == j {
				w = 0
			}
			a.Dist.Set(i, j, w)
		}
	}
	return a
}

// Tree builds the NP spawn tree for the full APSP computation.
func (a *APSP) Tree(base int) *core.Node {
	return a.treeA(a.Dist, base)
}

func (a *APSP) treeA(x *matrix.Matrix, base int) *core.Node {
	if x.Rows() <= base {
		return a.leaf(labelsA2, x, x, x)
	}
	x00, x01, x10, x11 := x.Quad(0, 0), x.Quad(0, 1), x.Quad(1, 0), x.Quad(1, 1)
	return core.NewSeq(
		a.treeA(x00, base),
		core.NewPar(a.treeB(x01, x00, base), a.treeC(x10, x00, base)),
		a.treeD(x11, x10, x01, base),
		a.treeA(x11, base),
		core.NewPar(a.treeB(x10, x11, base), a.treeC(x01, x11, base)),
		a.treeD(x00, x01, x10, base),
	)
}

// treeB updates X (same rows as the diagonal block D: U = D, V = X).
func (a *APSP) treeB(x, d *matrix.Matrix, base int) *core.Node {
	if x.Rows() <= base {
		return a.leaf(labelsB2, x, d, x)
	}
	x00, x01, x10, x11 := x.Quad(0, 0), x.Quad(0, 1), x.Quad(1, 0), x.Quad(1, 1)
	d00, d01, d10, d11 := d.Quad(0, 0), d.Quad(0, 1), d.Quad(1, 0), d.Quad(1, 1)
	return core.NewSeq(
		core.NewPar(a.treeB(x00, d00, base), a.treeB(x01, d00, base)),
		core.NewPar(a.treeD(x10, d10, x00, base), a.treeD(x11, d10, x01, base)),
		core.NewPar(a.treeB(x10, d11, base), a.treeB(x11, d11, base)),
		core.NewPar(a.treeD(x00, d01, x10, base), a.treeD(x01, d01, x11, base)),
	)
}

// treeC updates X (same columns as the diagonal block D: U = X, V = D).
func (a *APSP) treeC(x, d *matrix.Matrix, base int) *core.Node {
	if x.Rows() <= base {
		return a.leaf(labelsC2, x, x, d)
	}
	x00, x01, x10, x11 := x.Quad(0, 0), x.Quad(0, 1), x.Quad(1, 0), x.Quad(1, 1)
	d00, d01, d10, d11 := d.Quad(0, 0), d.Quad(0, 1), d.Quad(1, 0), d.Quad(1, 1)
	return core.NewSeq(
		core.NewPar(a.treeC(x00, d00, base), a.treeC(x10, d00, base)),
		core.NewPar(a.treeD(x01, x00, d01, base), a.treeD(x11, x10, d01, base)),
		core.NewPar(a.treeC(x01, d11, base), a.treeC(x11, d11, base)),
		core.NewPar(a.treeD(x00, x01, d10, base), a.treeD(x10, x11, d10, base)),
	)
}

// treeD updates X from independent row and column sources.
func (a *APSP) treeD(x, u, v *matrix.Matrix, base int) *core.Node {
	if x.Rows() <= base {
		return a.leaf(labelsD2, x, u, v)
	}
	x00, x01, x10, x11 := x.Quad(0, 0), x.Quad(0, 1), x.Quad(1, 0), x.Quad(1, 1)
	u00, u01, u10, u11 := u.Quad(0, 0), u.Quad(0, 1), u.Quad(1, 0), u.Quad(1, 1)
	v00, v01, v10, v11 := v.Quad(0, 0), v.Quad(0, 1), v.Quad(1, 0), v.Quad(1, 1)
	return core.NewSeq(
		core.NewPar(
			a.treeD(x00, u00, v00, base), a.treeD(x01, u00, v01, base),
			a.treeD(x10, u10, v00, base), a.treeD(x11, u10, v01, base),
		),
		core.NewPar(
			a.treeD(x00, u01, v10, base), a.treeD(x01, u01, v11, base),
			a.treeD(x10, u11, v10, base), a.treeD(x11, u11, v11, base),
		),
	)
}

var (
	labelsA2 = algos.NewLabels("fwA2-")
	labelsB2 = algos.NewLabels("fwB2-")
	labelsC2 = algos.NewLabels("fwC2-")
	labelsD2 = algos.NewLabels("fwD2-")
)

func (a *APSP) leaf(labels *algos.Labels, x, u, v *matrix.Matrix) *core.Node {
	m := x.Rows()
	return core.NewStrand(
		labels.Size(m),
		2*int64(m)*int64(m)*int64(m),
		matrix.Footprints(x, u, v),
		x.Footprint(),
		func() { updMinPlus(x, u, v) },
	)
}

// updMinPlus is the base-case kernel: x_ij = min(x_ij, u_ik + v_kj) with k
// outermost, matching Floyd–Warshall's in-place semantics (the views may
// alias: every cell is read where the textbook loop reads it).
//
//ndlint:noalloc
func updMinPlus(x, u, v *matrix.Matrix) {
	m := x.Rows()
	for k := 0; k < m; k++ {
		vk := v.Row(k)
		for i := 0; i < m; i++ {
			uik, xi := u.Row(i)[k], x.Row(i)[:len(vk)]
			for j, vkj := range vk {
				if d := uik + vkj; d < xi[j] {
					xi[j] = d
				}
			}
		}
	}
}

// New2D builds a complete NP program computing all-pairs shortest paths in
// place on the instance's distance matrix.
func New2D(inst *APSP, base int) (*core.Program, error) {
	if err := algos.CheckPow2(inst.N, base); err != nil {
		return nil, fmt.Errorf("fw2d: %w", err)
	}
	return core.NewProgram(inst.Tree(base), nil)
}

// Serial runs the textbook triple loop — the base-case kernel on the whole
// matrix; the reference implementation.
func (a *APSP) Serial() { updMinPlus(a.Dist, a.Dist, a.Dist) }

// MaxAbs2D returns the largest absolute difference between two instances'
// distance matrices.
func MaxAbs2D(a, b *APSP) float64 { return matrix.MaxAbsDiff(a.Dist, b.Dist) }
