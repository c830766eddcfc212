package matrix

import (
	"fmt"
	"math"
)

// Every kernel gives each output element the textbook loops' floating-point
// operations in their order: results match the ref* test oracles bit for bit.

// MulAdd computes C += sign · A·B on views. Shapes must conform:
// A is m×k, B is k×n, C is m×n. Transposed views are handled transparently.
// Each C element keeps its own accumulator, summed over l in order; with
// C and A taken by rows, four adjacent columns are computed at once (four
// independent dependency chains, not one), B plain or transposed. The strided
// loop for the n mod 4 columns left over is any other orientation's kernel.
//
//ndlint:noalloc
func MulAdd(c, a, b *Matrix, sign float64) {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	if b.Rows() != k || c.Rows() != m || c.Cols() != n {
		badMulAdd(c, a, b)
	}
	ad, aDown, aRight := a.strided()
	bd, bDown, bRight := b.strided()
	cd, cDown, cRight := c.strided()
	byRows := !c.trans && !a.trans
	for i := 0; i < m; i++ {
		j := 0
		if byRows && b.trans { // B(l, j) is word l of storage row j: four dot products
			ai, ci := a.row(i), c.row(i)
			for ; j+4 <= n; j += 4 {
				b0, b1, b2, b3 := b.row(j)[:len(ai)], b.row(j + 1)[:len(ai)], b.row(j + 2)[:len(ai)], b.row(j + 3)[:len(ai)]
				var s0, s1, s2, s3 float64
				for l, av := range ai {
					s0 += av * b0[l]
					s1 += av * b1[l]
					s2 += av * b2[l]
					s3 += av * b3[l]
				}
				cj := ci[j : j+4 : j+4]
				cj[0] += sign * s0
				cj[1] += sign * s1
				cj[2] += sign * s2
				cj[3] += sign * s3
			}
		} else if byRows { // B(l, j..j+3) are four adjacent words of storage row l
			ai, ci := a.row(i), c.row(i)
			for ; j+4 <= n; j += 4 {
				o := j
				var s0, s1, s2, s3 float64
				for _, av := range ai {
					bl := bd[o : o+4 : o+4]
					s0 += av * bl[0]
					s1 += av * bl[1]
					s2 += av * bl[2]
					s3 += av * bl[3]
					o += bDown
				}
				cj := ci[j : j+4 : j+4]
				cj[0] += sign * s0
				cj[1] += sign * s1
				cj[2] += sign * s2
				cj[3] += sign * s3
			}
		}
		for ; j < n; j++ {
			ao, bo := i*aDown, j*bRight
			var acc float64
			for l := 0; l < k; l++ {
				acc += ad[ao] * bd[bo]
				ao += aRight
				bo += bDown
			}
			cd[i*cDown+j*cRight] += sign * acc
		}
	}
}

func badMulAdd(c, a, b *Matrix) {
	panic(fmt.Sprintf("matrix.MulAdd: shapes %d×%d · %d×%d → %d×%d", a.Rows(), a.Cols(), b.Rows(), b.Cols(), c.Rows(), c.Cols()))
}

// MulAddWork returns the instruction count charged for a MulAdd of the
// given shape (2·m·k·n flops).
func MulAddWork(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }

// SolveLowerLeft solves T·X = B for X in place on B, where T is lower
// triangular with nonzero diagonal (forward substitution, a row at a time).
//
//ndlint:noalloc
func SolveLowerLeft(t, b *Matrix) { solveLowerLeft("SolveLowerLeft", t, b, false) }

//ndlint:noalloc
func solveLowerLeft(kernel string, t, b *Matrix, unit bool) {
	n := t.Rows()
	if t.Cols() != n || b.Rows() != n {
		badSolve(kernel, "T", t, b)
	}
	if t.trans || b.trans {
		pb := rowMajor(b)
		solveLowerLeft(kernel, rowMajor(t), pb, unit)
		b.CopyFrom(pb)
		return
	}
	for i := 0; i < n; i++ {
		ti, bi := t.row(i), b.row(i)
		for k, tik := range ti[:i] {
			for j, bkj := range b.row(k)[:len(bi)] {
				bi[j] -= tik * bkj
			}
		}
		if !unit {
			d := ti[i]
			for j := range bi {
				bi[j] /= d
			}
		}
	}
}

func badSolve(kernel, triangle string, t, b *Matrix) {
	panic(fmt.Sprintf("matrix.%s: %s %d×%d, B %d×%d", kernel, triangle, t.Rows(), t.Cols(), b.Rows(), b.Cols()))
}

// SolveLowerLeftWork returns the instruction count charged for a
// SolveLowerLeft with an n×n triangle and m right-hand sides.
func SolveLowerLeftWork(n, m int) int64 { return int64(n) * int64(n) * int64(m) }

// SolveUnitLowerLeft solves T·X = B in place on B like SolveLowerLeft, but
// treats T's diagonal as 1 regardless of its stored values. LU factors
// store U's diagonal where unit-L's implicit ones live, so LU's triangular
// solves use this variant.
//
//ndlint:noalloc
func SolveUnitLowerLeft(t, b *Matrix) { solveLowerLeft("SolveUnitLowerLeft", t, b, true) }

// SolveLowerRightT solves X·Lᵀ = B for X in place on B, where L is lower
// triangular (so Lᵀ is upper triangular). This is the kernel behind the
// paper's "TRS(L00, A10ᵀ)ᵀ" step of Cholesky.
//
//ndlint:noalloc
func SolveLowerRightT(l, b *Matrix) {
	n := l.Rows()
	if l.Cols() != n || b.Cols() != n {
		badSolve("SolveLowerRightT", "L", l, b)
	}
	if l.trans || b.trans {
		pb := rowMajor(b)
		SolveLowerRightT(rowMajor(l), pb)
		b.CopyFrom(pb)
		return
	}
	// Row i of X satisfies X[i,:]·Lᵀ = B[i,:], i.e. for column j:
	// B[i,j] = Σ_{k≤j} X[i,k]·L[j,k]; solve left-to-right since L is lower.
	for i := 0; i < b.rows; i++ {
		bi := b.row(i)
		for j := range bi {
			lj := l.row(j)
			v := bi[j]
			for k, ljk := range lj[:j] {
				v -= bi[k] * ljk
			}
			bi[j] = v / lj[j]
		}
	}
}

// SolveLowerRightTWork returns the instruction count charged for a
// SolveLowerRightT with m rows against an n×n triangle.
func SolveLowerRightTWork(n, m int) int64 { return int64(n) * int64(n) * int64(m) }

// CholeskyInPlace factors the square SPD view A into its lower Cholesky
// factor in place (upper triangle is zeroed). It reports an error if a
// non-positive pivot is encountered.
//
//ndlint:noalloc
func CholeskyInPlace(a *Matrix) error {
	n := a.Rows()
	if a.Cols() != n {
		fail("matrix.CholeskyInPlace: not square")
	}
	if a.trans {
		pa := rowMajor(a)
		err := CholeskyInPlace(pa)
		a.CopyFrom(pa)
		return err
	}
	for j := 0; j < n; j++ {
		aj := a.row(j)
		d := aj[j]
		for _, ajk := range aj[:j] {
			d -= ajk * ajk
		}
		if d <= 0 {
			return notPositiveDefinite(j, d)
		}
		d = math.Sqrt(d)
		aj[j] = d
		for i := j + 1; i < n; i++ {
			ai := a.row(i)
			v := ai[j]
			for k, ajk := range aj[:j] {
				v -= ai[k] * ajk
			}
			ai[j] = v / d
		}
		for i := 0; i < j; i++ {
			a.row(i)[j] = 0
		}
	}
	return nil
}

//go:noinline
func notPositiveDefinite(j int, d float64) error {
	return fmt.Errorf("matrix: not positive definite at pivot %d (d=%g)", j, d)
}

// CholeskyWork returns the instruction count charged for an n×n Cholesky
// base case.
func CholeskyWork(n int) int64 { return int64(n) * int64(n) * int64(n) / 3 }

// LUPanel factors the m×b panel A in place with partial pivoting:
// A ← L\U (unit lower, upper in place). piv receives, for each column j,
// the row swapped with row j. piv must have length ≥ b.
//
//ndlint:noalloc
func LUPanel(a *Matrix, piv []int) error {
	m, b := a.Rows(), a.Cols()
	if len(piv) < b {
		fail("matrix.LUPanel: pivot slice too short")
	}
	if a.trans {
		pa := rowMajor(a)
		err := LUPanel(pa, piv)
		a.CopyFrom(pa)
		return err
	}
	for j := 0; j < b; j++ {
		// Find pivot in column j.
		p, best := j, math.Abs(a.row(j)[j])
		for i := j + 1; i < m; i++ {
			if v := math.Abs(a.row(i)[j]); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return singularPanel(j)
		}
		piv[j] = p
		if p != j {
			SwapRows(a, j, p)
		}
		d, tail := a.row(j)[j], a.row(j)[j+1:]
		for i := j + 1; i < m; i++ {
			ai := a.row(i)
			l := ai[j] / d
			ai[j] = l
			ai = ai[j+1:][:len(tail)]
			for k, ajk := range tail {
				ai[k] += -l * ajk
			}
		}
	}
	return nil
}

//go:noinline
func singularPanel(j int) error {
	return fmt.Errorf("matrix: singular panel at column %d", j)
}

// LUPanelWork returns the instruction count charged for an m×b panel
// factorization.
func LUPanelWork(m, b int) int64 { return 2 * int64(m) * int64(b) * int64(b) }

// SwapRows exchanges rows i and j of the view.
//
//ndlint:noalloc
func SwapRows(a *Matrix, i, j int) {
	d, down, right := a.strided()
	pi, pj := i*down, j*down
	for k := 0; k < a.Cols(); k++ {
		d[pi], d[pj] = d[pj], d[pi]
		pi, pj = pi+right, pj+right
	}
}

// ApplyPivots applies the row swaps recorded by LUPanel to the view, in
// order: for each column j, rows j and piv[j] are exchanged. The view must
// share the panel's row frame.
func ApplyPivots(a *Matrix, piv []int) {
	for j, p := range piv {
		if p != j {
			SwapRows(a, j, p)
		}
	}
}
