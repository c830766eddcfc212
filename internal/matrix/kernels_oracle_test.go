package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The ref* functions are the kernels as they stood at commit bca655d,
// copied verbatim: every element reached through At/Set/Add, one
// accumulator, the textbook loop order. They are the oracle: the
// row-slice kernels must reproduce them bit for bit on every view.

func refMulAdd(c, a, b *Matrix, sign float64) {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for l := 0; l < k; l++ {
				acc += a.At(i, l) * b.At(l, j)
			}
			c.Add(i, j, sign*acc)
		}
	}
}

func refSolveLowerLeft(t, b *Matrix) {
	n, m := t.Rows(), b.Cols()
	for j := 0; j < m; j++ {
		for i := 0; i < n; i++ {
			v := b.At(i, j)
			for k := 0; k < i; k++ {
				v -= t.At(i, k) * b.At(k, j)
			}
			b.Set(i, j, v/t.At(i, i))
		}
	}
}

func refSolveUnitLowerLeft(t, b *Matrix) {
	n, m := t.Rows(), b.Cols()
	for j := 0; j < m; j++ {
		for i := 0; i < n; i++ {
			v := b.At(i, j)
			for k := 0; k < i; k++ {
				v -= t.At(i, k) * b.At(k, j)
			}
			b.Set(i, j, v)
		}
	}
}

func refSolveLowerRightT(l, b *Matrix) {
	n := l.Rows()
	m := b.Rows()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := b.At(i, j)
			for k := 0; k < j; k++ {
				v -= b.At(i, k) * l.At(j, k)
			}
			b.Set(i, j, v/l.At(j, j))
		}
	}
}

func refCholeskyInPlace(a *Matrix) error {
	n := a.Rows()
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= a.At(j, k) * a.At(j, k)
		}
		if d <= 0 {
			return fmt.Errorf("matrix: not positive definite at pivot %d (d=%g)", j, d)
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			v := a.At(i, j)
			for k := 0; k < j; k++ {
				v -= a.At(i, k) * a.At(j, k)
			}
			a.Set(i, j, v/d)
		}
		for i := 0; i < j; i++ {
			a.Set(i, j, 0)
		}
	}
	return nil
}

func refLUPanel(a *Matrix, piv []int) error {
	m, b := a.Rows(), a.Cols()
	for j := 0; j < b; j++ {
		// Find pivot in column j.
		p, best := j, math.Abs(a.At(j, j))
		for i := j + 1; i < m; i++ {
			if v := math.Abs(a.At(i, j)); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return fmt.Errorf("matrix: singular panel at column %d", j)
		}
		piv[j] = p
		if p != j {
			refSwapRows(a, j, p)
		}
		d := a.At(j, j)
		for i := j + 1; i < m; i++ {
			l := a.At(i, j) / d
			a.Set(i, j, l)
			for k := j + 1; k < b; k++ {
				a.Add(i, k, -l*a.At(j, k))
			}
		}
	}
	return nil
}

func refSwapRows(a *Matrix, i, j int) {
	for k := 0; k < a.Cols(); k++ {
		vi, vj := a.At(i, k), a.At(j, k)
		a.Set(i, k, vj)
		a.Set(j, k, vi)
	}
}

// Orientation bits of a kernelCase: which operands are transposed views.
const (
	transB     = 1 << iota // MulAdd's B (the one orientation builders use)
	transA                 // MulAdd's A; the triangle of the solves
	transC                 // MulAdd's C; the right-hand side of the solves
	aliasAAT               // MulAdd's B is A's own transpose (C = A·Aᵀ)
	transPanel             // the Cholesky block and the LU panel
	numOrient  = iota
)

// kernelCase is one comparison of every kernel with its oracle: MulAdd
// on m×k · k×n, the solves on an n×n triangle with m right-hand sides,
// Cholesky on n×n and LUPanel on an (m+n)×n panel, each operand a view
// at (r0, c0) of a larger backing matrix so stride > cols.
type kernelCase struct {
	m, k, n, r0, c0 int
	orient          uint8
	seed            int64
}

// side is one of the two identical worlds a case is run in: the oracle
// computes in one, the kernel in the other, and the whole backing arrays
// must agree afterwards (stray writes outside a view are differences).
type side struct {
	kc    kernelCase
	r     *rand.Rand
	backs []*Matrix
}

func (kc kernelCase) side() *side {
	return &side{kc: kc, r: rand.New(rand.NewSource(kc.seed))}
}

// operand returns a rows×cols view, transposed or not, cut out of a
// fresh randomly filled backing matrix.
func (s *side) operand(rows, cols int, trans bool) *Matrix {
	if trans {
		rows, cols = cols, rows
	}
	back := New(NewSpace(), s.kc.r0+rows+1, s.kc.c0+cols+2)
	back.FillRandom(s.r)
	s.backs = append(s.backs, back)
	v := back.View(s.kc.r0, s.kc.c0, rows, cols)
	if trans {
		v = v.T()
	}
	return v
}

func sameBits(t *testing.T, what string, kc kernelCase, got, want *side) {
	t.Helper()
	for b := range want.backs {
		g, w := got.backs[b].data, want.backs[b].data
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s %+v: operand %d word %d = %v (%#x), oracle %v (%#x)",
					what, kc, b, i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
			}
		}
	}
}

// check runs every kernel against its oracle on the case's views.
func (kc kernelCase) check(t *testing.T) {
	t.Helper()
	has := func(bit uint8) bool { return kc.orient&bit != 0 }
	both := func(what string, run func(s *side, ref bool)) {
		t.Helper()
		got, want := kc.side(), kc.side()
		run(want, true)
		run(got, false)
		sameBits(t, what, kc, got, want)
	}

	both("MulAdd", func(s *side, ref bool) {
		cols := kc.n
		if has(aliasAAT) {
			cols = kc.m
		}
		c := s.operand(kc.m, cols, has(transC))
		a := s.operand(kc.m, kc.k, has(transA))
		b := a.T()
		if !has(aliasAAT) {
			b = s.operand(kc.k, kc.n, has(transB))
		}
		if ref {
			refMulAdd(c, a, b, -1)
		} else {
			MulAdd(c, a, b, -1)
		}
	})

	triangle := func(s *side) *Matrix {
		tri := s.operand(kc.n, kc.n, has(transA))
		tri.FillLowerTriangular(s.r)
		return tri
	}
	both("SolveLowerLeft", func(s *side, ref bool) {
		tri, b := triangle(s), s.operand(kc.n, kc.m, has(transC))
		if ref {
			refSolveLowerLeft(tri, b)
		} else {
			SolveLowerLeft(tri, b)
		}
	})
	both("SolveUnitLowerLeft", func(s *side, ref bool) {
		tri, b := triangle(s), s.operand(kc.n, kc.m, has(transC))
		if ref {
			refSolveUnitLowerLeft(tri, b)
		} else {
			SolveUnitLowerLeft(tri, b)
		}
	})
	both("SolveLowerRightT", func(s *side, ref bool) {
		tri, b := triangle(s), s.operand(kc.m, kc.n, has(transC))
		if ref {
			refSolveLowerRightT(tri, b)
		} else {
			SolveLowerRightT(tri, b)
		}
	})

	// Cholesky on an SPD block, and on a random one that (mostly) fails
	// at some pivot: the error and the half-factored state must agree too.
	for _, spd := range []bool{true, false} {
		var errs [2]error
		both("CholeskyInPlace", func(s *side, ref bool) {
			a := s.operand(kc.n, kc.n, has(transPanel))
			if spd {
				a.FillSPD(s.r)
			}
			if ref {
				errs[0] = refCholeskyInPlace(a)
			} else {
				errs[1] = CholeskyInPlace(a)
			}
		})
		if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) || spd && errs[0] != nil {
			t.Fatalf("CholeskyInPlace %+v spd=%v: %v, oracle %v", kc, spd, errs[1], errs[0])
		}
	}

	// A tall panel, and a singular one (a zero column) that fails there.
	for _, singular := range []bool{false, true} {
		var errs [2]error
		var pivs [2][]int
		both("LUPanel", func(s *side, ref bool) {
			a := s.operand(kc.m+kc.n, kc.n, has(transPanel))
			if singular {
				for i := 0; i < a.Rows(); i++ {
					a.Set(i, kc.n/2, 0)
				}
			}
			piv := make([]int, kc.n)
			if ref {
				errs[0], pivs[0] = refLUPanel(a, piv), piv
			} else {
				errs[1], pivs[1] = LUPanel(a, piv), piv
			}
		})
		if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) || singular != (errs[0] != nil) || fmt.Sprint(pivs[0]) != fmt.Sprint(pivs[1]) {
			t.Fatalf("LUPanel %+v singular=%v: %v piv %v, oracle %v piv %v", kc, singular, errs[1], pivs[1], errs[0], pivs[0])
		}
	}

	both("SwapRows", func(s *side, ref bool) {
		a := s.operand(kc.m+1, kc.n, has(transPanel))
		if ref {
			refSwapRows(a, 0, kc.m)
		} else {
			SwapRows(a, 0, kc.m)
		}
	})
}

func TestKernelsMatchNaiveBits(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 16, 19, 32}
	seed := int64(1)
	for _, n := range sizes {
		// Square, as every builder's base case is, under every
		// orientation; then the rectangular shapes plain and with the
		// builders' transposed B.
		for orient := uint8(0); orient < 1<<numOrient; orient++ {
			kernelCase{m: n, k: n, n: n, r0: 1, c0: 2, orient: orient, seed: seed}.check(t)
			seed++
		}
		for _, orient := range []uint8{0, transB} {
			kernelCase{m: n + 3, k: sizes[int(seed)%len(sizes)], n: n, r0: 3, c0: 1, orient: orient, seed: seed}.check(t)
			kernelCase{m: n, k: n + 1, n: n + 2, r0: 0, c0: 5, orient: orient, seed: seed + 1}.check(t)
			seed += 2
		}
	}
}

func FuzzKernelsMatchNaive(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(4), uint8(1), uint8(2), uint8(0), int64(1))
	f.Add(uint8(7), uint8(5), uint8(9), uint8(0), uint8(0), uint8(transB), int64(2))
	f.Add(uint8(16), uint8(16), uint8(16), uint8(3), uint8(1), uint8(aliasAAT), int64(3))
	f.Add(uint8(3), uint8(8), uint8(6), uint8(2), uint8(2), uint8(transA|transC|transPanel), int64(4))
	f.Fuzz(func(t *testing.T, m, k, n, r0, c0, orient uint8, seed int64) {
		dim := func(v uint8) int { return 1 + int(v)%24 }
		kernelCase{
			m: dim(m), k: dim(k), n: dim(n),
			r0: int(r0) % 8, c0: int(c0) % 8,
			orient: orient % (1 << numOrient), seed: seed,
		}.check(t)
	})
}
