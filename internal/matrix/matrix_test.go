package matrix

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/ndflow/ndflow/internal/footprint"
)

func TestViewAliasesBacking(t *testing.T) {
	s := NewSpace()
	m := New(s, 4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 7)
	if m.At(1, 1) != 7 {
		t.Fatalf("view write not visible through parent")
	}
	q := m.Quad(1, 1)
	q.Set(1, 1, 9)
	if m.At(3, 3) != 9 {
		t.Fatalf("quadrant write not visible")
	}
}

func TestTranspose(t *testing.T) {
	s := NewSpace()
	m := New(s, 2, 3)
	m.Set(0, 2, 5)
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T shape = %d×%d", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 0) != 5 {
		t.Fatalf("T().At(2,0) = %v, want 5", tr.At(2, 0))
	}
	tr.Set(1, 1, 8)
	if m.At(1, 1) != 8 {
		t.Fatalf("write through transpose not visible")
	}
	// Double transpose is identity.
	tt := tr.T()
	if tt.At(0, 2) != 5 || tt.Rows() != 2 {
		t.Fatal("double transpose broken")
	}
}

func TestViewOfTranspose(t *testing.T) {
	s := NewSpace()
	m := New(s, 4, 6)
	m.Set(1, 4, 3)
	v := m.T().View(4, 1, 2, 1) // rows 4..5, col 1 of the 6×4 transpose
	if v.Rows() != 2 || v.Cols() != 1 {
		t.Fatalf("shape = %d×%d", v.Rows(), v.Cols())
	}
	if v.At(0, 0) != 3 {
		t.Fatalf("At = %v, want 3 (maps to m[1][4])", v.At(0, 0))
	}
}

func TestFootprint(t *testing.T) {
	s := NewSpace()
	m := New(s, 4, 4) // words [0,16)
	if got := m.Footprint(); got.Words() != 16 || got[0].Lo != 0 {
		t.Fatalf("footprint = %v", got)
	}
	q := m.Quad(0, 1) // rows 0-1, cols 2-3: words {2,3, 6,7}
	want := footprint.New(footprint.Interval{Lo: 2, Hi: 4}, footprint.Interval{Lo: 6, Hi: 8})
	got := q.Footprint()
	if got.Words() != 4 || !footprint.Intersects(got, want) || got.Words() != want.Words() {
		t.Fatalf("quad footprint = %v, want %v", got, want)
	}
	// Transposed view covers the same words.
	if tf := q.T().Footprint(); tf.Words() != 4 || !footprint.Intersects(tf, want) {
		t.Fatalf("transposed footprint = %v", tf)
	}
	// Second allocation comes after the first.
	m2 := New(s, 2, 2)
	if m2.Footprint()[0].Lo != 16 {
		t.Fatalf("second matrix base = %v, want 16", m2.Footprint())
	}
}

func TestMulAdd(t *testing.T) {
	s := NewSpace()
	a := New(s, 2, 3)
	b := New(s, 3, 2)
	c := New(s, 2, 2)
	r := rand.New(rand.NewSource(1))
	a.FillRandom(r)
	b.FillRandom(r)
	MulAdd(c, a, b, 1)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			var want float64
			for k := 0; k < 3; k++ {
				want += a.At(i, k) * b.At(k, j)
			}
			if math.Abs(c.At(i, j)-want) > 1e-12 {
				t.Fatalf("C[%d][%d] = %v, want %v", i, j, c.At(i, j), want)
			}
		}
	}
	// Subtracting the same product restores zero.
	MulAdd(c, a, b, -1)
	if d := MaxAbsDiff(c, New(NewSpace(), 2, 2)); d > 1e-12 {
		t.Fatalf("C after +=/-= = %v, want 0", d)
	}
}

func TestMulAddTransposedOperand(t *testing.T) {
	s := NewSpace()
	a := New(s, 2, 2)
	c := New(s, 2, 2)
	r := rand.New(rand.NewSource(2))
	a.FillRandom(r)
	MulAdd(c, a, a.T(), 1) // C = A·Aᵀ must be symmetric
	if math.Abs(c.At(0, 1)-c.At(1, 0)) > 1e-12 {
		t.Fatalf("A·Aᵀ not symmetric: %v vs %v", c.At(0, 1), c.At(1, 0))
	}
}

func TestSolveLowerLeft(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := NewSpace()
	tri := New(s, 4, 4)
	tri.FillLowerTriangular(r)
	x := New(s, 4, 3)
	x.FillRandom(r)
	b := x.Copy(nil)
	// b currently equals x; overwrite b with T·x, then solve and compare.
	tx := New(NewSpace(), 4, 3)
	MulAdd(tx, tri, x, 1)
	b.CopyFrom(tx)
	SolveLowerLeft(tri, b)
	if d := MaxAbsDiff(b, x); d > 1e-9 {
		t.Fatalf("SolveLowerLeft residual = %g", d)
	}
}

func TestSolveLowerRightT(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	s := NewSpace()
	l := New(s, 4, 4)
	l.FillLowerTriangular(r)
	x := New(s, 3, 4)
	x.FillRandom(r)
	b := New(NewSpace(), 3, 4)
	MulAdd(b, x, l.T(), 1)
	SolveLowerRightT(l, b)
	if d := MaxAbsDiff(b, x); d > 1e-9 {
		t.Fatalf("SolveLowerRightT residual = %g", d)
	}
}

func TestCholeskyInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := NewSpace()
	a := New(s, 6, 6)
	a.FillSPD(r)
	orig := a.Copy(nil)
	if err := CholeskyInPlace(a); err != nil {
		t.Fatal(err)
	}
	// Check L·Lᵀ = original.
	rec := New(NewSpace(), 6, 6)
	MulAdd(rec, a, a.T(), 1)
	if d := MaxAbsDiff(rec, orig); d > 1e-8 {
		t.Fatalf("L·Lᵀ residual = %g", d)
	}
	// Upper triangle zeroed.
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if a.At(i, j) != 0 {
				t.Fatalf("upper triangle not zeroed at (%d,%d)", i, j)
			}
		}
	}
	// Non-PD input errors.
	bad := New(NewSpace(), 2, 2)
	bad.Set(0, 0, -1)
	if err := CholeskyInPlace(bad); err == nil {
		t.Fatal("non-PD accepted")
	}
}

func TestLUPanel(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	s := NewSpace()
	a := New(s, 6, 3)
	a.FillRandom(r)
	orig := a.Copy(nil)
	piv := make([]int, 3)
	if err := LUPanel(a, piv); err != nil {
		t.Fatal(err)
	}
	// Reconstruct P·orig = L·U.
	pa := orig.Copy(nil)
	ApplyPivots(pa, piv)
	rec := New(NewSpace(), 6, 3)
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			var v float64
			for k := 0; k <= min(i, j); k++ {
				l := a.At(i, k)
				if k == i {
					l = 1
				}
				if k <= j {
					v += l * a.At(k, j)
				}
			}
			rec.Set(i, j, v)
		}
	}
	if d := MaxAbsDiff(rec, pa); d > 1e-9 {
		t.Fatalf("P·A = L·U residual = %g", d)
	}
}

// rowByRowFootprint is Footprint as it was written before the cold-path
// diet: one interval per row of the underlying orientation, normalized by
// footprint.New. The direct construction must give the same sets.
func rowByRowFootprint(m *Matrix) footprint.Set {
	ivs := make([]footprint.Interval, 0, m.rows)
	for i := 0; i < m.rows; i++ {
		lo := m.base + int64((m.r0+i)*m.stride+m.c0)
		ivs = append(ivs, footprint.Interval{Lo: lo, Hi: lo + int64(m.cols)})
	}
	return footprint.New(ivs...)
}

func TestFootprintMatchesRowByRow(t *testing.T) {
	sp := NewSpace()
	sp.Alloc(5) // a base other than zero
	m := New(sp, 6, 8)
	tall := New(sp, 7, 1)
	views := map[string]*Matrix{
		"plain":             m,
		"strided":           m.View(1, 2, 3, 4),
		"single row":        m.View(4, 1, 1, 6),
		"single cell":       m.View(5, 7, 1, 1),
		"full width":        m.View(2, 0, 3, 8),
		"single column":     m.View(0, 3, 6, 1),
		"one-column matrix": tall.View(2, 0, 4, 1),
		"transposed":        m.T(),
		"transposed view":   m.T().View(2, 1, 4, 3),
		"view of view":      m.View(1, 1, 4, 6).View(1, 2, 2, 3),
	}
	for name, v := range views {
		got, want := v.Footprint(), rowByRowFootprint(v)
		if !slices.Equal(got, want) {
			t.Errorf("%s: Footprint = %v, row by row = %v", name, got, want)
		}
		if got.Words() != int64(v.Rows()*v.Cols()) {
			t.Errorf("%s: %d words for a %d×%d view", name, got.Words(), v.Rows(), v.Cols())
		}
		// BlockFootprint is the footprint of the view it does not build.
		for _, b := range [][4]int{{0, 0, v.Rows(), v.Cols()}, {0, 0, 1, 1}, {v.Rows() - 1, 0, 1, v.Cols()}, {0, v.Cols() - 1, v.Rows(), 1}} {
			got, want := v.BlockFootprint(b[0], b[1], b[2], b[3]), rowByRowFootprint(v.View(b[0], b[1], b[2], b[3]))
			if !slices.Equal(got, want) {
				t.Errorf("%s: BlockFootprint%v = %v, the view's = %v", name, b, got, want)
			}
		}
	}
	if w := m.Addr(2, 3); !m.View(2, 3, 1, 1).Footprint().Contains(w) || w != 5+2*8+3 {
		t.Errorf("Addr(2,3) = %d", w)
	}
	if n := testing.AllocsPerRun(100, func() { m.View(1, 2, 3, 4).Footprint() }); n != 2 {
		t.Errorf("View+Footprint: %v allocations, want 2 (the view, the set)", n)
	}
}

func TestQuickFootprintDisjointViews(t *testing.T) {
	// Distinct quadrants of one matrix never share words; any quadrant and
	// its own parent always do.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 * (1 + r.Intn(6))
		m := New(NewSpace(), n, n)
		quads := []*Matrix{m.Quad(0, 0), m.Quad(0, 1), m.Quad(1, 0), m.Quad(1, 1)}
		for i := range quads {
			if !footprint.Intersects(quads[i].Footprint(), m.Footprint()) {
				return false
			}
			for j := i + 1; j < len(quads); j++ {
				if footprint.Intersects(quads[i].Footprint(), quads[j].Footprint()) {
					return false
				}
			}
		}
		total := Footprints(quads...).Words()
		return total == int64(n*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		tri := New(NewSpace(), n, n)
		tri.FillLowerTriangular(r)
		x := New(NewSpace(), n, n)
		x.FillRandom(r)
		b := New(NewSpace(), n, n)
		MulAdd(b, tri, x, 1)
		SolveLowerLeft(tri, b)
		return MaxAbsDiff(b, x) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A kernel that returns NaN must fail every `if d > tol` check:
// math.Max(d, NaN) is NaN, and NaN > tol is false.
func TestMaxAbsDiffNaN(t *testing.T) {
	a, b := New(NewSpace(), 3, 3), New(NewSpace(), 3, 3)
	if d := MaxAbsDiff(a, b); d != 0 {
		t.Fatalf("equal matrices differ by %v", d)
	}
	b.Set(2, 2, 0.5)
	if d := MaxAbsDiff(a, b); d != 0.5 {
		t.Fatalf("MaxAbsDiff = %v, want 0.5", d)
	}
	for _, at := range [][2]int{{0, 0}, {1, 2}, {2, 2}} {
		c := b.Copy(nil)
		c.Set(at[0], at[1], math.NaN())
		for _, d := range []float64{MaxAbsDiff(a, c), MaxAbsDiff(c, a), MaxAbsDiff(c.T(), a)} {
			if !(d > 1e-9) || !math.IsInf(d, 1) {
				t.Fatalf("NaN at %v: MaxAbsDiff = %v, want +Inf", at, d)
			}
		}
	}
}
