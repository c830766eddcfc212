// Package matrix is the dense linear-algebra substrate for the algorithm
// reproductions: row-major matrices with quadrant and transposed views, a
// word-address space for footprint declarations, and the serial kernels the
// divide-and-conquer base cases execute.
package matrix

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ndflow/ndflow/internal/footprint"
)

// Space allocates word addresses for simulated memory footprints. All
// matrices participating in one program must share a Space so that their
// footprints are disjoint ranges of one flat address space (the paper's
// statically-allocated-program assumption).
type Space struct {
	next int64
}

// NewSpace returns an empty address space.
func NewSpace() *Space { return &Space{} }

// Alloc reserves n words and returns the base address.
func (s *Space) Alloc(n int64) int64 {
	base := s.next
	s.next += n
	return base
}

// Words returns the total number of words allocated so far.
func (s *Space) Words() int64 { return s.next }

// Matrix is a dense row-major matrix view. Views share backing storage;
// Quad, View and T return lightweight aliases.
type Matrix struct {
	data   []float64
	base   int64 // word address of data[0]
	stride int
	r0, c0 int
	rows   int
	cols   int
	trans  bool
}

// New allocates a rows×cols zero matrix in the given space.
func New(s *Space, rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix.New: invalid shape %d×%d", rows, cols))
	}
	return &Matrix{
		data:   make([]float64, rows*cols),
		base:   s.Alloc(int64(rows * cols)),
		stride: cols,
		rows:   rows,
		cols:   cols,
	}
}

// Rows returns the view's row count.
func (m *Matrix) Rows() int {
	if m.trans {
		return m.cols
	}
	return m.rows
}

// Cols returns the view's column count.
func (m *Matrix) Cols() int {
	if m.trans {
		return m.rows
	}
	return m.cols
}

func (m *Matrix) index(i, j int) int {
	if m.trans {
		i, j = j, i
	}
	return (m.r0+i)*m.stride + (m.c0 + j)
}

// Addr returns the word address of element (i, j) of the view.
func (m *Matrix) Addr(i, j int) int64 { return m.base + int64(m.index(i, j)) }

// At returns element (i, j) of the view.
func (m *Matrix) At(i, j int) float64 { return m.data[m.index(i, j)] }

// Set assigns element (i, j) of the view.
func (m *Matrix) Set(i, j int, v float64) { m.data[m.index(i, j)] = v }

// Add adds v to element (i, j) of the view.
func (m *Matrix) Add(i, j int, v float64) { m.data[m.index(i, j)] += v }

// row returns row i of the view's storage, ignoring orientation: offsets
// and stride are resolved here, once, and the kernels range over the slice.
func (m *Matrix) row(i int) []float64 {
	lo := (m.r0+i)*m.stride + m.c0
	return m.data[lo : lo+m.cols : lo+m.cols]
}

// Row returns row i of a view that is not transposed, aliasing its
// storage, for leaf bodies that sweep a table row by row.
func (m *Matrix) Row(i int) []float64 {
	if m.trans {
		fail("matrix.Row: transposed view")
	}
	return m.row(i)
}

// fail panics out of line, so that boxing the message is not charged to
// an //ndlint:noalloc caller it would be inlined into.
//
//go:noinline
func fail(msg string) { panic(msg) }

// strided returns the view's storage from its first element on and the
// distances from an element to the ones below it and to its right.
func (m *Matrix) strided() (d []float64, down, right int) {
	d = m.data[m.r0*m.stride+m.c0:]
	if m.trans {
		return d, 1, m.stride
	}
	return d, m.stride, 1
}

// rowMajor returns a stand-in for a kernel operand that can be taken by
// rows: a plain view stands for itself, a transposed one gets a plain copy
// (which its caller copies back if the kernel wrote it). No builder
// transposes anything but MulAdd's B, so this allocating detour is all
// that keeps the other orientations accepted.
func rowMajor(m *Matrix) *Matrix {
	if m.trans {
		return m.Copy(nil)
	}
	return m
}

// View returns the r×c sub-view whose top-left corner is (i0, j0).
func (m *Matrix) View(i0, j0, r, c int) *Matrix {
	i0, j0, r, c = m.block(i0, j0, r, c)
	return &Matrix{
		data:   m.data,
		base:   m.base,
		stride: m.stride,
		r0:     m.r0 + i0,
		c0:     m.c0 + j0,
		rows:   r,
		cols:   c,
		trans:  m.trans,
	}
}

// block maps the view-relative block [i0:i0+r, j0:j0+c] to the underlying
// orientation (a transposed view swaps the axes) and panics if it does not
// lie inside the view.
func (m *Matrix) block(i0, j0, r, c int) (int, int, int, int) {
	if m.trans {
		i0, j0, r, c = j0, i0, c, r
	}
	if i0 < 0 || j0 < 0 || r < 1 || c < 1 || i0+r > m.rows || j0+c > m.cols {
		panic(fmt.Sprintf("matrix.View: [%d:%d, %d:%d] out of %d×%d", i0, i0+r, j0, j0+c, m.rows, m.cols))
	}
	return i0, j0, r, c
}

// Quad returns quadrant (qi, qj) of an even-dimensioned view:
// Quad(0,0) is the top-left, Quad(1,1) the bottom-right.
func (m *Matrix) Quad(qi, qj int) *Matrix {
	r, c := m.Rows(), m.Cols()
	if r%2 != 0 || c%2 != 0 {
		panic(fmt.Sprintf("matrix.Quad: odd shape %d×%d", r, c))
	}
	return m.View(qi*r/2, qj*c/2, r/2, c/2)
}

// T returns the transposed view (no copy).
func (m *Matrix) T() *Matrix {
	t := *m
	t.trans = !t.trans
	return &t
}

// IsTransposed reports whether the view is a transposed alias.
func (m *Matrix) IsTransposed() bool { return m.trans }

// Footprint returns the set of word addresses covered by the view.
func (m *Matrix) Footprint() footprint.Set {
	return rowIntervals(m.base+int64(m.r0*m.stride+m.c0), m.rows, m.cols, m.stride)
}

// BlockFootprint returns View(i0, j0, r, c).Footprint() without allocating
// the view, for builders that need a block's addresses but never its cells.
func (m *Matrix) BlockFootprint(i0, j0, r, c int) footprint.Set {
	i0, j0, r, c = m.block(i0, j0, r, c)
	return rowIntervals(m.base+int64((m.r0+i0)*m.stride+m.c0+j0), r, c, m.stride)
}

// rowIntervals returns the footprint of rows row segments of cols words,
// stride words apart, the first at lo, already in Set normal form and in
// one allocation: rows that abut (full-width blocks) or a single row are
// one interval, and otherwise cols < stride keeps the segments apart.
func rowIntervals(lo int64, rows, cols, stride int) footprint.Set {
	if rows == 1 || cols == stride {
		return footprint.Set{{Lo: lo, Hi: lo + int64((rows-1)*stride+cols)}}
	}
	out := make(footprint.Set, rows)
	for i := range out {
		out[i] = footprint.Interval{Lo: lo, Hi: lo + int64(cols)}
		lo += int64(stride)
	}
	return out
}

// Footprints unions the footprints of several views.
func Footprints(ms ...*Matrix) footprint.Set {
	var buf [4]footprint.Set
	sets := buf[:0]
	for _, m := range ms {
		sets = append(sets, m.Footprint())
	}
	return footprint.UnionAll(sets...)
}

// Copy returns a freshly allocated copy of the view's contents in the given
// space (or detached from any space if s is nil).
func (m *Matrix) Copy(s *Space) *Matrix {
	if s == nil {
		s = NewSpace()
	}
	out := New(s, m.Rows(), m.Cols())
	out.CopyFrom(m)
	return out
}

// CopyFrom assigns the contents of src (same shape) into the view.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows() != src.Rows() || m.Cols() != src.Cols() {
		panic(fmt.Sprintf("matrix.CopyFrom: shape mismatch %d×%d vs %d×%d", m.Rows(), m.Cols(), src.Rows(), src.Cols()))
	}
	if m.trans || src.trans {
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				m.Set(i, j, src.At(i, j))
			}
		}
		return
	}
	for i := 0; i < m.rows; i++ {
		copy(m.row(i), src.row(i))
	}
}

// MaxAbsDiff returns the max absolute elementwise difference of two
// same-shaped views, and +Inf if any difference is NaN: callers test
// `d > tol`, which a NaN would pass.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		panic("matrix.MaxAbsDiff: shape mismatch")
	}
	a, b = rowMajor(a), rowMajor(b)
	var d float64
	for i := 0; i < a.rows; i++ {
		bi := b.row(i)
		for j, v := range a.row(i) {
			d = math.Max(d, math.Abs(v-bi[j]))
		}
	}
	if d != d { // math.Max keeps a NaN once it has met one
		return math.Inf(1)
	}
	return d
}

// FillRandom fills the view with uniform values in [-1, 1), drawn in
// row-major order of the view.
func (m *Matrix) FillRandom(r *rand.Rand) {
	d, down, right := m.strided()
	for i := 0; i < m.Rows(); i++ {
		for j, o := 0, i*down; j < m.Cols(); j, o = j+1, o+right {
			d[o] = 2*r.Float64() - 1
		}
	}
}

// FillSPD fills the (square) view with a symmetric positive-definite
// matrix: Aᵀ A + n·I for a random A.
func (m *Matrix) FillSPD(r *rand.Rand) {
	n := m.Rows()
	if n != m.Cols() {
		panic("matrix.FillSPD: not square")
	}
	a, g := New(NewSpace(), n, n), New(NewSpace(), n, n)
	a.FillRandom(r)
	MulAdd(g, a.T().Copy(nil), a, 1)
	for i := 0; i < n; i++ {
		g.row(i)[i] += float64(n)
	}
	m.CopyFrom(g)
}

// FillLowerTriangular fills the square view with a well-conditioned lower
// triangular matrix (unit-dominant diagonal) and zeros above the diagonal.
func (m *Matrix) FillLowerTriangular(r *rand.Rand) {
	n := m.Rows()
	if n != m.Cols() {
		panic("matrix.FillLowerTriangular: not square")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case j < i:
				m.Set(i, j, (2*r.Float64()-1)/float64(n))
			case j == i:
				m.Set(i, j, 1+r.Float64())
			default:
				m.Set(i, j, 0)
			}
		}
	}
}

func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			s += fmt.Sprintf("%8.3f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
