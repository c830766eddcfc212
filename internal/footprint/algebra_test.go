package footprint

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// The oracle: words 0..63 as one bitmap word. Every operation of the set
// algebra has an obvious bit-parallel twin, so a decoded input is run
// through both and the results compared.

const universe = 64

func bitsOf(ivs []Interval) uint64 {
	var m uint64
	for _, iv := range ivs {
		for w := max(iv.Lo, 0); w < min(iv.Hi, universe); w++ {
			m |= 1 << w
		}
	}
	return m
}

// checkNormal asserts the normal form every result must have: non-empty
// intervals, sorted, with a gap between neighbours (disjoint, non-adjacent).
func checkNormal(t *testing.T, what string, s []Interval) {
	t.Helper()
	for i, iv := range s {
		if iv.Empty() {
			t.Fatalf("%s = %v: interval %d is empty", what, Set(s), i)
		}
		if i > 0 && s[i-1].Hi >= iv.Lo {
			t.Fatalf("%s = %v: intervals %d and %d overlap, touch or are out of order", what, Set(s), i-1, i)
		}
	}
}

// checkAlgebra decodes data into up to five interval lists — triples of
// (list, lo, hi), so lists come out unsorted, overlapping, adjacent, with
// empty and reversed intervals, or stay empty — and checks New, Union,
// UnionAll, AppendUnion, Intersects and Words against the bitmap oracle,
// the normal form of every result, and that no input is ever written to.
func checkAlgebra(t *testing.T, data []byte) {
	t.Helper()
	var raw [5][]Interval
	for ; len(data) >= 3; data = data[3:] {
		k := int(data[0]) % len(raw)
		raw[k] = append(raw[k], Interval{Lo: int64(data[1] % (universe + 1)), Hi: int64(data[2] % (universe + 1))})
	}
	var sets []Set
	for k, ivs := range raw {
		before := slices.Clone(ivs)
		s := New(ivs...)
		if !slices.Equal(ivs, before) {
			t.Fatalf("New(%v) modified its input to %v", before, ivs)
		}
		checkNormal(t, "New", s)
		if got, want := bitsOf(s), bitsOf(ivs); got != want {
			t.Fatalf("New(%v) = %v covers %#x, want %#x", ivs, s, got, want)
		}
		if got, want := s.Words(), int64(bits.OnesCount64(bitsOf(ivs))); got != want {
			t.Fatalf("%v.Words() = %d, want %d", s, got, want)
		}
		if (len(s) == 0) != s.Empty() || (s == nil) != (bitsOf(ivs) == 0) {
			t.Fatalf("list %d: New(%v) = %#v: the empty set must be nil", k, ivs, s)
		}
		sets = append(sets, s)
	}
	snapshot := make([]Set, len(sets))
	for i, s := range sets {
		snapshot[i] = slices.Clone(s)
	}
	unchanged := func(op string) {
		t.Helper()
		for i, s := range sets {
			if !slices.Equal(s, snapshot[i]) {
				t.Fatalf("%s modified operand %d: %v, was %v", op, i, s, snapshot[i])
			}
		}
	}

	var all uint64
	for i, a := range sets {
		all |= bitsOf(a)
		for j, b := range sets {
			u := Union(a, b)
			checkNormal(t, "Union", u)
			if got, want := bitsOf(u), bitsOf(a)|bitsOf(b); got != want {
				t.Fatalf("Union(%v, %v) = %v covers %#x, want %#x", a, b, u, got, want)
			}
			if len(u) > 0 && (len(a) > 0 && &u[0] == &a[0] || len(b) > 0 && &u[0] == &b[0]) {
				t.Fatalf("Union(%v, %v) aliases an operand", a, b)
			}
			if got, want := Intersects(a, b), bitsOf(a)&bitsOf(b) != 0; got != want {
				t.Fatalf("Intersects(%v, %v) = %v, want %v (sets %d, %d)", a, b, got, want, i, j)
			}
		}
	}
	unchanged("Union/Intersects")

	u := UnionAll(sets...)
	checkNormal(t, "UnionAll", u)
	if got := bitsOf(u); got != all {
		t.Fatalf("UnionAll(%v) = %v covers %#x, want %#x", sets, u, got, all)
	}
	unchanged("UnionAll")

	// The kernel on a slab: what is already in dst stays, the union lands
	// after it normalized on its own, and only the scratch headers move.
	prefix := []Interval{{Lo: 0, Hi: universe}, {Lo: 7, Hi: 3}}
	scratch := slices.Clone(sets)
	dst := AppendUnion(slices.Clone(prefix), scratch)
	if !slices.Equal(dst[:len(prefix)], prefix) {
		t.Fatalf("AppendUnion rewrote dst's prefix: %v", dst[:len(prefix)])
	}
	if !slices.Equal(dst[len(prefix):], u) {
		t.Fatalf("AppendUnion appended %v, UnionAll gave %v", dst[len(prefix):], u)
	}
	unchanged("AppendUnion")
}

// TestSetAlgebraProperty drives the oracle check with random inputs, dense
// enough in a 64-word universe that overlaps, adjacency, containment and
// empty operands all occur constantly.
func TestSetAlgebraProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		data := make([]byte, 3*r.Intn(24))
		r.Read(data)
		if i%3 == 0 { // short intervals: many survive as separate runs
			for j := 2; j < len(data); j += 3 {
				data[j] = data[j-1] + byte(r.Intn(4))
			}
		}
		checkAlgebra(t, data)
	}
}

func FuzzSetAlgebra(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5, 0, 5, 9, 1, 3, 7})             // adjacent in one list, overlapped by another
	f.Add([]byte{0, 10, 12, 0, 0, 2, 1, 64, 0, 2, 5, 5}) // unsorted, reversed, empty
	f.Add([]byte{0, 0, 64, 1, 0, 64, 2, 0, 64, 3, 0, 64, 4, 0, 64})
	f.Add([]byte{0, 0, 2, 1, 2, 4, 2, 4, 6, 3, 6, 8, 4, 8, 10, 0, 20, 22, 1, 22, 24}) // a chain across lists
	f.Fuzz(checkAlgebra)
}

// TestUnionAllDoesNotAllocatePerSet pins the cost model the cold path
// relies on: one allocation for the result however many operands merge,
// and none at all when the caller brings the destination.
func TestUnionAllDoesNotAllocatePerSet(t *testing.T) {
	var sets []Set
	for k := int64(0); k < 8; k++ {
		var s Set
		for row := int64(0); row < 16; row++ {
			s = append(s, Interval{Lo: row*64 + k*8, Hi: row*64 + k*8 + 4})
		}
		sets = append(sets, s)
	}
	if n := testing.AllocsPerRun(100, func() { UnionAll(sets...) }); n != 1 {
		t.Errorf("UnionAll of 8 sets: %v allocations, want 1", n)
	}
	dst, scratch := make([]Interval, 0, 8*16), make([]Set, len(sets))
	if n := testing.AllocsPerRun(100, func() {
		copy(scratch, sets)
		AppendUnion(dst, scratch)
	}); n != 0 {
		t.Errorf("AppendUnion into a sized slab: %v allocations, want 0", n)
	}
}
