// Package footprint provides interval sets over a flat word-addressed
// memory space. Strands declare their memory footprint as interval sets;
// task sizes s(t), cache simulation and true-dependency extraction all
// operate on them. Word granularity corresponds to the paper's B = 1
// simplification of the Parallel Memory Hierarchy model.
package footprint

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Interval is a half-open range [Lo, Hi) of word addresses.
type Interval struct {
	Lo, Hi int64
}

// Empty reports whether the interval contains no words.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Words returns the number of words in the interval.
func (iv Interval) Words() int64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

// Set is a normalized interval set: sorted by Lo, pairwise disjoint,
// non-adjacent and non-empty. The zero value is the empty set. Sets are
// immutable values: every operation below takes normalized operands by
// contract, never writes to them, and returns a normalized result — the
// merges rely on that order instead of re-sorting.
type Set []Interval

// New builds a normalized Set from arbitrary intervals: empties are dropped,
// overlapping and adjacent intervals are merged. The input is not modified;
// its copy is sorted only when it is out of order.
func New(ivs ...Interval) Set {
	byLo := func(a, b Interval) int { return cmp.Compare(a.Lo, b.Lo) }
	out := slices.Clone(ivs)
	if !slices.IsSortedFunc(out, byLo) {
		slices.SortFunc(out, byLo)
	}
	kept := out[:0] // compacts in place: the write position never passes the read position
	for _, iv := range out {
		kept = appendMerged(kept, 0, iv)
	}
	if len(kept) == 0 {
		return nil
	}
	return kept
}

// Single returns a set holding the single half-open interval [lo, hi).
func Single(lo, hi int64) Set { return New(Interval{lo, hi}) }

// Words returns the number of distinct words in the set.
//
//ndlint:noalloc
func (s Set) Words() int64 {
	var n int64
	for _, iv := range s {
		n += iv.Words()
	}
	return n
}

// Empty reports whether the set contains no words.
func (s Set) Empty() bool { return len(s) == 0 }

// Union returns the normalized union of a and b: a two-way merge. The
// result never aliases an operand.
func Union(a, b Set) Set {
	if len(a)+len(b) == 0 {
		return nil
	}
	sets := [2]Set{a, b}
	return AppendUnion(make([]Interval, 0, len(a)+len(b)), sets[:])
}

// UnionAll returns the normalized union of all the given sets: a k-way
// merge.
func UnionAll(sets ...Set) Set {
	var total int
	for _, s := range sets {
		total += len(s)
	}
	if total == 0 {
		return nil
	}
	var buf [8]Set // the merge consumes its cursor slice; the caller's stays intact
	return AppendUnion(make([]Interval, 0, total), append(buf[:0], sets...))
}

// AppendUnion appends the normalized union of the sets to dst and returns
// the extended slice; what dst already holds is left alone (the union is
// normalized on its own). It is the one merge kernel: a k-way merge over a
// binary heap kept in the sets slice itself, so it writes only dst and the
// slice headers in sets (scratch, unspecified on return), never the
// intervals. Given spare capacity for the operands' total length it does
// not allocate, which is how a program's footprints share one slab.
//
//ndlint:noalloc
func AppendUnion(dst []Interval, sets []Set) []Interval {
	base := len(dst)
	k := 0
	for _, s := range sets {
		if len(s) > 0 {
			sets[k] = s
			k++
		}
	}
	sets = sets[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(sets, i)
	}
	for len(sets) > 0 {
		dst = appendMerged(dst, base, sets[0][0])
		if sets[0] = sets[0][1:]; len(sets[0]) == 0 {
			sets[0] = sets[len(sets)-1]
			sets = sets[:len(sets)-1]
		}
		siftDown(sets, 0)
	}
	return dst
}

// appendMerged appends iv to the normalized run dst[base:], whose last
// interval starts at or before iv: it is dropped if empty, absorbed if it
// overlaps or touches that interval, and appended otherwise.
//
//ndlint:noalloc
func appendMerged(dst []Interval, base int, iv Interval) []Interval {
	if iv.Empty() {
		return dst
	}
	if n := len(dst); n > base && iv.Lo <= dst[n-1].Hi {
		if iv.Hi > dst[n-1].Hi {
			dst[n-1].Hi = iv.Hi
		}
		return dst
	}
	return append(dst, iv)
}

// siftDown restores the min-heap order (by first interval's Lo) of the
// non-empty sets below position i.
//
//ndlint:noalloc
func siftDown(sets []Set, i int) {
	for {
		c := 2*i + 1
		if c >= len(sets) {
			return
		}
		if c+1 < len(sets) && sets[c+1][0].Lo < sets[c][0].Lo {
			c++
		}
		if sets[i][0].Lo <= sets[c][0].Lo {
			return
		}
		sets[i], sets[c] = sets[c], sets[i]
		i = c
	}
}

// Intersects reports whether a and b share at least one word.
//
//ndlint:noalloc
func Intersects(a, b Set) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Hi <= b[j].Lo {
			i++
		} else if b[j].Hi <= a[i].Lo {
			j++
		} else {
			return true
		}
	}
	return false
}

// Contains reports whether word w is in the set.
func (s Set) Contains(w int64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].Hi > w })
	return i < len(s) && s[i].Lo <= w
}

// Each calls fn for every word in the set in increasing address order.
func (s Set) Each(fn func(word int64)) {
	for _, iv := range s {
		for w := iv.Lo; w < iv.Hi; w++ {
			fn(w)
		}
	}
}

func (s Set) String() string {
	if len(s) == 0 {
		return "{}"
	}
	parts := make([]string, len(s))
	for i, iv := range s {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
