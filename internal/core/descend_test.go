package core

import (
	"testing"
)

// TestDescendAllDedup pins the deduplication contract of DescendAll, which
// keeps no seen-set (its frontier is an antichain of a tree): when pedigree
// components index past strand leaves, paths truncate at the strand, which
// must appear once. Results are appended after the caller's scratch.
func TestDescendAllDedup(t *testing.T) {
	s := strand("s", 1)
	u := strand("u", 1)
	root := NewPar(s, u)
	mustProgram(t, root, nil)

	// Component 1 visits s and u; component 2 (wildcard) truncates at both
	// strands and expands nothing — each must stay deduplicated.
	got, err := root.DescendAll(Pedigree{Wildcard, Wildcard}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != s || got[1] != u {
		t.Fatalf("DescendAll = %v, want [s u] exactly once each", got)
	}

	// Deeper truncation: descending 1.2.2 from the root stops at s on every
	// expanded path.
	got, err = root.DescendAll(Pedigree{1, Wildcard, Wildcard}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != s {
		t.Fatalf("DescendAll truncation = %v, want [s]", got)
	}

	// Arity errors still surface.
	if _, err := root.DescendAll(Pedigree{3}, nil); err == nil {
		t.Fatal("DescendAll past arity should fail")
	}
}

// TestDescendAllDoesNotAllocate: with caller-owned scratch, the wildcard
// descent on a recursive tree allocates nothing once the scratch has grown.
func TestDescendAllDoesNotAllocate(t *testing.T) {
	// Balanced 4-ary tree of internal Par nodes, depth 4.
	var build func(depth int) *Node
	build = func(depth int) *Node {
		if depth == 0 {
			return strand("s", 1)
		}
		kids := make([]*Node, 4)
		for i := range kids {
			kids[i] = build(depth - 1)
		}
		return NewPar(kids...)
	}
	root := build(4)
	mustProgram(t, root, nil)
	ped := Pedigree{Wildcard, 2, Wildcard}
	var scratch []*Node
	descend := func() {
		var err error
		if scratch, err = root.DescendAll(ped, scratch[:0]); err != nil {
			t.Fatal(err)
		}
	}
	descend() // grow the scratch
	if len(scratch) != 16 {
		t.Fatalf("DescendAll(*.2.*) found %d nodes, want 16", len(scratch))
	}
	if avg := testing.AllocsPerRun(100, descend); avg != 0 {
		t.Fatalf("DescendAll allocates %.2f objects/call with grown scratch, want 0", avg)
	}
}

// TestDashedSetRegrows drives the DRS's dedup set far past the size it was
// given, so the regrow path (which ordinary rule sets never reach) keeps
// every key it had and still tells new keys from old.
func TestDashedSetRegrows(t *testing.T) {
	s := newDashedSet(1)
	const n = 5000
	for pass := 0; pass < 2; pass++ {
		for i := int32(0); i < n; i++ {
			k := dashedKey{typ: i%7 + 1, a: i / 3, b: i * 31}
			if fresh := s.add(k); fresh != (pass == 0) {
				t.Fatalf("pass %d: add(%v) = %v", pass, k, fresh)
			}
		}
	}
	if s.used != n || 3*s.used > 2*len(s.slots) {
		t.Fatalf("used = %d of %d slots after %d distinct keys", s.used, len(s.slots), n)
	}
}
