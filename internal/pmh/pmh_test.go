package pmh

import (
	"testing"
	"testing/quick"
)

func twoLevel() Spec {
	return Spec{
		ProcsPerL1: 1,
		Caches: []CacheSpec{
			{Size: 4, Fanout: 2, MissCost: 1},
			{Size: 16, Fanout: 2, MissCost: 10},
		},
		MemMissCost: 100,
	}
}

func TestTopology(t *testing.T) {
	s := twoLevel()
	if got := s.Processors(); got != 4 {
		t.Fatalf("processors = %d, want 4", got)
	}
	if got := s.CacheCount(0); got != 4 {
		t.Fatalf("L1 count = %d, want 4", got)
	}
	if got := s.CacheCount(1); got != 2 {
		t.Fatalf("L2 count = %d, want 2", got)
	}
	// Processors 0,1 share L2 0; processors 2,3 share L2 1.
	if s.CacheIndex(1, 1) != 0 || s.CacheIndex(2, 1) != 1 {
		t.Fatal("CacheIndex mapping wrong")
	}
	if s.CacheIndex(3, 0) != 3 {
		t.Fatal("L1 index wrong")
	}
}

func TestServiceCost(t *testing.T) {
	s := twoLevel()
	if c := s.ServiceCost(0); c != 0 {
		t.Errorf("L1 hit cost = %d, want 0", c)
	}
	if c := s.ServiceCost(1); c != 1 {
		t.Errorf("L2 service cost = %d, want 1", c)
	}
	if c := s.ServiceCost(2); c != 11+100 {
		t.Errorf("memory service cost = %d, want 111", c)
	}
}

func TestAccessCounting(t *testing.T) {
	m, err := New(twoLevel())
	if err != nil {
		t.Fatal(err)
	}
	// Cold miss: misses at both levels, memory cost.
	if c := m.Access(0, 42); c != 111 {
		t.Fatalf("cold access cost = %d, want 111", c)
	}
	if m.Misses(0) != 1 || m.Misses(1) != 1 {
		t.Fatalf("misses = %d,%d, want 1,1", m.Misses(0), m.Misses(1))
	}
	// Immediate re-access: L1 hit, free.
	if c := m.Access(0, 42); c != 0 {
		t.Fatalf("warm access cost = %d, want 0", c)
	}
	// Neighbor sharing the L2 hits at L2.
	if c := m.Access(1, 42); c != 1 {
		t.Fatalf("L2-shared access cost = %d, want 1", c)
	}
	// A processor in the other subcluster misses everywhere.
	if c := m.Access(2, 42); c != 111 {
		t.Fatalf("far access cost = %d, want 111", c)
	}
}

func TestLRUEviction(t *testing.T) {
	m, err := New(twoLevel())
	if err != nil {
		t.Fatal(err)
	}
	// Fill L1 (capacity 4) and evict word 0 with word 4.
	for w := int64(0); w <= 4; w++ {
		m.Access(0, w)
	}
	// Word 0 must now be an L1 miss but an L2 hit (L2 capacity 16).
	if c := m.Access(0, 0); c != 1 {
		t.Fatalf("evicted word access cost = %d, want 1 (L2 hit)", c)
	}
	// Touch keeps recency: access word 1, then fill; word 1 survives.
	m.Reset()
	for w := int64(0); w < 4; w++ {
		m.Access(0, w)
	}
	m.Access(0, 1)  // make word 1 most recent
	m.Access(0, 99) // evicts word 0 (least recent), not 1
	if c := m.Access(0, 1); c != 0 {
		t.Fatalf("recently used word evicted: cost %d", c)
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	m, err := New(twoLevel())
	if err != nil {
		t.Fatal(err)
	}
	// A working set of 4 words on one processor: after the cold pass,
	// any number of passes adds no misses.
	for pass := 0; pass < 3; pass++ {
		for w := int64(0); w < 4; w++ {
			m.Access(0, w)
		}
	}
	if m.Misses(0) != 4 {
		t.Fatalf("L1 misses = %d, want 4 cold misses only", m.Misses(0))
	}
}

func TestValidate(t *testing.T) {
	bad := Spec{ProcsPerL1: 1, Caches: []CacheSpec{{Size: 8, Fanout: 2, MissCost: 1}, {Size: 4, Fanout: 1, MissCost: 1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("shrinking hierarchy accepted")
	}
	if err := (Spec{}).Validate(); err == nil {
		t.Fatal("empty spec accepted")
	}
	if err := ThreeLevel(64, 512, 4096, 2, 2, 2).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsNonDivisible(t *testing.T) {
	// Degenerate fanouts or processor counts collapse a level's processor
	// span to zero (or make it undefined); the topology helpers in the
	// schedulers would integer-divide their way to empty processor ranges
	// if Validate let these through.
	cases := []struct {
		name string
		spec Spec
	}{
		{"zero fanout", Spec{ProcsPerL1: 1, Caches: []CacheSpec{{Size: 8, Fanout: 0, MissCost: 1}}}},
		{"negative fanout", Spec{ProcsPerL1: 1, Caches: []CacheSpec{{Size: 8, Fanout: -2, MissCost: 1}}}},
		{"no processors", Spec{ProcsPerL1: 0, Caches: []CacheSpec{{Size: 8, Fanout: 2, MissCost: 1}}}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// New cannot build a machine from a rejected spec.
	if _, err := New(cases[0].spec); err == nil {
		t.Fatal("New accepted a non-divisible spec")
	}
}

func TestQuickColdMissesEqualDistinctWords(t *testing.T) {
	// Accessing any sequence from one processor: L1 misses ≥ distinct
	// words, and if the distinct set fits in L1, exactly equal.
	f := func(words []uint8) bool {
		m, err := New(twoLevel())
		if err != nil {
			return false
		}
		distinct := map[int64]bool{}
		for _, w := range words {
			v := int64(w % 4) // ≤ 4 distinct words: fits L1
			distinct[v] = true
			m.Access(0, v)
		}
		return m.Misses(0) == int64(len(distinct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
