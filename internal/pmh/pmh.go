// Package pmh simulates the Parallel Memory Hierarchy machine model of
// Alpern, Carter and Ferrante used by the paper (§4, Figure 2): a
// symmetric tree rooted at an infinite memory, with caches of size Mi and
// fanout fi at each internal level and processors at the leaves. Cache
// lines are one word long (B = 1, as in the paper's simplified analysis).
//
// Caches are LRU. An access walks from the processor's L1 upward until it
// finds the word (or reaches memory), pays the paper's cost
// C'_j = C0 + C1 + … + C(j−1) for service from level j, installs the word
// in every cache on the path, and counts one miss at every level that did
// not hold it.
package pmh

import (
	"container/list"
	"fmt"
)

// CacheSpec describes one cache level.
type CacheSpec struct {
	Size     int64 // Mi, in words
	Fanout   int   // number of these caches under each unit one level up
	MissCost int64 // C(i−1): cost of servicing this cache's miss from the level above
}

// Spec describes a PMH. Caches[0] is the level-1 cache; the last entry is
// the highest cache below memory. The memory root is implicit and
// infinite; MemMissCost is the cost of servicing a top-cache miss from
// memory.
type Spec struct {
	ProcsPerL1  int
	Caches      []CacheSpec
	MemMissCost int64
}

// Levels returns h − 1: the number of cache levels.
func (s Spec) Levels() int { return len(s.Caches) }

// CacheCount returns the number of caches at 0-based level i
// (level 0 = L1).
func (s Spec) CacheCount(i int) int {
	n := 1
	for j := len(s.Caches) - 1; j >= i; j-- {
		n *= s.Caches[j].Fanout
	}
	return n
}

// Processors returns the number of processors (leaves of the tree).
func (s Spec) Processors() int { return s.ProcsPerL1 * s.CacheCount(0) }

// ProcsPerCache returns the number of processors under each cache at
// 0-based level i.
func (s Spec) ProcsPerCache(i int) int {
	return s.Processors() / s.CacheCount(i)
}

// CacheIndex returns which level-i cache (0-based level) serves processor p.
func (s Spec) CacheIndex(p, i int) int { return p / s.ProcsPerCache(i) }

// ServiceCost returns C'_j: the cost of an access served from 0-based
// cache level j (ServiceCost(0) = 0: an L1 hit is free, as in the paper
// where C'_0 = 0 absent register modeling). j = Levels() means memory.
func (s Spec) ServiceCost(j int) int64 {
	var c int64
	for i := 0; i < j && i < len(s.Caches); i++ {
		c += s.Caches[i].MissCost
	}
	if j >= len(s.Caches) {
		c += s.MemMissCost
	}
	return c
}

// Validate checks the spec is well formed. Beyond per-field sanity it
// enforces the divisibility invariant every topology consumer (the
// simulator's schedulers, the real engine's steal topology) relies on:
// the tree must be uniform, so the processor span of each unit —
// Processors()/CacheCount(i) — and the child span between adjacent levels
// divide evenly and are never empty. A spec violating it (a zero or
// negative fanout, no processors under an L1) would integer-divide its
// way to wrong, even empty, processor ranges instead of failing loudly.
func (s Spec) Validate() error {
	if s.ProcsPerL1 < 1 {
		return fmt.Errorf("pmh: ProcsPerL1 = %d; every L1 needs at least one processor", s.ProcsPerL1)
	}
	if len(s.Caches) == 0 {
		return fmt.Errorf("pmh: no cache levels")
	}
	var prev int64
	for i, c := range s.Caches {
		if c.Size <= 0 || c.Fanout < 1 || c.MissCost < 0 {
			return fmt.Errorf("pmh: bad cache level %d: %+v", i+1, c)
		}
		if c.Size < prev {
			return fmt.Errorf("pmh: cache level %d smaller than level below", i+1)
		}
		prev = c.Size
	}
	procs := s.Processors()
	if procs < 1 {
		return fmt.Errorf("pmh: spec yields %d processors", procs)
	}
	for i := range s.Caches {
		n := s.CacheCount(i)
		if n < 1 {
			return fmt.Errorf("pmh: level %d has %d caches", i+1, n)
		}
		if procs%n != 0 || procs/n < 1 {
			return fmt.Errorf("pmh: %d processors do not divide evenly over %d level-%d caches", procs, n, i+1)
		}
		if i+1 < len(s.Caches) {
			m := s.CacheCount(i + 1)
			if n%m != 0 {
				return fmt.Errorf("pmh: %d level-%d caches do not divide evenly over %d level-%d caches", n, i+1, m, i+2)
			}
		}
	}
	return nil
}

// lru is a fixed-capacity LRU set of words.
type lru struct {
	cap   int64
	items map[int64]*list.Element
	order *list.List // front = most recent
}

func newLRU(capacity int64) *lru {
	return &lru{cap: capacity, items: make(map[int64]*list.Element), order: list.New()}
}

func (c *lru) touch(w int64) bool {
	if e, ok := c.items[w]; ok {
		c.order.MoveToFront(e)
		return true
	}
	return false
}

func (c *lru) insert(w int64) {
	if e, ok := c.items[w]; ok {
		c.order.MoveToFront(e)
		return
	}
	if int64(c.order.Len()) >= c.cap {
		back := c.order.Back()
		delete(c.items, back.Value.(int64))
		c.order.Remove(back)
	}
	c.items[w] = c.order.PushFront(w)
}

// Machine is an instantiated PMH with mutable cache state and counters.
type Machine struct {
	Spec
	caches   [][]*lru // [level][index]
	misses   []int64  // per level
	accesses int64
}

// New builds a machine from a validated spec.
func New(spec Spec) (*Machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Spec: spec}
	m.caches = make([][]*lru, spec.Levels())
	for i := range m.caches {
		count := spec.CacheCount(i)
		m.caches[i] = make([]*lru, count)
		for j := range m.caches[i] {
			m.caches[i][j] = newLRU(spec.Caches[i].Size)
		}
	}
	m.misses = make([]int64, spec.Levels())
	return m, nil
}

// Access simulates processor p touching the word and returns the access
// cost. Misses are counted at every level that lacked the word.
func (m *Machine) Access(p int, word int64) int64 {
	m.accesses++
	level := m.Levels() // assume memory service unless found below
	for i := 0; i < m.Levels(); i++ {
		if m.caches[i][m.CacheIndex(p, i)].touch(word) {
			level = i
			break
		}
		m.misses[i]++
	}
	for i := 0; i < level && i < m.Levels(); i++ {
		m.caches[i][m.CacheIndex(p, i)].insert(word)
	}
	return m.ServiceCost(level)
}

// Misses returns the total miss count at 0-based cache level i.
func (m *Machine) Misses(i int) int64 { return m.misses[i] }

// Accesses returns the total number of word accesses simulated.
func (m *Machine) Accesses() int64 { return m.accesses }

// Reset clears all cache contents and counters.
func (m *Machine) Reset() {
	for i := range m.caches {
		for j := range m.caches[i] {
			m.caches[i][j] = newLRU(m.Spec.Caches[i].Size)
		}
	}
	m.misses = make([]int64, m.Levels())
	m.accesses = 0
}

// ThreeLevel returns a small, fully exercised example machine: p
// processors, private L1s, L2s shared by groups of l2share L1s, and one
// shared L3 per l3share L2 group.
func ThreeLevel(l1Size, l2Size, l3Size int64, l2Share, l3Share, topCaches int) Spec {
	return Spec{
		ProcsPerL1: 1,
		Caches: []CacheSpec{
			{Size: l1Size, Fanout: l2Share, MissCost: 1},
			{Size: l2Size, Fanout: l3Share, MissCost: 10},
			{Size: l3Size, Fanout: topCaches, MissCost: 100},
		},
		MemMissCost: 1000,
	}
}
