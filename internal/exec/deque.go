package exec

import "sync/atomic"

// wsDeque is a Chase–Lev work-stealing deque of task words: the owning
// worker pushes and pops at the bottom (LIFO, depth-first locality) while
// thieves take from the top (FIFO, oldest work first). All coordination is
// a single compare-and-swap on the top index; the common owner path is two
// atomic loads and a store.
//
// Elements are the engine's packed (run slot, strand) task words.
//
// The element array is accessed through atomic cells because a thief reads
// its candidate slot before winning the CAS; the CAS ensures a torn claim
// is discarded, and the atomic access keeps the race checker satisfied.
// Buffers grow by doubling (owner-only); stale buffers stay valid for
// concurrent readers since grown contents are copied, never mutated.
type wsDeque struct {
	top    atomic.Int64 // next slot thieves claim
	bottom atomic.Int64 // next slot the owner writes
	buf    atomic.Pointer[wsBuf]
}

type wsBuf struct {
	mask int64
	a    []atomic.Int64
}

func newWSBuf(capacity int64) *wsBuf {
	return &wsBuf{mask: capacity - 1, a: make([]atomic.Int64, capacity)}
}

// newWSDeque returns a deque with capacity rounded up to a power of two.
func newWSDeque(capacity int) *wsDeque {
	c := int64(8)
	for c < int64(capacity) {
		c <<= 1
	}
	d := &wsDeque{}
	d.buf.Store(newWSBuf(c))
	return d
}

// push appends v at the bottom. Owner only.
func (d *wsDeque) push(v int64) {
	b := d.bottom.Load()
	t := d.top.Load()
	buf := d.buf.Load()
	if b-t >= int64(len(buf.a)) {
		next := newWSBuf(2 * int64(len(buf.a)))
		for i := t; i < b; i++ {
			next.a[i&next.mask].Store(buf.a[i&buf.mask].Load())
		}
		d.buf.Store(next)
		buf = next
	}
	buf.a[b&buf.mask].Store(v)
	d.bottom.Store(b + 1)
}

// pop removes and returns the bottom element. Owner only.
//
//ndlint:noalloc
func (d *wsDeque) pop() (int64, bool) {
	b := d.bottom.Load() - 1
	buf := d.buf.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore the canonical empty state.
		d.bottom.Store(t)
		return 0, false
	}
	v := buf.a[b&buf.mask].Load()
	if t == b {
		// Last element: race thieves for it via the top index.
		ok := d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(t + 1)
		if !ok {
			return 0, false
		}
	}
	return v, true
}

// steal removes and returns the top element. Any thread. retry reports a
// lost race (the deque may still hold work worth re-probing).
//
//ndlint:noalloc
func (d *wsDeque) steal() (v int64, ok, retry bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return 0, false, false
	}
	buf := d.buf.Load()
	v = buf.a[t&buf.mask].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return 0, false, true
	}
	return v, true, false
}

// stealFrom probes random victims, then sweeps deterministically so no
// available task is ever missed. rng is a worker-local xorshift state.
// On success the victim's index is returned alongside the task, for the
// tracer's steal flow arrows.
func stealFrom(deques []*wsDeque, self int, rng *uint64) (int64, int, bool) {
	n := len(deques)
	if n == 1 {
		return 0, 0, false
	}
	for attempt := 0; attempt < 2*n; attempt++ {
		*rng ^= *rng << 13
		*rng ^= *rng >> 7
		*rng ^= *rng << 17
		victim := int(*rng % uint64(n))
		if victim == self {
			continue
		}
		if v, ok, retry := deques[victim].steal(); ok {
			return v, victim, true
		} else if retry {
			attempt--
		}
	}
	for victim := 0; victim < n; victim++ {
		if victim == self {
			continue
		}
		for {
			v, ok, retry := deques[victim].steal()
			if ok {
				return v, victim, true
			}
			if !retry {
				break
			}
		}
	}
	return 0, 0, false
}
