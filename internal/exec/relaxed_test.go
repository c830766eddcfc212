package exec

import (
	"testing"
)

// TestPolicyEnginesMatchElision runs the random instrumented-graph
// differential (see TestEngineMatchesElision) on the non-default
// policies: a policy only reorders legal schedules, so every run must
// still reproduce the serial elision's strand effects.
func TestPolicyEnginesMatchElision(t *testing.T) {
	for _, p := range allPolicies[1:] {
		t.Run(p.String(), func(t *testing.T) {
			e := NewEngine(4, WithPolicy(p))
			defer e.Close()
			for seed := int64(0); seed < 25; seed++ {
				g, val, want := engineGraph(t, seed)
				if g == nil {
					continue
				}
				for rerun := 0; rerun < 3; rerun++ {
					for i := range val {
						val[i] = 0
					}
					r, err := e.Submit(g)
					if err != nil {
						t.Fatalf("seed %d: submit: %v", seed, err)
					}
					if err := r.Wait(); err != nil {
						t.Fatalf("seed %d rerun %d: %v", seed, rerun, err)
					}
					for i := range val {
						if val[i] != want[i] {
							t.Fatalf("seed %d rerun %d: strand %d effect = %d, want %d (dependency violated)",
								seed, rerun, i, val[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestMultiQueueOrder exercises one mqueue as a max-heap: pops come out
// in descending priority.
func TestMultiQueueOrder(t *testing.T) {
	var q mqueue
	prios := []int64{3, 9, 1, 7, 7, 2, 8, 0, 5}
	for i, p := range prios {
		q.push(p, int64(i))
	}
	if got := q.n.Load(); got != int32(len(prios)) {
		t.Fatalf("size mirror = %d, want %d", got, len(prios))
	}
	if got := q.top.Load(); got != 9 {
		t.Fatalf("top mirror = %d, want 9", got)
	}
	var last int64 = 1 << 62
	for range prios {
		w, ok := q.tryPop()
		if !ok {
			t.Fatal("tryPop failed on non-empty queue")
		}
		p := prios[w]
		if p > last {
			t.Fatalf("popped priority %d after %d: not descending", p, last)
		}
		last = p
	}
	if _, ok := q.tryPop(); ok {
		t.Fatal("tryPop succeeded on empty queue")
	}
}

// TestMultiQueuePopOwn checks the pair rule: a worker pops the deeper of
// its two heads, and drains both queues of its pair.
func TestMultiQueuePopOwn(t *testing.T) {
	m := newMultiQueue(2)
	// Worker 0's pair: queue 0 head 5, queue 1 head 9.
	m.qs[0].push(5, 100)
	m.qs[1].push(9, 200)
	m.qs[1].push(2, 300)
	if w, ok := m.popOwn(0); !ok || w != 200 {
		t.Fatalf("popOwn = %d,%v; want the deeper head 200", w, ok)
	}
	if w, ok := m.popOwn(0); !ok || w != 100 {
		t.Fatalf("popOwn = %d,%v; want 100 (5 > 2)", w, ok)
	}
	if w, ok := m.popOwn(0); !ok || w != 300 {
		t.Fatalf("popOwn = %d,%v; want the last entry 300", w, ok)
	}
	if _, ok := m.popOwn(0); ok {
		t.Fatal("popOwn succeeded on a drained pair")
	}
}

// TestMultiQueueSweep checks that an idle worker's sweep finds a lone
// entry wherever it hides (the exhaustive fallback), reports foreignness
// correctly, and that pushLocal balances a worker's own pair.
func TestMultiQueueSweep(t *testing.T) {
	m := newMultiQueue(4)
	rng := uint64(42)
	if _, _, ok := m.sweep(0, &rng); ok {
		t.Fatal("sweep found work in an empty structure")
	}
	m.qs[7].push(1, 700) // worker 3's second queue
	w, from, ok := m.sweep(0, &rng)
	if !ok || w != 700 || from/2 == 0 {
		t.Fatalf("sweep = %d,from=%d,%v; want 700 via a foreign pop", w, from, ok)
	}
	m.qs[1].push(1, 111) // worker 0's own pair: not a steal
	w, from, ok = m.sweep(0, &rng)
	if !ok || w != 111 || from/2 != 0 {
		t.Fatalf("sweep = %d,from=%d,%v; want own-pair 111, not foreign", w, from, ok)
	}

	for i := 0; i < 10; i++ {
		m.pushLocal(2, int64(i), int64(i))
	}
	a, b := m.qs[4].n.Load(), m.qs[5].n.Load()
	if a+b != 10 || a == 0 || b == 0 {
		t.Fatalf("pushLocal balance: pair sizes %d/%d, want both non-empty summing to 10", a, b)
	}
}
