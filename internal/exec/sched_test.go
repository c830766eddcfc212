package exec

import "testing"

// TestSweepContract checks the sweep contract (sched.go) as a property:
// with words placed on the deques of the workers other than the sweeper,
// repeated sweeps by one worker return each word exactly once and then
// false. Each deque is tried alone, so a full deque elsewhere cannot mask
// one the sweep misses, and then with every deque full. The engine is
// built without starting its workers, so nothing else moves the words.
func TestSweepContract(t *testing.T) {
	// The subtest is named for the engine's steal order: thieves take
	// the oldest work first.
	t.Run("fifo", sweepContract)
}

func sweepContract(t *testing.T) {
	const workers = 4
	for self := 0; self < workers; self++ {
		nSites := workers - 1
		for only := 0; only <= nSites; only++ { // only == nSites: every site
			e := newEngine(workers, engineConfig{})
			taken := make(map[int64]int)
			var id int32
			for i, d := range sweepSites(e, self) {
				if only < nSites && i != only {
					continue
				}
				for k := 0; k < 3; k++ {
					word := packTask(0, id)
					id++
					taken[word] = 0
					d.push(word)
				}
			}

			w := newWorker(e, self)
			for sweeps := 0; ; sweeps++ {
				word, ok := e.sweep(w)
				if !ok {
					break
				}
				if sweeps > len(taken) {
					t.Fatalf("worker %d: %d successful sweeps for %d words", self, sweeps, len(taken))
				}
				if _, placed := taken[word]; !placed {
					t.Fatalf("worker %d: sweep returned %#x, which was never placed", self, word)
				}
				taken[word]++
			}
			for word, n := range taken {
				if n != 1 {
					t.Errorf("worker %d, site %d of %d: word %#x taken %d times, want exactly once", self, only, nSites, word, n)
				}
			}
		}
	}
}

// sweepSites returns the deques a worker other than self can publish
// into: every deque but self's.
func sweepSites(e *Engine, self int) []*wsDeque {
	var sites []*wsDeque
	for v, d := range e.deques {
		if v != self {
			sites = append(sites, d)
		}
	}
	return sites
}
