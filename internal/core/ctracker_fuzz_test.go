package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fuzzTreeBuilder consumes fuzz bytes to build a bounded random spawn
// tree of Seq/Par/Strand nodes.
type fuzzTreeBuilder struct {
	data   []byte
	pos    int
	leaves int
}

func (b *fuzzTreeBuilder) next() byte {
	if b.pos >= len(b.data) {
		return 0
	}
	v := b.data[b.pos]
	b.pos++
	return v
}

func (b *fuzzTreeBuilder) tree(depth int) *Node {
	op := b.next()
	if depth == 0 || b.leaves > 48 || op%3 == 0 {
		b.leaves++
		return NewStrand(fmt.Sprintf("s%d", b.leaves), int64(1+op%7), nil, nil, nil)
	}
	kids := 2 + int(b.next()%3)
	children := make([]*Node, kids)
	for i := range children {
		children[i] = b.tree(depth - 1)
	}
	if op%3 == 1 {
		return NewSeq(children...)
	}
	return NewPar(children...)
}

// FuzzTrackerReset drives fire/reset sequences on the epoch-based
// ConcurrentTracker: a fuzz-built program is executed for several
// generations on ONE tracker (rewound by Reset), with every generation
// checked step-by-step against a freshly-constructed tracker on the same
// graph. Any divergence of the ready cascade or the termination latch
// between "rewound" and "from scratch" fails, and so does a latch that
// reports done anywhere but at the generation's last completion.
func FuzzTrackerReset(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0})
	f.Add([]byte{2, 2, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0, 9, 9, 9, 9})
	f.Add([]byte{1, 0, 2, 0, 1, 0, 2, 254, 253, 3, 17, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &fuzzTreeBuilder{data: data}
		root := b.tree(4)
		p, err := NewProgram(root, RuleSet{})
		if err != nil {
			t.Fatalf("NewProgram: %v", err)
		}
		g, err := Rewrite(p)
		if err != nil {
			t.Fatalf("Rewrite: %v", err)
		}
		eg := g.Exec()
		total := eg.NumStrands()

		// The completion order is chosen from the remaining fuzz bytes,
		// recorded in generation 1 and replayed identically afterwards so
		// generations are comparable pick-for-pick.
		var picks []int
		pick := func(gen, step, n int) int {
			if gen == 1 {
				picks = append(picks, int(b.next()))
			}
			return picks[step] % n
		}

		dut := NewConcurrentTracker(eg)
		for gen := 1; gen <= 3; gen++ {
			ref := NewConcurrentTracker(eg)
			if got, want := dut.Generation(), int32(gen); got != want {
				t.Fatalf("generation = %d, want %d", got, want)
			}
			readyDut := append([]int32(nil), dut.InitialReady()...)
			readyRef := append([]int32(nil), ref.InitialReady()...)
			if !equalIDs(readyDut, readyRef) {
				t.Fatalf("gen %d: initial ready %v, fresh tracker %v", gen, readyDut, readyRef)
			}
			var dNew, dScratch, rNew, rScratch []int32
			step := 0
			for ; len(readyDut) > 0; step++ {
				i := pick(gen, step, len(readyDut))
				id := readyDut[i]
				if readyRef[i] != id {
					t.Fatalf("gen %d step %d: ready lists diverged", gen, step)
				}
				readyDut = append(readyDut[:i], readyDut[i+1:]...)
				readyRef = append(readyRef[:i], readyRef[i+1:]...)

				var dDone, rDone bool
				dNew, dScratch, dDone = dut.Complete(id, dNew[:0], dScratch)
				rNew, rScratch, rDone = ref.Complete(id, rNew[:0], rScratch)
				if !equalIDs(dNew, rNew) {
					t.Fatalf("gen %d step %d: Complete(%d) enabled %v, fresh tracker enabled %v",
						gen, step, id, dNew, rNew)
				}
				if dDone != rDone {
					t.Fatalf("gen %d step %d: done = %v, fresh tracker done = %v", gen, step, dDone, rDone)
				}
				if dDone != (len(readyDut)+len(dNew) == 0) {
					t.Fatalf("gen %d step %d: done = %v with %d strands still ready",
						gen, step, dDone, len(readyDut)+len(dNew))
				}
				readyDut = append(readyDut, dNew...)
				readyRef = append(readyRef, rNew...)
			}
			if step != total || !dut.Done() {
				t.Fatalf("gen %d: completed %d of %d strands, done=%v", gen, step, total, dut.Done())
			}
			dut.Reset()
		}
	})
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTrackerResetPanicsMidRun pins the Reset precondition: rewinding
// before the generation completed must panic rather than corrupt the
// counters.
func TestTrackerResetPanicsMidRun(t *testing.T) {
	root := NewPar(
		NewStrand("a", 1, nil, nil, nil),
		NewStrand("b", 1, nil, nil, nil),
	)
	p, err := NewProgram(root, RuleSet{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	ct := NewConcurrentTracker(g.Exec())
	defer func() {
		if recover() == nil {
			t.Fatal("Reset mid-run did not panic")
		}
	}()
	ct.Reset()
}

// TestTrackerGenerationWrap pins the wrap-around claim of
// ConcurrentTracker's type comment. The stamp and the counters are
// seeded as if the tracker had completed all runs up to two generations
// below the int32 wrap; four generations then run across it, and each
// must hand out the same ready sets as a fresh tracker and end Done.
func TestTrackerGenerationWrap(t *testing.T) {
	weighted := false
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var leaves int
		p, err := NewProgram(randomTree(r, 5, &leaves), randomRules(r))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g, err := Rewrite(p)
		if err != nil {
			continue
		}
		eg := g.Exec()
		w := eg.Wake()
		dut := NewConcurrentTracker(eg)
		dut.gen = math.MaxInt32 - 1
		for c := range dut.cnt {
			dut.cnt[c].Store(-w.need[c] * (dut.gen - 1))
			weighted = weighted || w.need[c] > 1
		}
		for run, gen := range [4]int32{math.MaxInt32 - 1, math.MaxInt32, math.MinInt32, math.MinInt32 + 1} {
			if got := dut.Generation(); got != gen {
				t.Fatalf("seed %d run %d: generation = %d, want %d", seed, run, got, gen)
			}
			ref := NewConcurrentTracker(eg)
			queue := append([]int32(nil), dut.InitialReady()...)
			var dNew, dScratch, rNew, rScratch []int32
			for i := 0; i < len(queue); i++ {
				var dDone, rDone bool
				dNew, dScratch, dDone = dut.Complete(queue[i], dNew[:0], dScratch)
				rNew, rScratch, rDone = ref.Complete(queue[i], rNew[:0], rScratch)
				if !equalIDs(dNew, rNew) || dDone != rDone {
					t.Fatalf("seed %d generation %d: Complete(%d) = %v, %v; fresh tracker %v, %v",
						seed, gen, queue[i], dNew, dDone, rNew, rDone)
				}
				queue = append(queue, dNew...)
			}
			if len(queue) != eg.NumStrands() || !dut.Done() {
				t.Fatalf("seed %d generation %d: completed %d of %d strands, done=%v",
					seed, gen, len(queue), eg.NumStrands(), dut.Done())
			}
			dut.Reset()
		}
	}
	if !weighted {
		t.Fatal("no seed built a counter with need > 1; the wrap is only exercised at weight 1")
	}
}
