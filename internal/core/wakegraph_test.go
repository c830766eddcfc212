package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// eventOracle is the retired event-graph readiness cascade, kept verbatim
// as the test oracle for the wake-graph collapse: indegree countdown over
// all 2·|Nodes| event vertices with strand-start gates, exactly as the
// trackers worked before the strand-level wake graph replaced them.
type eventOracle struct {
	eg    *ExecGraph
	indeg []int32
	fired []bool
	ready []int32
}

func newEventOracle(eg *ExecGraph) *eventOracle {
	n := eg.NumVertices()
	t := &eventOracle{eg: eg, indeg: eg.InitIndegrees(nil), fired: make([]bool, n)}
	var zeros []int32
	for v := 0; v < n; v++ {
		if t.indeg[v] == 0 {
			zeros = append(zeros, int32(v))
		}
	}
	for _, v := range zeros {
		t.enable(v)
	}
	return t
}

func (t *eventOracle) enable(v int32) {
	if s := t.eg.VertexStrand(v); s >= 0 && !t.eg.IsEnd(v) {
		t.ready = append(t.ready, s)
		return
	}
	t.fire(v)
}

func (t *eventOracle) fire(v int32) {
	if t.fired[v] {
		return
	}
	t.fired[v] = true
	for _, w := range t.eg.Succ(v) {
		t.indeg[w]--
		if t.indeg[w] == 0 {
			t.enable(w)
		}
	}
}

func (t *eventOracle) complete(id int32) { t.fire(t.eg.StrandStart(id)) }

func (t *eventOracle) take() []int32 {
	r := append([]int32(nil), t.ready...)
	t.ready = t.ready[:0]
	return r
}

func sortedSet(ids []int32) []int32 {
	s := append([]int32(nil), ids...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// TestQuickWakeGraphMatchesEventGraph is the collapse-correctness
// property: for random programs and rule sets, executed in random
// completion orders, the wake graph enables exactly the same ready sets —
// step for step — as the event-graph oracle, through the ConcurrentTracker
// cascade and through the Tracker view's legality checks and ready
// collection over it, for both the contracted and the uncontracted
// fallback wake graph. Runs under -race in CI.
func TestQuickWakeGraphMatchesEventGraph(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var leaves int
		root := randomTree(r, 4, &leaves)
		if root.IsLeaf() {
			return true
		}
		p, err := NewProgram(root, randomRules(r))
		if err != nil {
			return false
		}
		g, err := Rewrite(p)
		if err != nil {
			return true // shape-mismatch rule sets are legal generation failures
		}
		eg := g.Exec()
		oracle := newEventOracle(eg)
		tr := NewExecTracker(eg)
		ct := NewConcurrentTracker(eg)
		// The uncontracted fallback form (every relay an explicit counter,
		// used when contracted weights would overflow int32) must agree too.
		flat := buildWakeGraph(eg, false)
		if flat == nil {
			return false
		}
		ftr := newWakeTracker(flat)

		pool := oracle.take()
		if !equalIDs(sortedSet(pool), sortedSet(tr.TakeReadyIDs(nil))) {
			return false
		}
		if !equalIDs(sortedSet(pool), sortedSet(ct.InitialReady())) {
			return false
		}
		if !equalIDs(sortedSet(pool), sortedSet(ftr.TakeReadyIDs(nil))) {
			return false
		}

		var ctReady, ctScratch []int32
		for len(pool) > 0 {
			i := r.Intn(len(pool))
			id := pool[i]
			pool[i] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]

			oracle.complete(id)
			if err := tr.CompleteID(id); err != nil {
				return false
			}
			if err := ftr.CompleteID(id); err != nil {
				return false
			}
			var done bool
			ctReady, ctScratch, done = ct.Complete(id, ctReady[:0], ctScratch)

			want := sortedSet(oracle.take())
			if !equalIDs(want, sortedSet(tr.TakeReadyIDs(nil))) {
				return false
			}
			if !equalIDs(want, sortedSet(ctReady)) {
				return false
			}
			if !equalIDs(want, sortedSet(ftr.TakeReadyIDs(nil))) {
				return false
			}
			pool = append(pool, want...)
			if done != (len(pool) == 0) {
				return false // the latch fired before, or not at, the last completion
			}
		}
		return tr.Done() && ct.Done() && ftr.Done() && tr.Executed() == len(p.Leaves)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWakeGraphInvariants pins structural properties of the collapse on
// random programs: counter count never exceeds the event graph's vertex
// count, wake edges never exceed the event cascade's per-run decrements
// (contraction may never grow the edge count), every counter's need is
// the sum of incoming edge weights, and wake lists only name valid
// counters.
func TestWakeGraphInvariants(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		var leaves int
		root := randomTree(r, 4, &leaves)
		if root.IsLeaf() {
			continue
		}
		p, err := NewProgram(root, randomRules(r))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g, err := Rewrite(p)
		if err != nil {
			continue
		}
		eg := g.Exec()
		w := eg.Wake()
		if w.NumStrands() != eg.NumStrands() {
			t.Fatalf("seed %d: %d strands, exec graph has %d", seed, w.NumStrands(), eg.NumStrands())
		}
		if w.NumCounters() > eg.NumVertices() {
			t.Fatalf("seed %d: %d counters exceed %d event vertices", seed, w.NumCounters(), eg.NumVertices())
		}
		if int64(w.NumWakeEdges()) > w.EventDecrements() {
			t.Fatalf("seed %d: collapse grew the edge count: %d wake edges, %d event decrements",
				seed, w.NumWakeEdges(), w.EventDecrements())
		}
		need := make([]int32, w.NumCounters())
		for row := int32(0); row < int32(w.NumCounters()); row++ {
			targets, weights := w.Row(row)
			if len(targets) != len(weights) {
				t.Fatalf("seed %d: row %d has %d targets, %d weights", seed, row, len(targets), len(weights))
			}
			for k, c := range targets {
				if c < 0 || int(c) >= w.NumCounters() {
					t.Fatalf("seed %d: row %d names counter %d of %d", seed, row, c, w.NumCounters())
				}
				if weights[k] <= 0 {
					t.Fatalf("seed %d: row %d edge %d has weight %d", seed, row, k, weights[k])
				}
				need[c] += weights[k]
			}
		}
		for c := range need {
			if need[c] != w.Need(int32(c)) {
				t.Fatalf("seed %d: counter %d need = %d, incoming weight = %d", seed, c, w.Need(int32(c)), need[c])
			}
		}
		for _, s := range w.InitialReady() {
			if w.Need(s) != 0 {
				t.Fatalf("seed %d: initially-ready strand %d has need %d", seed, s, w.Need(s))
			}
		}
	}
}

// checkSinkLatch checks the premise of ConcurrentTracker's sink latch on
// one wake graph: no relay row is empty, NumSinks counts the empty strand
// rows, and every strand reaches a sink through wake edges. Without it
// the last sink could complete while another strand has yet to run.
func checkSinkLatch(w *WakeGraph) error {
	nStrands, n := int32(w.NumStrands()), int32(w.NumCounters())
	// Rows and counters share one index space, so the reversed wake edges
	// lead from a counter back to the rows that decrement it.
	preds := make([][]int32, n)
	reaches := make([]bool, n)
	var stack []int32
	for row := int32(0); row < n; row++ {
		targets, _ := w.Row(row)
		if len(targets) == 0 {
			if row >= nStrands {
				return fmt.Errorf("relay row %d is empty", row)
			}
			reaches[row] = true
			stack = append(stack, row)
		}
		for _, c := range targets {
			preds[c] = append(preds[c], row)
		}
	}
	if len(stack) != w.NumSinks() {
		return fmt.Errorf("%d strand rows are empty, NumSinks = %d", len(stack), w.NumSinks())
	}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[c] {
			if !reaches[p] {
				reaches[p] = true
				stack = append(stack, p)
			}
		}
	}
	for s := int32(0); s < nStrands; s++ {
		if !reaches[s] {
			return fmt.Errorf("strand %d reaches no sink", s)
		}
	}
	return nil
}

// TestQuickSinkLatchPremise runs checkSinkLatch over random programs and
// rule sets, on the contracted wake graph and on the uncontracted
// fallback. The difftest builders get the same check in package core_test.
func TestQuickSinkLatchPremise(t *testing.T) {
	var failure error
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var leaves int
		root := randomTree(r, 4, &leaves)
		if root.IsLeaf() {
			return true
		}
		p, err := NewProgram(root, randomRules(r))
		if err != nil {
			failure = err
			return false
		}
		g, err := Rewrite(p)
		if err != nil {
			return true // shape-mismatch rule sets are legal generation failures
		}
		if failure = checkSinkLatch(g.Exec().Wake()); failure != nil {
			return false
		}
		if failure = checkSinkLatch(buildWakeGraph(g.Exec(), false)); failure != nil {
			failure = fmt.Errorf("uncontracted: %w", failure)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("%v: %v", err, failure)
	}
}

// TestWakeConcurrentTrackerRaced drives one ConcurrentTracker from
// several goroutines over a shared work channel, so -race observes real
// interleavings of the wake cascade (CI runs this package under -race).
// Multiple generations on one tracker exercise the O(1) reset under
// concurrency too.
func TestWakeConcurrentTrackerRaced(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var leaves int
		root := randomTree(r, 5, &leaves)
		if root.IsLeaf() {
			continue
		}
		p, err := NewProgram(root, randomRules(r))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g, err := Rewrite(p)
		if err != nil {
			continue
		}
		eg := g.Exec()
		ct := NewConcurrentTracker(eg)
		total := eg.NumStrands()
		for gen := 1; gen <= 3; gen++ {
			work := make(chan int32, total)
			for _, id := range ct.InitialReady() {
				work <- id
			}
			var wg sync.WaitGroup
			var completed atomic.Int64
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var ready, scratch []int32
					for id := range work {
						var done bool
						ready, scratch, done = ct.Complete(id, ready[:0], scratch)
						completed.Add(1)
						for _, e := range ready {
							work <- e
						}
						if done {
							close(work)
						}
					}
				}()
			}
			wg.Wait()
			if !ct.Done() || completed.Load() != int64(total) {
				t.Fatalf("seed %d gen %d: completed %d of %d strands, done=%v",
					seed, gen, completed.Load(), total, ct.Done())
			}
			ct.Reset()
		}
	}
}

// TestCSRBounds pins the int32 overflow guard: programs whose vertex or
// edge counts exceed the int32 CSR layout must be rejected with an error
// instead of silently corrupting adjacency.
func TestCSRBounds(t *testing.T) {
	if err := checkCSRBounds(1<<20, 1<<24); err != nil {
		t.Fatalf("in-range program rejected: %v", err)
	}
	if err := checkCSRBounds(1<<31, 10); err == nil {
		t.Fatal("2^31 nodes accepted; start/end vertex IDs would overflow int32")
	}
	if err := checkCSRBounds(10, 1<<31); err == nil {
		t.Fatal("2^31 edges accepted; CSR offsets would overflow int32")
	}

	// countEventEdges must agree with the edges the CSR actually stores.
	root := NewSeq(NewPar(strand("a", 1), strand("b", 1)), strand("c", 1))
	p, err := NewProgram(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	eg := g.Exec()
	var stored int64
	for v := int32(0); v < int32(eg.NumVertices()); v++ {
		stored += int64(len(eg.Succ(v)))
	}
	if want := countEventEdges(p, len(g.SortedArrows())); stored != want {
		t.Fatalf("CSR stores %d edges, countEventEdges = %d", stored, want)
	}
}
