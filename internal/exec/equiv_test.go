package exec

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ndflow/ndflow/internal/core"
)

// randomTree builds a random spawn tree of bounded depth whose fire
// constructs use a single recursive type "F".
func randomTree(r *rand.Rand, depth int) *core.Node {
	if depth == 0 || r.Intn(4) == 0 {
		return core.NewStrand("s", int64(1+r.Intn(9)), nil, nil, nil)
	}
	kids := 2 + r.Intn(2)
	children := make([]*core.Node, kids)
	for i := range children {
		children[i] = randomTree(r, depth-1)
	}
	switch r.Intn(3) {
	case 0:
		return core.NewSeq(children...)
	case 1:
		return core.NewPar(children...)
	default:
		return core.NewFire("F", children[0], core.NewSeq(children[1:]...))
	}
}

func randomRules(r *rand.Rand) core.RuleSet {
	peds := []string{"", "1", "2", "1.1", "1.2", "2.1", "2.2"}
	n := 1 + r.Intn(4)
	rules := make([]core.Rule, 0, n)
	for i := 0; i < n; i++ {
		src := peds[r.Intn(len(peds))]
		dst := peds[r.Intn(len(peds))]
		typ := core.FullDep
		if r.Intn(2) == 0 && !(src == "" && dst == "") {
			typ = "F"
		}
		rules = append(rules, core.R(src, typ, dst))
	}
	rs := core.RuleSet{"F": rules}
	if rs.Validate() != nil {
		return core.RuleSet{"F": {core.R("1", core.FullDep, "1")}}
	}
	return rs
}

// randomGraph returns a random rewritten program, or nil when the random
// rules structurally mismatch the random tree (a legal generation failure).
func randomGraph(t *testing.T, seed int64) *core.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	root := randomTree(r, 3)
	if root.IsLeaf() {
		return nil
	}
	p, err := core.NewProgram(root, randomRules(r))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	g, err := core.Rewrite(p)
	if err != nil {
		return nil
	}
	return g
}

// guaranteedPreds computes, per strand, the bitset of strands whose
// completion is guaranteed to precede its start under every legal
// schedule, by propagating leaf-end reachability through the compiled
// graph in topological order.
func guaranteedPreds(eg *core.ExecGraph) [][]uint64 {
	strands := eg.NumStrands()
	words := (strands + 63) / 64
	sets := make([][]uint64, eg.NumVertices())
	out := make([][]uint64, strands)
	for _, v := range eg.Topo() {
		set := make([]uint64, words)
		for _, u := range eg.Pred(v) {
			for w, x := range sets[u] {
				set[w] |= x
			}
		}
		if s := eg.VertexStrand(v); s >= 0 {
			if eg.IsEnd(v) {
				set[s/64] |= 1 << (uint(s) % 64)
			} else {
				out[s] = set
			}
		}
		sets[v] = set
	}
	return out
}

// instrument gives every strand a closure computing
// val[i] = 1 + max(val[j]) over its guaranteed predecessors j. Any
// executor that respects the DAG produces identical values; an executor
// that runs a strand early reads a stale zero (and trips the race
// detector under -race).
func instrument(eg *core.ExecGraph, val []int64) {
	preds := guaranteedPreds(eg)
	for i := 0; i < eg.NumStrands(); i++ {
		i := i
		eg.Strand(int32(i)).Run = func() {
			var d int64
			for w, x := range preds[i] {
				for ; x != 0; x &= x - 1 {
					j := w*64 + bitIndex(x)
					if val[j] > d {
						d = val[j]
					}
				}
			}
			val[i] = d + 1
		}
	}
}

func bitIndex(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// TestRuntimeEquivalence runs random ND programs through the serial
// elision, random topological orders and the lock-free work stealer,
// asserting identical strand effects everywhere.
func TestRuntimeEquivalence(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		g := randomGraph(t, seed)
		if g == nil {
			continue
		}
		eg := g.Exec()
		n := eg.NumStrands()
		val := make([]int64, n)
		instrument(eg, val)

		runners := map[string]func() error{
			"elision":     func() error { return RunElision(g) },
			"random-topo": func() error { return RunRandomTopo(g, seed*7+1) },
			"reverse":     func() error { return RunReverseGreedy(g) },
			"lockfree-1":  func() error { return RunParallel(g, 1) },
			"lockfree-4":  func() error { return RunParallel(g, 4) },
			"lockfree-16": func() error { return RunParallel(g, 16) },
		}

		var want []int64
		if err := RunElision(g); err != nil {
			t.Fatalf("seed %d: elision: %v", seed, err)
		}
		want = append(want, val...)

		for name, run := range runners {
			for i := range val {
				val[i] = 0
			}
			if err := run(); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, name, err)
			}
			for i := range val {
				if val[i] != want[i] {
					t.Fatalf("seed %d: %s: strand %d effect = %d, want %d (dependency violated)",
						seed, name, i, val[i], want[i])
				}
			}
		}
	}
}

// TestExecGraphMatchesGraph cross-checks the compiled form against the
// Graph-level views on random programs: identical arrow sets (sorted,
// deduplicated, present as CSR dataflow edges), pred/succ symmetry, and a
// span recomputed independently from the predecessor CSR.
func TestExecGraphMatchesGraph(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		g := randomGraph(t, seed)
		if g == nil {
			continue
		}
		eg := g.Exec()

		// Arrow set: strictly sorted (so deduplicated), and every arrow is
		// a CSR edge end(From) → start(To) in both directions.
		arrows := g.SortedArrows()
		for i, a := range arrows {
			if i > 0 {
				prev := arrows[i-1]
				if prev.From.ID > a.From.ID || (prev.From.ID == a.From.ID && prev.To.ID >= a.To.ID) {
					t.Fatalf("seed %d: arrows not strictly sorted at %d", seed, i)
				}
			}
			if !containsVertex(eg.Succ(core.EndVertex(a.From)), core.StartVertex(a.To)) {
				t.Fatalf("seed %d: arrow %v missing from succ CSR", seed, a)
			}
			if !containsVertex(eg.Pred(core.StartVertex(a.To)), core.EndVertex(a.From)) {
				t.Fatalf("seed %d: arrow %v missing from pred CSR", seed, a)
			}
		}

		// Succ/pred symmetry and topo validity over the whole CSR.
		pos := make([]int, eg.NumVertices())
		for i, v := range eg.Topo() {
			pos[v] = i
		}
		var edges int
		indeg := eg.InitIndegrees(nil)
		for v := int32(0); v < int32(eg.NumVertices()); v++ {
			for _, w := range eg.Succ(v) {
				edges++
				if !containsVertex(eg.Pred(w), v) {
					t.Fatalf("seed %d: edge %d→%d has no pred mirror", seed, v, w)
				}
				if pos[v] >= pos[w] {
					t.Fatalf("seed %d: topo order violates edge %d→%d", seed, v, w)
				}
			}
			if int(indeg[v]) != len(eg.Pred(v)) {
				t.Fatalf("seed %d: indeg0(%d) = %d, want %d", seed, v, indeg[v], len(eg.Pred(v)))
			}
		}

		// Independent span: longest path by backwards DP over pred lists.
		dist := make([]int64, eg.NumVertices())
		for _, v := range eg.Topo() {
			var d int64
			for _, u := range eg.Pred(v) {
				if x := dist[u] + eg.EdgeWeight(u, v); x > d {
					d = x
				}
			}
			dist[v] = d
		}
		if want := dist[core.EndVertex(g.P.Root)]; g.Span() != want {
			t.Fatalf("seed %d: Span = %d, independent recomputation = %d", seed, g.Span(), want)
		}
	}
}

func containsVertex(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestWSDequeStress hammers one deque with an owner and several thieves,
// checking that every pushed item is consumed exactly once.
func TestWSDequeStress(t *testing.T) {
	const items = 20000
	const thieves = 4
	d := newWSDeque(8)
	var got [items]atomic.Int32
	var wg sync.WaitGroup
	var stop atomic.Bool

	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if v, ok, _ := d.steal(); ok {
					got[v].Add(1)
				}
			}
			for {
				v, ok, retry := d.steal()
				if ok {
					got[v].Add(1)
				} else if !retry {
					return
				}
			}
		}()
	}

	for i := 0; i < items; i++ {
		d.push(int64(i))
		if i%3 == 0 {
			if v, ok := d.pop(); ok {
				got[v].Add(1)
			}
		}
	}
	for {
		v, ok := d.pop()
		if !ok {
			break
		}
		got[v].Add(1)
	}
	stop.Store(true)
	wg.Wait()

	for i := range got {
		if n := got[i].Load(); n != 1 {
			t.Fatalf("item %d consumed %d times", i, n)
		}
	}
}
