package exec

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/footprint"
)

// chainProgram builds a program of n strands, each appending its index to
// a shared log under the protection of the DAG's ordering.
func chainProgram(t testing.TB, n int, par bool) (*core.Graph, *[]int) {
	t.Helper()
	log := &[]int{}
	nodes := make([]*core.Node, n)
	for i := 0; i < n; i++ {
		i := i
		var reads, writes footprint.Set
		if !par {
			// Serialize through a shared word so the deps are real.
			writes = footprint.Single(0, 1)
		}
		nodes[i] = core.NewStrand("s", 1, reads, writes, func() {
			*log = append(*log, i)
		})
	}
	var root *core.Node
	if par {
		root = core.NewPar(nodes...)
	} else {
		root = core.NewSeq(nodes...)
	}
	p, err := core.NewProgram(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	return g, log
}

func TestRunElisionOrder(t *testing.T) {
	g, log := chainProgram(t, 10, false)
	if err := RunElision(g); err != nil {
		t.Fatal(err)
	}
	for i, v := range *log {
		if v != i {
			t.Fatalf("elision order %v", *log)
		}
	}
}

func TestRunReverseGreedyRespectsChain(t *testing.T) {
	g, log := chainProgram(t, 10, false)
	if err := RunReverseGreedy(g); err != nil {
		t.Fatal(err)
	}
	// A Seq chain admits exactly one order.
	for i, v := range *log {
		if v != i {
			t.Fatalf("chain order violated: %v", *log)
		}
	}
}

func TestRunReverseGreedyParallelIsReversed(t *testing.T) {
	g, log := chainProgram(t, 10, true)
	if err := RunReverseGreedy(g); err != nil {
		t.Fatal(err)
	}
	for i, v := range *log {
		if v != 9-i {
			t.Fatalf("reverse-greedy order = %v, want descending", *log)
		}
	}
}

func TestRunRandomTopoAllOrdersLegal(t *testing.T) {
	f := func(seed int64) bool {
		g, log := chainProgram(t, 8, false)
		if err := RunRandomTopo(g, seed); err != nil {
			return false
		}
		for i, v := range *log {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelExecutesAll(t *testing.T) {
	var count atomic.Int64
	n := 200
	nodes := make([]*core.Node, n)
	for i := range nodes {
		nodes[i] = core.NewStrand("s", 1, nil, nil, func() { count.Add(1) })
	}
	p, err := core.NewProgram(core.NewPar(nodes...), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunParallel(g, 8); err != nil {
		t.Fatal(err)
	}
	if count.Load() != int64(n) {
		t.Fatalf("executed %d of %d strands", count.Load(), n)
	}
}

func TestRunParallelDefaultWorkers(t *testing.T) {
	// Independent strands must be thread-safe: use an atomic counter.
	var count atomic.Int64
	nodes := make([]*core.Node, 4)
	for i := range nodes {
		nodes[i] = core.NewStrand("s", 1, nil, nil, func() { count.Add(1) })
	}
	p, err := core.NewProgram(core.NewPar(nodes...), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunParallel(g, 0); err != nil {
		t.Fatal(err)
	}
	if got := count.Load(); got != 4 {
		t.Fatalf("executed %d strands, want 4", got)
	}
}

func TestRunnersHandleNilClosures(t *testing.T) {
	a := core.NewStrand("a", 1, nil, nil, nil)
	b := core.NewStrand("b", 1, nil, nil, nil)
	p, err := core.NewProgram(core.NewSeq(a, b), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(*core.Graph) error{
		RunElision,
		RunReverseGreedy,
		func(g *core.Graph) error { return RunRandomTopo(g, 1) },
		func(g *core.Graph) error { return RunParallel(g, 2) },
	} {
		g2 := g
		if err := run(g2); err != nil {
			t.Fatal(err)
		}
		// Rebuild: trackers are single-use per graph? They are created
		// inside each runner, so reuse is fine; rebuild anyway for
		// isolation.
		p, _ = core.NewProgram(core.NewSeq(core.NewStrand("a", 1, nil, nil, nil), core.NewStrand("b", 1, nil, nil, nil)), nil)
		g, _ = core.Rewrite(p)
	}
}
