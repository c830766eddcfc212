// Determinism of the discrete-event engine: the experiment harness and
// the golden tables depend on sim.Run being a pure function of (graph,
// machine spec, scheduler). This lives in an external test package
// so it can use the real schedulers (which import sim).
package sim_test

import (
	"reflect"
	"testing"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/fw"
	"github.com/ndflow/ndflow/internal/algos/trs"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/matrix"
	"github.com/ndflow/ndflow/internal/pmh"
	"github.com/ndflow/ndflow/internal/sched/spacebound"
	"github.com/ndflow/ndflow/internal/sim"
	"math/rand"
)

func simGraph(t *testing.T, name string) *core.Graph {
	t.Helper()
	var prog *core.Program
	var err error
	switch name {
	case "FW-1D":
		inst := fw.NewInstance(matrix.NewSpace(), 32, 9)
		prog, err = fw.New(algos.ND, inst, 4)
	case "TRS":
		r := rand.New(rand.NewSource(8))
		s := matrix.NewSpace()
		tm := matrix.New(s, 32, 32)
		tm.FillLowerTriangular(r)
		b := matrix.New(s, 32, 32)
		b.FillRandom(r)
		prog, err = trs.New(algos.ND, tm, b, 4)
	default:
		t.Fatalf("unknown graph %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Rewrite(prog)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func simSpec() pmh.Spec {
	return pmh.Spec{
		ProcsPerL1: 1,
		Caches: []pmh.CacheSpec{
			{Size: 128, Fanout: 2, MissCost: 1},
			{Size: 1024, Fanout: 2, MissCost: 10},
			{Size: 4096, Fanout: 2, MissCost: 100},
		},
		MemMissCost: 1000,
	}
}

// TestSimDeterministic runs the same graph under both schedulers (the
// engine's ready structure in virtual time, and space-bounded), several
// times each, and requires every Result —
// makespan, misses per level, busy time per processor, access counts —
// to be identical across repetitions.
func TestSimDeterministic(t *testing.T) {
	for _, name := range []string{"FW-1D", "TRS"} {
		for _, policy := range []string{"engine", "spacebound"} {
			t.Run(name+"/"+policy, func(t *testing.T) {
				var first *sim.Result
				for rep := 0; rep < 3; rep++ {
					g := simGraph(t, name)
					m, err := pmh.New(simSpec())
					if err != nil {
						t.Fatal(err)
					}
					var sched sim.Scheduler
					if policy == "engine" {
						sched = exec.NewSimScheduler()
					} else {
						sched = spacebound.New(spacebound.Config{})
					}
					res, err := sim.Run(g, m, sched)
					if err != nil {
						t.Fatal(err)
					}
					if first == nil {
						first = res
						continue
					}
					if !reflect.DeepEqual(first, res) {
						t.Fatalf("repetition %d produced a different Result:\nfirst: %+v\n  got: %+v", rep, first, res)
					}
				}
			})
		}
	}
}
