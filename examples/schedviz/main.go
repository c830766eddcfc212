// The schedviz example simulates the paper's two scheduler families on
// the same Parallel Memory Hierarchy and prints their locality and
// load-balance profiles, reproducing in miniature the comparison that
// motivates §4: the space-bounded scheduler preserves locality at shared
// cache levels where work stealing scatters the working set. The WS rows
// are the execution engine's own scheduler (exec.SimScheduler) run in
// virtual time, one goroutine-less worker per simulated processor.
//
// Run with: go run ./examples/schedviz [-algo TRS] [-n 64]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/experiments"
	"github.com/ndflow/ndflow/internal/metrics"
	"github.com/ndflow/ndflow/internal/pmh"
	"github.com/ndflow/ndflow/internal/sched/spacebound"
	"github.com/ndflow/ndflow/internal/sim"
)

func main() {
	var (
		algo = flag.String("algo", "TRS", "algorithm (MM, TRS, Cholesky, LU, FW-1D, LCS)")
		n    = flag.Int("n", 64, "problem size")
		base = flag.Int("base", 4, "base-case size")
	)
	flag.Parse()
	if err := run(os.Stdout, *algo, *n, *base); err != nil {
		fmt.Fprintln(os.Stderr, "schedviz:", err)
		os.Exit(1)
	}
}

// run simulates both schedulers on algo's NP and ND programs of size n
// and prints one row per (model, scheduler) pair to out.
func run(out io.Writer, algo string, n, base int) error {
	spec := pmh.Spec{
		ProcsPerL1: 1,
		Caches: []pmh.CacheSpec{
			{Size: 128, Fanout: 2, MissCost: 1},
			{Size: 1024, Fanout: 2, MissCost: 10},
			{Size: 8192, Fanout: 2, MissCost: 100},
		},
		MemMissCost: 1000,
	}
	builder, err := experiments.BuilderByName(algo)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "machine: %d processors, caches", spec.Processors())
	for i, c := range spec.Caches {
		fmt.Fprintf(out, "  L%d=%dw×%d", i+1, c.Size, spec.CacheCount(i))
	}
	fmt.Fprintln(out)

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "model\tscheduler\tmakespan\tutil\tL1 miss\tL2 miss\tL3 miss\tQ*(σM3) bound\tanchors")
	for _, model := range []algos.Model{algos.NP, algos.ND} {
		for _, policy := range []string{"WS", "SB"} {
			g, err := builder.Build(model, n, base)
			if err != nil {
				return err
			}
			machine, err := pmh.New(spec)
			if err != nil {
				return err
			}
			var sched sim.Scheduler
			var sb *spacebound.Scheduler
			if policy == "WS" {
				sched = exec.NewSimScheduler()
			} else {
				sb = spacebound.New(spacebound.Config{})
				sched = sb
			}
			res, err := sim.Run(g, machine, sched)
			if err != nil {
				return err
			}
			bound := metrics.PCC(g.P, int64(float64(spec.Caches[2].Size)/3))
			anchors := "-"
			if sb != nil {
				anchors = fmt.Sprint(sb.Stats.Anchors)
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%.2f\t%d\t%d\t%d\t%d\t%s\n",
				model, policy, res.Makespan, res.Utilization(),
				res.Misses[0], res.Misses[1], res.Misses[2], bound, anchors)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "\nTheorem 1 predicts SB's L3 misses stay below the Q*(σM3) bound;")
	fmt.Fprintln(out, "Theorem 3 predicts the ND model's makespan beats NP's as processors grow.")
	return nil
}
