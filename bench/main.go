// Command bench is the repository's benchmark: four workloads that each
// stress a different layer of the engine, measured from outside through
// the layers' public functions, under a noise protocol that repeats on a
// small shared box. README.md in this directory is the specification;
// BENCHMARK.json at the repository root is the contract it is run under.
//
// Run it from the repository root:
//
//	bash bench/run.sh                        # all workloads, both passes
//	bash bench/run.sh --workload serve-mix --seed 7 --seconds 24 --trace 0
//	bash bench/run.sh -repeat 16             # the repeatability check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// The trace flag's values.
const (
	passEndToEnd = 0 // untraced: the end-to-end metrics
	passLayers   = 1 // traced: the per-layer metrics
	passBoth     = 2
)

func main() {
	var c config
	workload := flag.String("workload", "", "one of "+fmt.Sprint(workloadNames)+"; empty runs all four")
	flag.Int64Var(&c.seed, "seed", 1, "seed of every generated input and of serve-mix's op order")
	flag.Float64Var(&c.seconds, "seconds", 30, "measuring budget of one pass over one workload")
	pass := flag.Int("trace", passBoth, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass; 2: both")
	flag.BoolVar(&c.short, "short", false, "test scale: 2 windows of 50 ms per lane, 2 set-up samples")
	flag.BoolVar(&c.verbose, "v", false, "print every window and set-up sample of the end-to-end pass to standard error")
	flag.StringVar(&c.outDir, "out", "bench/out", "directory the traced pass writes trace-<workload>.json to")
	repeat := flag.Int("repeat", 0, "run the end-to-end pass N times per workload in fresh processes, alternately into two sets, and compare the sets")
	flag.Parse()

	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(os.Stdout, names, c, *repeat))
	}
	if err := run(os.Stdout, names, c, *pass); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output: the contract's JSON object.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures the named workloads and prints every metric by name with
// its unit, then the JSON result. With several workloads the JSON
// metric names carry the workload as a prefix.
func run(out io.Writer, names []string, c config, pass int) error {
	// The load shape: W engine workers, GOMAXPROCS pinned to W, and the
	// collector paused for the whole process — every window and set-up
	// sample starts from an explicit runtime.GC() instead (protocol
	// step 1).
	runtime.GOMAXPROCS(workers())
	debug.SetGCPercent(-1)

	res := result{Correct: true, Metrics: map[string]jsonValue{}}
	for _, name := range names {
		c.workload = name
		prefix := ""
		if len(names) > 1 {
			prefix = name + "/"
		}
		type measured struct {
			measure func(config) (*outcome, error)
			list    []metric
		}
		var passes []measured
		if pass != passLayers {
			passes = append(passes, measured{measureEndToEnd, endToEnd})
		}
		if pass != passEndToEnd {
			passes = append(passes, measured{measureLayers, perLayer})
		}
		for _, p := range passes {
			o, err := p.measure(c)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Fprintf(out, "# %s seed=%d  %s\n", name, c.seed, o.note)
			for _, m := range p.list {
				v, ok := o.values[m.name]
				if !ok {
					return fmt.Errorf("%s: metric %s was not measured", name, m.name)
				}
				fmt.Fprintf(out, "%-14s %-32s %14.6g %s\n", name, m.name, v, m.unit)
				res.Metrics[prefix+m.name] = jsonValue{v, m.unit}
			}
			res.Attempted += o.attempted
			res.Failed += o.failed
			if o.failed > 0 {
				res.Correct = false
				kinds := make([]string, 0, len(o.byType))
				for k, n := range o.byType {
					kinds = append(kinds, fmt.Sprintf("%s×%d", k, n))
				}
				sort.Strings(kinds)
				fmt.Fprintf(out, "# %s: %d of %d ops FAILED: %v\n", name, o.failed, o.attempted, kinds)
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
