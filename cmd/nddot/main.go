// Command nddot emits Graphviz DOT renderings of the paper's algorithms:
// the spawn tree with its DRS dataflow arrows (the paper's Figures 4, 5,
// 6 and 11), the leaf-level algorithm DAG, or the wake graph the
// trackers run.
//
//	nddot -algo TRS -model ND -n 8 -base 4                # spawn tree + arrows
//	nddot -algo LCS -model ND -n 8 -base 2 -view leafdag  # strand-level DAG
//	nddot -algo FW-1D -n 8 -base 4 -view wake             # collapsed wake graph
//	nddot -algo LU -n 16 -base 4 -view prio               # wake graph shaded by depth-to-sink
//
// Algorithms: MM, TRS, Cholesky, LU, FW-1D, LCS. Exit status: 0 on
// success, 1 when the build or rendering fails, 2 on bad flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/experiments"
)

// views maps each -view value to its renderer, in the order the usage
// text lists them.
var views = []struct {
	name   string
	render func(io.Writer, *core.Graph) error
}{
	{"tree", func(w io.Writer, g *core.Graph) error { return core.WriteSpawnTreeDOT(w, g.P, g) }},
	{"leafdag", core.WriteLeafDAGDOT},
	{"wake", core.WriteWakeGraphDOT},
	{"prio", core.WritePriorityDOT},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, renders the requested view to out and returns the
// process exit code.
func run(args []string, out, errw io.Writer) int {
	names := make([]string, len(views))
	for i, v := range views {
		names[i] = v.name
	}
	fs := flag.NewFlagSet("nddot", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		algo  = fs.String("algo", "TRS", "algorithm name (MM, TRS, Cholesky, LU, FW-1D, LCS)")
		model = fs.String("model", "ND", "programming model: NP or ND")
		n     = fs.Int("n", 8, "problem size (power of two)")
		base  = fs.Int("base", 4, "base-case size (power of two)")
		view  = fs.String("view", "tree", "what to render: "+strings.Join(names, "|"))
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	var render func(io.Writer, *core.Graph) error
	for _, v := range views {
		if v.name == *view {
			render = v.render
		}
	}
	if render == nil {
		fmt.Fprintf(errw, "nddot: unknown view %q (valid: %s)\n", *view, strings.Join(names, ", "))
		return 2
	}
	m := algos.ND
	switch *model {
	case "ND", "nd":
	case "NP", "np":
		m = algos.NP
	default:
		fmt.Fprintf(errw, "nddot: unknown model %q\n", *model)
		return 2
	}
	builder, err := experiments.BuilderByName(*algo)
	if err != nil {
		fmt.Fprintln(errw, "nddot:", err)
		return 2
	}
	g, err := builder.Build(m, *n, *base)
	if err == nil {
		err = render(out, g)
	}
	if err != nil {
		fmt.Fprintln(errw, "nddot:", err)
		return 1
	}
	return 0
}
