// The quickstart example builds a small Nested Dataflow program with the
// public API: the paper's running example (Figure 3) plus a custom
// recursive fire construct, then analyzes and executes it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"

	ndflow "github.com/ndflow/ndflow"
)

func run(w io.Writer) error {
	// ---- Part 1: the paper's Figure 3 ------------------------------
	// MAIN() { F() FG~> G() }, F = A ; B, G = C ; D, and the fire rule
	// +FG~>- = { +1 ; -1 }: only C depends on A, so D can overlap B.
	var executed atomic.Int64
	step := func(name string) *ndflow.Node {
		return ndflow.Strand(name, 1, nil, nil, func() {
			executed.Add(1)
		})
	}
	fig3 := ndflow.Fire("FG",
		ndflow.Seq(step("A"), step("B")),
		ndflow.Seq(step("C"), step("D")),
	)
	rules := ndflow.RuleSet{
		"FG": {ndflow.R("1", ndflow.FullDep, "1")},
	}
	prog, err := ndflow.NewProgram(fig3, rules)
	if err != nil {
		return err
	}
	g, err := ndflow.Rewrite(prog)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 3 program: work=%d span=%d (serial would be span=4)\n",
		ndflow.Work(prog), ndflow.Span(g))
	if err := ndflow.Run(g, 2); err != nil {
		return err
	}
	fmt.Fprintf(w, "executed %d strands on the goroutine runtime\n\n", executed.Load())

	// ---- Part 2: a custom recursive fire construct ------------------
	// A pipeline of stages over a chunked buffer: stage two may process
	// chunk i as soon as stage one finished chunk i (a partial
	// dependency the NP model cannot express without losing parallelism).
	const chunks = 8
	buffer := make([]int64, chunks)
	stage := func(name string, f func(i int)) *ndflow.Node {
		nodes := make([]*ndflow.Node, chunks)
		for i := 0; i < chunks; i++ {
			i := i
			nodes[i] = ndflow.Strand(
				fmt.Sprintf("%s%d", name, i), 1,
				ndflow.Words(int64(i), int64(i+1)),
				ndflow.Words(int64(i), int64(i+1)),
				func() { f(i) },
			)
		}
		return ndflow.Par(nodes...)
	}
	produce := stage("produce", func(i int) { buffer[i] = int64(i * i) })
	double := stage("double", func(i int) { buffer[i] *= 2 })
	pipeline := ndflow.Fire("CHUNK", produce, double)

	// One fire rule per chunk position pairs producer chunk i with
	// consumer chunk i; rule tables are data, so they can be generated.
	chunkRules := make([]ndflow.Rule, 0, chunks)
	for i := 1; i <= chunks; i++ {
		chunkRules = append(chunkRules, ndflow.R(fmt.Sprint(i), ndflow.FullDep, fmt.Sprint(i)))
	}
	prog2, err := ndflow.NewProgram(pipeline, ndflow.RuleSet{"CHUNK": chunkRules})
	if err != nil {
		return err
	}
	g2, err := ndflow.Rewrite(prog2)
	if err != nil {
		return err
	}
	// Prove the fire rules enforce every chunk's read-after-write.
	checked, err := ndflow.CheckDependencies(g2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pipeline: %d true dependencies, all enforced; span=%d vs serial %d\n",
		checked, ndflow.Span(g2), ndflow.Work(prog2))
	if err := ndflow.Run(g2, 4); err != nil {
		return err
	}
	fmt.Fprintln(w, "buffer:", buffer)
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}
