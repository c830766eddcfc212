// Command ndbench regenerates the paper's quantitative artifacts as
// printed tables. Each experiment ID corresponds to a claim, theorem or
// figure of the paper (see DESIGN.md's experiment index):
//
//	ndbench                  # run every experiment at full size
//	ndbench -quick           # smaller sizes (seconds, CI friendly)
//	ndbench -experiment E4   # a single experiment
//
// An unknown -experiment ID exits 1 and lists the valid IDs.
// The runtime itself is measured by the repository benchmark in bench/
// (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/ndflow/ndflow/internal/experiments"
)

func main() {
	var (
		id    = flag.String("experiment", "", "experiment ID to run (default: all)")
		quick = flag.Bool("quick", false, "use reduced problem sizes")
	)
	flag.Parse()

	cfg := experiments.Config{Quick: *quick}
	if *id == "" {
		// The full sweep streams each table as it finishes — full-size
		// experiments take minutes, so don't buffer them.
		if err := experiments.RunAll(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ndbench:", err)
			os.Exit(1)
		}
		return
	}
	table, err := experiments.Run(*id, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndbench: %s: %v\n", *id, err)
		os.Exit(1)
	}
	table.Fprint(os.Stdout)
}
