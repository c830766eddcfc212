package main

import "os"

func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// Figure 3 program: work=4 span=3 (serial would be span=4)
	// executed 4 strands on the goroutine runtime
	//
	// pipeline: 8 true dependencies, all enforced; span=2 vs serial 16
	// buffer: [0 2 8 18 32 50 72 98]
}
