package main

import "os"

func Example() {
	if err := run(os.Stdout, "TRS", 32, 4); err != nil {
		panic(err)
	}
	// Output:
	// machine: 8 processors, caches  L1=128w×8  L2=1024w×4  L3=8192w×2
	// model  scheduler  makespan  util  L1 miss  L2 miss  L3 miss  Q*(σM3) bound  anchors
	// NP     WS         558464    0.81  10224    5840     3200     1600           -
	// NP     SB         961056    0.24  8016     2048     1600     1600           116
	// ND     WS         308448    1.00  7936     3328     2176     1600           -
	// ND     SB         985552    0.23  7968     2336     1600     1600           102
	//
	// Theorem 1 predicts SB's L3 misses stay below the Q*(σM3) bound;
	// Theorem 3 predicts the ND model's makespan beats NP's as processors grow.
}
