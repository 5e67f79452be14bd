// Command perfbench is creditp2p's end-to-end benchmark: each workload
// runs from graph generation to its report through the public entry
// points, every call timed from outside, and its outputs checked.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run starts repetitions, each in a fresh process, until --seconds have
// passed, and prints the end-to-end medians (--trace 0) or one traced
// repetition's per-layer figures (--trace 1). The last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics. run.sh in this directory builds the binary and runs it; see
// README.md for the workloads and what each metric measures.
package main

import "os"

func main() {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(driverMain(os.Args[1:]))
}
