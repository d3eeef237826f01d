// Stragglers: demonstrates the runtime side of the paper's analysis
// (Sec 3.1-3.2) on a cluster with exponentially distributed compute times —
// the straggler regime. Periodic averaging both amortizes the broadcast
// delay over tau iterations AND smooths the straggler tail, because the
// per-round time is the max of per-worker *averages* instead of the max of
// single draws.
//
// The first table is the paper's Fig 5 (`go run ./cmd/figures -fig 5`), the
// second the delay row of the ablation registry at full size (`go run
// ./cmd/sweep -ablation delay`); both print here without change.
//
//	go run ./examples/stragglers
package main

import (
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	experiments.PrintFig5(os.Stdout, experiments.Fig5Bytes(200000, 1, 0, 0))
	fmt.Println()
	fmt.Println("sync SGD waits for the slowest of 16 exponential draws every")
	fmt.Println("iteration: its mean is y*H_16 + D = 4.381 in closed form (Sec 3.2).")
	fmt.Println("PASGD(tau=10) waits for the slowest of 16 ten-draw AVERAGES and pays")
	fmt.Println("D once per ten steps, so its distribution is both lower and narrower.")
	fmt.Println()

	sel, err := experiments.SelectAblations("delay")
	if err == nil {
		err = sel[0].Run(os.Stdout, experiments.AblationOptions{Scale: experiments.ScaleFull})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stragglers:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Println("The measured speedup EXCEEDS the constant-delay formula: that")
	fmt.Println("gap is straggler mitigation (averaging tau draws shrinks the")
	fmt.Println("variance of each worker's contribution by tau).")
}
