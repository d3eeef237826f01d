// Stragglers: demonstrates the runtime side of the paper's analysis
// (Sec 3.1-3.2) on a cluster with exponentially distributed compute times —
// the straggler regime. Periodic averaging both amortizes the broadcast
// delay over tau iterations AND smooths the straggler tail, because the
// per-round time is the max of per-worker *averages* instead of the max of
// single draws.
//
//	go run ./examples/stragglers
package main

import (
	"fmt"
	"strings"

	"repro/internal/delaymodel"
	"repro/internal/rng"
)

func main() {
	const (
		workers = 16
		meanY   = 1.0 // mean compute time per local step
		delayD  = 1.0 // broadcast delay
		trials  = 100000
	)
	dm := delaymodel.New(workers,
		rng.Exponential{MeanVal: meanY},
		rng.Constant{Value: delayD},
		delaymodel.ConstantScaling{})
	r := rng.New(42)

	// Closed form for sync SGD: E[T] = y*H_m + D (paper Sec 3.2).
	fmt.Printf("E[T_sync] closed form: %.3f (y*H_%d + D)\n",
		dm.ExpectedSyncIterationExponential(), workers)

	// Monte-Carlo per-iteration times for several communication periods.
	fmt.Println("\ntau   E[T/iter]   speedup   eq-12 (ignores stragglers)")
	sync := dm.MCMeanPerIteration(1, trials, r)
	for _, tau := range []int{1, 2, 5, 10, 20, 50} {
		perIter := dm.MCMeanPerIteration(tau, trials, r)
		fmt.Printf("%3d   %9.3f   %7.2fx   %7.2fx\n",
			tau, perIter, sync/perIter,
			delaymodel.SpeedupConstant(delayD/meanY, tau))
	}
	fmt.Println("\nThe measured speedup EXCEEDS the constant-delay formula: that")
	fmt.Println("gap is straggler mitigation (averaging tau draws shrinks the")
	fmt.Println("variance of each worker's contribution by tau).")

	// Distribution comparison, as in the paper's Fig 5.
	hist := func(tau int) *rng.Histogram {
		h := rng.NewHistogram(0, 8, 32)
		for i := 0; i < trials; i++ {
			h.Add(dm.SampleRoundBytes(tau, r, 0) / float64(tau))
		}
		return h
	}
	hSync, hPavg := hist(1), hist(10)
	fmt.Println("\nruntime-per-iteration distribution (ASCII, # = sync, * = PASGD tau=10):")
	for i := 0; i < 32; i += 2 {
		bar := func(h *rng.Histogram, ch string) string {
			return strings.Repeat(ch, int(h.Density(i)*400))
		}
		fmt.Printf("%5.2f | %-40s | %s\n", hSync.BinCenter(i), bar(hSync, "#"), bar(hPavg, "*"))
	}
}
