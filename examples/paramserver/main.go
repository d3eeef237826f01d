// Paramserver: the paper's concluding extension — adapting ASYNCHRONY in a
// parameter-server framework the way AdaComm adapts the communication
// period (the adaptive-K direction of Kas Hanna et al. 2022). K-async SGD
// applies an update per K gradient arrivals; small K is fast but stale
// (high noise), large K is slow but clean. AdaSync starts at K=1 and grows
// K toward m as the loss falls, mirroring AdaComm's tau decay.
//
// The table is the adasync row of the ablation registry, run at full size:
// `go run ./cmd/sweep -ablation adasync` prints it without the commentary.
//
//	go run ./examples/paramserver
package main

import (
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	sel, err := experiments.SelectAblations("adasync")
	if err == nil {
		err = sel[0].Run(os.Stdout, experiments.AblationOptions{Scale: experiments.ScaleFull})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paramserver:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Println("K=1 races ahead early but plateaus on staleness noise; K=8 is")
	fmt.Println("slow but clean; AdaSync rides K=1's speed then grows K for the floor.")
}
