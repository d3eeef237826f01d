// Momentum: AdaComm combined with block momentum (paper Sec 5.3) on the
// convolutional VGGNano workload. Local momentum (0.9) is restarted at every
// averaging step, and a global momentum buffer (0.3) filters the aggregate
// per-round displacement — the scheme of Chen & Huo (2016) that the paper
// adopts.
//
// The table is the VGG panel of the paper's Fig 11, run at full size: `go
// run ./cmd/figures -fig 11` prints it between the two ResNet panels.
//
//	go run ./examples/momentum
package main

import (
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	experiments.RunComparison(experiments.Fig11Spec(experiments.ArchVGG, 10, experiments.ScaleFull)).Print(os.Stdout)
	fmt.Println()
	fmt.Println("every method runs the same local momentum and block momentum; only")
	fmt.Println("the communication period differs. tau=1 pays the VGG broadcast")
	fmt.Println("(alpha ~ 4) every step, tau=100 rarely averages; AdaComm starts at")
	fmt.Println("tau0=20, decays tau as the loss falls, raises it again when the")
	fmt.Println("learning rate drops (eq 20's coupling) and ends at the lowest loss.")
}
