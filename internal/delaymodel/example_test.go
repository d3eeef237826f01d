package delaymodel_test

import (
	"fmt"

	"repro/internal/delaymodel"
)

// The eq-12 speedup of PASGD over fully synchronous SGD for a
// communication-bound cluster (alpha = 0.9), as in the paper's Fig 4.
func ExampleSpeedupConstant() {
	for _, tau := range []int{1, 10, 100} {
		fmt.Printf("tau=%-4d speedup=%.3f\n", tau, delaymodel.SpeedupConstant(0.9, tau))
	}
	// Output:
	// tau=1    speedup=1.000
	// tau=10   speedup=1.743
	// tau=100  speedup=1.883
}
