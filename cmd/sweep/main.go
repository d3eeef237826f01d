// Command sweep runs the repo's ablations: AdaComm's own design choices (how
// tau_0 is picked, gamma, the LR coupling rule, the interval T0) and every
// extension beyond the paper. Each ablation is a row of the registry in
// internal/experiments/registry.go, and that registry is the only way to run
// one; `sweep -h` lists the rows.
//
// Usage:
//
//	sweep -ablation tau0                  # one row
//	sweep -ablation all                   # every row, in registry order
//	sweep -ablation gossip -wire float32  # gossip grid with narrowed compressed cells
//	sweep -ablation churn -faults "blip:0@r8-20,drop:0.1"  # custom schedule
//	sweep -ablation optimizer -adam-beta2 0.99 -global-momentum 0.2
//
// A tuning flag (-wire, -faults, -adam-beta2, -global-momentum) that the
// selected ablation would ignore, an unknown -ablation name and any
// malformed or out-of-range value exit 2 with one "sweep: ..." line before
// anything runs.
//
// Grid cells are independent configurations and run concurrently on the
// experiment pool (-workers, default GOMAXPROCS); the output is
// byte-identical at any width.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/faults"
)

func main() {
	which := flag.String("ablation", "all", experiments.AblationUsage())
	quick := flag.Bool("quick", false, "use reduced sizes")
	workers := flag.Int("workers", 0,
		"concurrent experiment configurations per grid (0 = GOMAXPROCS, 1 = serial); output is identical at any width")
	wire := flag.String("wire", "",
		"wire precision (float64 | float32) of the gossip grid's compressed cells; only meaningful with -ablation gossip or all")
	faultsFlag := flag.String("faults", "",
		"override the churn ablation's fault schedule, comma-separated events ("+faults.Forms+"); only meaningful with -ablation churn or all")
	adamBeta2 := flag.Float64("adam-beta2", 0,
		"second-moment decay beta2 of the optimizer ablation's Adam rows, in (0, 1); only meaningful with -ablation optimizer or all (0 = default 0.999)")
	globalMomentum := flag.Float64("global-momentum", 0,
		"slow-momentum factor of the optimizer ablation's slowmo row, in (0, 1); only meaningful with -ablation optimizer or all (0 = default 0.1)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected ablations' runs to this file")
	flag.Parse()

	check := func(err error) { cli.Check("sweep", err) }
	check(cli.PoolWorkers(*workers))
	sel, err := experiments.SelectAblations(*which)
	check(err)
	opts := experiments.AblationOptions{
		Scale: cli.Scale(*quick), Wire: *wire, Faults: *faultsFlag,
		AdamBeta2: *adamBeta2, GlobalMomentum: *globalMomentum,
	}
	check(opts.Validate(sel))

	defer cli.StartCPUProfile("sweep", *cpuProfile)()
	for _, a := range sel {
		check(a.Run(os.Stdout, opts))
		fmt.Println()
	}
}
