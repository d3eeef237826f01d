// Momentum: AdaComm combined with block momentum (paper Sec 5.3) on the
// convolutional VGGNano workload. Local momentum (0.9) is restarted at every
// averaging step, and a global momentum buffer (0.3) filters the aggregate
// per-round displacement — the scheme of Chen & Huo (2016) that the paper
// adopts.
//
//	go run ./examples/momentum
package main

import (
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/sgd"
)

func main() {
	const workers = 4
	r := rng.New(31)
	shape := data.ImageShape{Channels: 1, Height: 8, Width: 8}
	full := data.SynthImages(data.SynthImagesConfig{
		Classes: 4, Shape: shape, N: 640, Noise: 0.35,
	}, r)
	train, test := data.SplitTrainTest(full, 128, r)
	model := nn.NewVGGNano(shape, 4)
	model.InitParams(r.Split())
	shards := data.ShardIID(train, workers, r.Split())
	dm := delaymodel.VGG16Profile().Model(workers, delaymodel.ConstantScaling{})

	cfg := cluster.Config{
		BatchSize: 16,
		// Local momentum, reset at each averaging step.
		Opt: opt.Config{Rule: opt.RuleMomentum, Momentum: 0.9},
		// Global momentum on the per-round displacement.
		GlobalMomentum: 0.3,
		MaxTime:        120,
		EvalEvery:      100,
		Seed:           5,
	}
	sched := sgd.Const{Eta: 0.02}

	run := func(name string, ctrl cluster.Controller) *metrics.Trace {
		e, err := cluster.New(model, shards, train, test, dm, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr := e.Run(ctrl, name)
		fmt.Printf("%-10s final loss %.4f   test acc %5.2f%%   (%d iters)\n",
			name, tr.FinalLoss(), 100*e.TestAccuracy(), tr.Last().Iter)
		return tr
	}

	sync := run("sync", cluster.FixedTau{Tau: 1, Schedule: sched})
	ada := run("adacomm", core.NewAdaComm(core.Config{
		Tau0: 20, Interval: 12, Gamma: 0.5, Schedule: sched,
	}))

	// Pick a target both methods reach: slightly above the worse minimum.
	target := sync.MinLoss()
	if m := ada.MinLoss(); m > target {
		target = m
	}
	target = target*1.2 + 1e-4
	fmt.Printf("\nspeedup to loss %.4f: %.2fx\n", target, metrics.Speedup(sync, ada, target))
}
