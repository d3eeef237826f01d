// Package experiments contains one driver per table and figure of the
// paper's evaluation, plus the ablations called out in DESIGN.md. Every
// driver is deterministic given its seed, returns a structured result, and
// can render itself as text; cmd/figures (the paper's figures), cmd/sweep
// (the ablation registry in registry.go) and the benchmark harness in the
// repository root are thin wrappers around this package.
//
// Sizing: the paper's experiments train VGG-16/ResNet-50 on CIFAR for tens
// of GPU-minutes. The reproduction's workloads are miniaturized (see
// DESIGN.md) so that a full figure regenerates in seconds to minutes of CPU
// time, while preserving the quantities that determine the figure's shape:
// the communication/computation ratio alpha, the gradient-noise floor, and
// the number of adaptation intervals. Each driver takes a Scale knob:
// ScaleQuick for unit tests, ScaleFull for the benchmark harness.
package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/nn"
	"repro/internal/rng"
)

// Scale selects experiment sizing.
type Scale int

const (
	// ScaleQuick shrinks datasets/iterations for fast unit tests.
	ScaleQuick Scale = iota
	// ScaleFull is the benchmark-harness sizing used for EXPERIMENTS.md.
	ScaleFull
)

// Arch selects the model family (stand-ins for the paper's two networks).
type Arch string

const (
	// ArchVGG is the communication-bound VGGNano (alpha ~ 4).
	ArchVGG Arch = "vgg"
	// ArchResNet is the computation-bound ResNetNano (alpha ~ 0.5).
	ArchResNet Arch = "resnet"
	// ArchLogistic is a linear softmax model on blob data, used by the
	// conceptual figures where the model is irrelevant.
	ArchLogistic Arch = "logistic"
)

// Workload bundles everything a training experiment needs.
type Workload struct {
	Arch    Arch
	Classes int
	M       int // workers
	Proto   *nn.Network
	Train   *data.Dataset
	Test    *data.Dataset
	Shards  []*data.Dataset
	Delay   *delaymodel.Model
	Profile delaymodel.Profile
}

// Examples returns how many examples BuildWorkload generates for arch at
// scale, training and test — 0 for an unknown arch. It is also the upper
// bound on BuildWorkload's classes: the generators place every class at least
// once.
func Examples(arch Arch, scale Scale) (train, test int) {
	switch arch {
	case ArchLogistic:
		if scale == ScaleQuick {
			return 512, 128
		}
		return 1024, 256
	case ArchVGG, ArchResNet:
		if scale == ScaleQuick {
			return 384, 128
		}
		return 2048, 512
	}
	return 0, 0
}

// BuildWorkload constructs a deterministic workload. classes is 10 or 100 in
// the paper (CIFAR-10/100) and anything from 2 to the workload's example
// count here (Examples); m is the worker count (4 or 8 in the paper).
func BuildWorkload(arch Arch, classes, m int, scale Scale, seed uint64) *Workload {
	r := rng.New(seed)
	w := &Workload{Arch: arch, Classes: classes, M: m}
	nTrain, nTest := Examples(arch, scale)

	switch arch {
	case ArchLogistic:
		dim := 16
		full := data.GaussianBlobs(data.GaussianBlobsConfig{
			Classes: classes, Dim: dim, N: nTrain + nTest, Separation: 4,
			Noise: 1.5, LabelNoise: 0.1,
		}, r)
		w.Train, w.Test = data.SplitTrainTest(full, nTest, r)
		w.Proto = nn.NewLogisticRegression(dim, classes)
		w.Profile = delaymodel.Profile{
			Name:     "logistic",
			ComputeY: rng.Constant{Value: 1},
			CommD0:   rng.Constant{Value: 1},
		}

	case ArchVGG, ArchResNet:
		shape := data.ImageShape{Channels: 3, Height: 8, Width: 8}
		if scale == ScaleQuick {
			shape = data.ImageShape{Channels: 1, Height: 8, Width: 8}
		}
		full := data.SynthImages(data.SynthImagesConfig{
			Classes: classes, Shape: shape, N: nTrain + nTest, Noise: 0.8,
			LabelNoise: 0.1,
		}, r)
		w.Train, w.Test = data.SplitTrainTest(full, nTest, r)
		if arch == ArchVGG {
			w.Proto = nn.NewVGGNano(shape, classes)
			w.Profile = delaymodel.VGG16Profile()
		} else {
			w.Proto = nn.NewResNetNano(shape, classes)
			w.Profile = delaymodel.ResNet50Profile()
		}

	default:
		panic(fmt.Sprintf("experiments: unknown arch %q", arch))
	}

	w.Proto.InitParams(r.Split())
	w.Shards = data.ShardIID(w.Train, m, r.Split())
	w.Delay = w.Profile.Model(m, delaymodel.ConstantScaling{})
	return w
}

// Engine builds a cluster engine on this workload. Engines with an unset
// ComputeWorkers that are constructed inside a parallel grid fan-out run
// their simulated workers serially — the grid already saturates the cores,
// and stacking a second GOMAXPROCS-wide pool per config would oversubscribe
// them. Engines built outside a fan-out (single runs) keep the full
// compute pool. Either way the results are bit-identical.
func (w *Workload) Engine(cfg cluster.Config) *cluster.Engine {
	if cfg.ComputeWorkers == 0 && poolBusy() {
		cfg.ComputeWorkers = 1
	}
	e, err := cluster.New(w.Proto, w.Shards, w.Train, w.Test, w.Delay, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: engine construction failed: %v", err))
	}
	return e
}
