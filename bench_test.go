package repro

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (BenchmarkFig*/BenchmarkTable*) and per ablation, each running
// the corresponding experiment end-to-end at reduced (ScaleQuick) size so the
// whole suite completes in minutes; `go run ./cmd/figures` regenerates the
// same artifacts at full scale. The hot kernels, model steps and engine
// rounds are timed by `go run ./cmd/bench` (pinned iteration counts, the rows
// CI's regression gate reads); the three micro-benchmarks at the bottom have
// no row there. The communication-layer aggregation benchmarks (sparse
// index-merge vs dense accumulation on 1M-coordinate vectors) live next to
// their subject in internal/comm/bench_test.go and
// internal/compress/bench_test.go, and run with the same
// `go test -bench . ./...` invocation.

import (
	"io"
	"testing"

	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/experiments"
	"repro/internal/nn"
	optpkg "repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// ---------------------------------------------------------------------------
// Figure/table regenerators.
// ---------------------------------------------------------------------------

func benchComparison(b *testing.B, spec experiments.TrainSpec) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cmp := experiments.RunComparison(spec)
		cmp.Print(io.Discard)
	}
}

func BenchmarkFig1ErrorRuntimeConcept(b *testing.B) {
	benchComparison(b, experiments.Fig1Spec(experiments.ScaleQuick))
}

func BenchmarkFig4SpeedupFormula(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4()
		experiments.PrintFig4(io.Discard, rows)
	}
}

func BenchmarkFig5RuntimeDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig5Bytes(50000, 1, 0, 0)
		experiments.PrintFig5(io.Discard, res)
	}
}

func BenchmarkFig6TheoreticalBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves := experiments.Fig6(200)
		experiments.PrintFig6(io.Discard, curves)
	}
}

func BenchmarkFig7AdaptiveSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig7(experiments.Fig6Constants(), 60, 10, 64)
		experiments.PrintFig7(io.Discard, res)
	}
}

func BenchmarkFig8CommComputeBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8Bytes(4, 2, 0, 0)
		experiments.PrintFig8(io.Discard, rows)
	}
}

func BenchmarkFig9VGGFixedLR(b *testing.B) {
	benchComparison(b, experiments.Fig9Spec(10, false, experiments.ScaleQuick))
}

func BenchmarkFig9VGGVariableLR(b *testing.B) {
	benchComparison(b, experiments.Fig9Spec(10, true, experiments.ScaleQuick))
}

func BenchmarkFig9VGGCifar100(b *testing.B) {
	benchComparison(b, experiments.Fig9Spec(100, false, experiments.ScaleQuick))
}

func BenchmarkFig10ResNetFixedLR(b *testing.B) {
	benchComparison(b, experiments.Fig10Spec(10, false, experiments.ScaleQuick))
}

func BenchmarkFig10ResNetVariableLR(b *testing.B) {
	benchComparison(b, experiments.Fig10Spec(10, true, experiments.ScaleQuick))
}

func BenchmarkFig11BlockMomentumVGG(b *testing.B) {
	benchComparison(b, experiments.Fig11Spec(experiments.ArchVGG, 10, experiments.ScaleQuick))
}

func BenchmarkFig11BlockMomentumResNet(b *testing.B) {
	benchComparison(b, experiments.Fig11Spec(experiments.ArchResNet, 10, experiments.ScaleQuick))
}

func BenchmarkFig12VGG8Workers(b *testing.B) {
	benchComparison(b, experiments.Fig12Spec(10, true, experiments.ScaleQuick))
}

func BenchmarkFig13ResNet8Workers(b *testing.B) {
	benchComparison(b, experiments.Fig13Spec(10, true, experiments.ScaleQuick))
}

func BenchmarkFig14LocalVsSyncAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig14(experiments.ScaleQuick, 5)
		experiments.PrintFig14(io.Discard, res)
	}
}

func BenchmarkTable1TestAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(experiments.ScaleQuick)
		experiments.PrintTable1(io.Discard, rows)
	}
}

// Ablation benches (DESIGN.md Sec 4 design choices).

func BenchmarkAblationTauGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PrintTauGrid(io.Discard, experiments.TauGridAblation(experiments.ScaleQuick))
	}
}

func BenchmarkAblationGamma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PrintGammaAblation(io.Discard, experiments.GammaAblation(experiments.ScaleQuick))
	}
}

func BenchmarkAblationCoupling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PrintCouplingAblation(io.Discard, experiments.CouplingAblation(experiments.ScaleQuick))
	}
}

func BenchmarkAblationInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PrintIntervalAblation(io.Discard, experiments.IntervalAblation(experiments.ScaleQuick))
	}
}

func BenchmarkAblationStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PrintStrategyAblation(io.Discard, experiments.StrategyAblation(experiments.ScaleQuick))
	}
}

func BenchmarkExtensionAdaSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PrintAdaSync(io.Discard, experiments.AdaSyncExperiment(experiments.ScaleQuick))
	}
}

func BenchmarkAblationDelayDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PrintDelayAblation(io.Discard, experiments.DelayAblation(experiments.ScaleQuick))
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks with no cmd/bench row.
// ---------------------------------------------------------------------------

func benchModelStep(b *testing.B, net *nn.Network, dim int) {
	b.Helper()
	net.InitParams(rng.New(1))
	r := rng.New(2)
	batch := data.Batch{X: tensor.NewMatrix(16, dim), Y: make([]int, 16)}
	for i := 0; i < 16; i++ {
		for j := 0; j < dim; j++ {
			batch.X.Set(i, j, r.NormFloat64())
		}
		batch.Y[i] = r.Intn(4)
	}
	grad := make([]float64, net.ParamLen())
	opt := optpkg.New(optpkg.Config{LR: 0.05}, net.ParamLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.LossGrad(batch, grad)
		opt.Step(net.Params(), grad)
	}
}

func BenchmarkStepLogistic(b *testing.B) {
	benchModelStep(b, nn.NewLogisticRegression(64, 4), 64)
}

func BenchmarkStepMLP(b *testing.B) {
	benchModelStep(b, nn.NewMLP(64, []int{64, 32}, 4), 64)
}

func BenchmarkRuntimeSampling(b *testing.B) {
	dm := delaymodel.New(16, rng.Exponential{MeanVal: 1}, rng.Constant{Value: 1},
		delaymodel.ConstantScaling{})
	r := rng.New(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dm.SampleRoundBytes(10, r, 0)
	}
}
