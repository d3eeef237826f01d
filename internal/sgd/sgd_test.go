package sgd

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
)

func TestConstSchedule(t *testing.T) {
	s := Const{0.1}
	for _, e := range []int{0, 10, 1000} {
		if s.LR(e) != 0.1 {
			t.Fatalf("const LR changed at epoch %d", e)
		}
	}
}

func TestMultiStepMatchesPaperSchedule(t *testing.T) {
	// Paper Sec 5.1: decay by 10 after epochs 80/120/160/200.
	s := MultiStep{Eta: 0.2, Factor: 0.1, Milestones: []int{80, 120, 160, 200}}
	cases := map[int]float64{
		0: 0.2, 79: 0.2,
		80: 0.02, 119: 0.02,
		120: 0.002, 159: 0.002,
		160: 0.0002, 200: 0.00002,
	}
	for e, want := range cases {
		if got := s.LR(e); math.Abs(got-want) > 1e-15 {
			t.Fatalf("multistep LR(%d) = %v, want %v", e, got, want)
		}
	}
}

func TestSGDConvergesOnConvexProblem(t *testing.T) {
	ds, wStar, bStar := data.LinearRegressionData(
		data.LinearRegressionConfig{Dim: 4, N: 2000, Noise: 0.01}, rng.New(1))
	model := nn.NewLinearRegression(4)
	model.InitParams(rng.New(2))
	sampler := data.NewSampler(ds, 32, rng.New(3))
	o := opt.New(opt.Config{}, model.ParamLen())
	o.SetLR(0.05)
	grad := make([]float64, model.ParamLen())
	for s := 0; s < 3000; s++ {
		b := sampler.Next()
		model.LossGrad(b, grad)
		o.Step(model.Params(), grad)
	}
	// Recovered weights must approximate the ground truth. Dense stores W
	// (1 x dim) then bias.
	p := model.Params()
	for j, w := range wStar {
		if math.Abs(p[j]-w) > 0.05 {
			t.Fatalf("weight %d: %v vs true %v", j, p[j], w)
		}
	}
	if math.Abs(p[4]-bStar) > 0.05 {
		t.Fatalf("bias %v vs true %v", p[4], bStar)
	}
}

func TestMomentumFasterThanPlainOnQuadratic(t *testing.T) {
	// On an ill-conditioned quadratic, momentum should reach a lower loss
	// in the same number of steps — the classical acceleration effect.
	ds, _, _ := data.LinearRegressionData(
		data.LinearRegressionConfig{Dim: 6, N: 500, Noise: 0}, rng.New(4))
	// Stretch one input dimension to create bad conditioning.
	for i := 0; i < ds.N(); i++ {
		ds.X.Row(i)[0] *= 5
	}
	run := func(mu float64) float64 {
		model := nn.NewLinearRegression(6)
		model.InitParams(rng.New(5))
		cfg := opt.Config{}
		if mu != 0 {
			cfg = opt.Config{Rule: opt.RuleMomentum, Momentum: mu}
		}
		o := opt.New(cfg, model.ParamLen())
		o.SetLR(0.01)
		b := data.FullBatch(ds)
		grad := make([]float64, model.ParamLen())
		for s := 0; s < 150; s++ {
			model.LossGrad(b, grad)
			o.Step(model.Params(), grad)
		}
		return model.Loss(b)
	}
	plain, mom := run(0), run(0.9)
	if mom >= plain {
		t.Fatalf("momentum loss %v not better than plain %v", mom, plain)
	}
}

func TestEstimateGradientVariance(t *testing.T) {
	ds := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: 3, Dim: 5, N: 600, Separation: 3, Noise: 1,
	}, rng.New(6))
	model := nn.NewLogisticRegression(5, 3)
	model.InitParams(rng.New(7))

	// Smaller batches must yield larger variance (sigma^2 ~ 1/B).
	s8 := data.NewSampler(ds, 8, rng.New(8))
	s64 := data.NewSampler(ds, 64, rng.New(9))
	v8 := EstimateGradientVariance(model, ds, 8, 100, s8)
	v64 := EstimateGradientVariance(model, ds, 64, 100, s64)
	if v8 <= v64 {
		t.Fatalf("variance should shrink with batch size: v8=%v v64=%v", v8, v64)
	}
	if v8 <= 0 {
		t.Fatalf("variance must be positive, got %v", v8)
	}
}

func TestEstimateLipschitzPositive(t *testing.T) {
	ds := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: 2, Dim: 4, N: 100, Separation: 3, Noise: 1,
	}, rng.New(10))
	model := nn.NewLogisticRegression(4, 2)
	model.InitParams(rng.New(11))
	b := data.FullBatch(ds)
	r := rng.New(12)
	before := append([]float64(nil), model.Params()...)
	l := EstimateLipschitz(model, b, 0.1, 10, r.NormFloat64)
	if l <= 0 {
		t.Fatalf("Lipschitz estimate %v", l)
	}
	// Params must be restored.
	for i, v := range model.Params() {
		if v != before[i] {
			t.Fatal("EstimateLipschitz did not restore parameters")
		}
	}
}
