package tensor_test

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// The layers above the kernels, under both tiers in one process: what a conv
// training run computes must not depend on the tier by a single bit, and the
// allocation gates nn and cluster hold on whichever tier the host runs must
// hold on the other too. (The goldens meet the Go tier in CI's purego step.)

var grayImage = data.ImageShape{Channels: 1, Height: 8, Width: 8} // the conv workloads' quick-scale input

func convNets() map[string]*nn.Network {
	return map[string]*nn.Network{"VGGNano": nn.NewVGGNano(grayImage, 10), "ResNetNano": nn.NewResNetNano(grayImage, 10)}
}

func imageBatch(r *rng.Rand, rows int) data.Batch {
	b := data.Batch{X: tensor.NewMatrix(rows, grayImage.Len()), Y: make([]int, rows)}
	for i := range b.X.Data {
		b.X.Data[i] = r.NormFloat64()
	}
	for i := range b.Y {
		b.Y[i] = r.Intn(10)
	}
	return b
}

// TestFillFloat64OnBothTiers: rng's uniform fill, which is tensor.Uniforms on
// the generator's state, is one Float64 call per element on either tier —
// the values, a sentinel past dst, and the next Uint64.
func TestFillFloat64OnBothTiers(t *testing.T) {
	tensor.EachTier(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257, 650} {
			a, b := rng.New(uint64(n)+9), rng.New(uint64(n)+9)
			buf := make([]float64, n+1)
			buf[n] = -1
			a.FillFloat64(buf[:n])
			for i := 0; i < n; i++ {
				if want := b.Float64(); math.Float64bits(buf[i]) != math.Float64bits(want) {
					t.Fatalf("len %d: draw %d = %v, Float64 gives %v", n, i, buf[i], want)
				}
			}
			if buf[n] != -1 {
				t.Fatalf("len %d: the fill wrote past dst", n)
			}
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("len %d: next Uint64 %x after the fill, %x after the calls", n, x, y)
			}
		}
	})
}

// TestTrainingBitEqualAcrossTiers: 30 LossGrad + SGD steps at batch 16 and
// one evaluation, on both conv nets, end with the same parameters and the
// same loss on either tier.
func TestTrainingBitEqualAcrossTiers(t *testing.T) {
	type outcome struct {
		params []float64
		loss   float64
	}
	results := map[string]outcome{} // "<tier>/<net>"
	tensor.EachTier(t, func(t *testing.T) {
		for name, net := range convNets() {
			r := rng.New(61)
			net.InitParams(r.Split())
			grad := make([]float64, net.ParamLen())
			o := opt.New(opt.Config{}, net.ParamLen())
			o.SetLR(0.05)
			for step := 0; step < 30; step++ {
				net.LossGrad(imageBatch(r, 16), grad)
				o.Step(net.Params(), grad)
			}
			results[tensor.Kernels()+"/"+name] = outcome{append([]float64(nil), net.Params()...), net.Loss(imageBatch(r, 384))}
		}
	})
	for name := range convNets() {
		goTier, ok := results["go/"+name]
		if !ok {
			t.Fatalf("%s did not run on the Go tier", name)
		}
		asm, ok := results["avx2/"+name]
		if !ok {
			continue // eachTier logged why
		}
		if math.Float64bits(asm.loss) != math.Float64bits(goTier.loss) {
			t.Errorf("%s: loss %v on avx2, %v on go", name, asm.loss, goTier.loss)
		}
		for i := range goTier.params {
			if math.Float64bits(asm.params[i]) != math.Float64bits(goTier.params[i]) {
				t.Fatalf("%s: parameter %d = %x on avx2, %x on go", name, i, math.Float64bits(asm.params[i]), math.Float64bits(goTier.params[i]))
			}
		}
	}
}

// TestAllocGatesHoldOnBothTiers: an evaluation, a lock-step round on a conv
// workload, and a trace point on both engines allocate nothing in steady
// state whichever kernels run — no kernel or wrapper takes heap scratch.
func TestAllocGatesHoldOnBothTiers(t *testing.T) {
	tensor.EachTier(t, func(t *testing.T) {
		r := rng.New(62)
		for name, net := range convNets() {
			net.InitParams(r.Split())
			b := imageBatch(r, 384)
			if n := testing.AllocsPerRun(5, func() { net.Loss(b); net.Accuracy(b) }); n != 0 {
				t.Errorf("%s: %v allocs per Loss + Accuracy, want 0", name, n)
			}
		}
		w := experiments.BuildWorkload(experiments.ArchVGG, 10, 4, experiments.ScaleQuick, 63)
		lock := w.Engine(cluster.Config{BatchSize: 16, MaxIters: 1 << 30, EvalEvery: 1 << 30, ComputeWorkers: 1, Seed: 64})
		async, err := cluster.NewAsync(w.Proto, w.Shards, w.Train, w.Test, w.Delay, cluster.AsyncConfig{
			Participation: 2, Tau: 2, BatchSize: 16, LR: 0.05, MaxUpdates: 1, EvalEvery: 1 << 30, Seed: 65,
		})
		if err != nil {
			t.Fatal(err)
		}
		for name, f := range map[string]func(){
			"lock-step round":       func() { lock.StepLocal(5, 0.05); lock.SyncNow() },
			"Engine.TrainLoss":      func() { lock.TrainLoss() },
			"AsyncEngine.TrainLoss": func() { async.TrainLoss() },
		} {
			f() // warm-up: arenas and wire messages sized
			if n := testing.AllocsPerRun(5, f); n != 0 {
				t.Errorf("%s: %v allocs per call, want 0", name, n)
			}
		}
	})
}

// TestFoldedReLUMatchesSeparateLayer: a Conv2D or a Residual into which
// NewNetwork folded the ReLU after it computes, on either tier, what the
// same layer followed by a separate ReLU layer computes — the forward
// output, dW and dB (from a planted start) and the input gradient, bit for
// bit — over convs the direct kernels take (the trunk, VGG's first conv,
// six filters: a row tail for dB's sums) and ones they decline (stride 2, a
// 5x5 kernel), and a residual block. Activations and output gradients carry
// NaNs of two payloads, -0 and ±Inf, and exact zeros. Neither pass writes
// its input, and nothing is written past the parameter gradient.
func TestFoldedReLUMatchesSeparateLayer(t *testing.T) {
	conv := func(c, h, w, k, stride, pad, f int) func() nn.Layer {
		return func() nn.Layer { return nn.NewConv2D(c, h, w, k, stride, pad, f) }
	}
	cases := []struct {
		name  string
		layer func() nn.Layer // a fresh layer, no ReLU folded in
	}{
		{"trunk conv", conv(8, 8, 8, 3, 1, 1, 8)},
		{"VGG conv1", conv(1, 8, 8, 3, 1, 1, 8)},
		{"six filters", conv(4, 8, 8, 3, 1, 1, 6)},
		{"stride 2", conv(3, 8, 8, 3, 2, 1, 5)},
		{"5x5", conv(2, 6, 6, 5, 1, 2, 4)},
		{"residual block", func() nn.Layer {
			c := nn.NewConv2D(8, 8, 8, 3, 1, 1, 8)
			return nn.NewResidual(c, nn.NewReLU(c.OutDim()), nn.NewConv2D(8, 8, 8, 3, 1, 1, 8))
		}},
	}
	specials := []float64{math.Float64frombits(0x7FF8000000000123), math.Float64frombits(0xFFF4000000000456),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	plant := func(v []float64, stride int) {
		for j := stride / 2; j < len(v); j += stride {
			v[j] = specials[j%len(specials)]
		}
	}
	const rows, sentinel = 5, -12345.0
	tensor.EachTier(t, func(t *testing.T) {
		for _, c := range cases {
			plain, relu, folded := c.layer(), nn.NewReLU(c.layer().OutDim()), c.layer()
			nn.NewNetwork(nn.MSE{}, 0, folded, nn.NewReLU(folded.OutDim())) // folds that ReLU into folded
			r := rng.New(88)
			params := make([]float64, plain.ParamLen())
			plain.Init(params, r)
			for round := 0; round < 3; round++ {
				in, dOut := tensor.NewMatrix(rows, plain.InDim()), tensor.NewMatrix(rows, plain.OutDim())
				for _, m := range []*tensor.Matrix{in, dOut} {
					for i := range m.Data {
						if m.Data[i] = r.NormFloat64(); r.Float64() < 0.3 {
							m.Data[i] = 0
						}
					}
					if round > 0 {
						plant(m.Data, 7*round+3)
					}
				}
				inCopy, dOutCopy := append([]float64(nil), in.Data...), append([]float64(nil), dOut.Data...)
				want := relu.Forward(nil, plain.Forward(params, in))
				got := folded.Forward(params, in)
				sameBits(t, c.name+" forward", got.Data, want.Data)

				n := len(params)
				dPlain, dFolded := make([]float64, n+4), make([]float64, n+4)
				for i := range dPlain {
					dPlain[i], dFolded[i] = sentinel, sentinel
				}
				for i := 0; i < n; i++ {
					dPlain[i] = r.NormFloat64()
					dFolded[i] = dPlain[i]
				}
				wantDIn := plain.Backward(params, relu.Backward(nil, dOut, nil), dPlain[:n])
				gotDIn := folded.Backward(params, dOut, dFolded[:n])
				sameBits(t, c.name+" input gradient", gotDIn.Data, wantDIn.Data)
				sameBits(t, c.name+" parameter gradient and what lies past it", dFolded, dPlain)
				if dFolded[n] != sentinel {
					t.Fatalf("%s: written past the parameter gradient", c.name)
				}
				sameBits(t, c.name+" input after both passes", in.Data, inCopy)
				sameBits(t, c.name+" output gradient after the backward", dOut.Data, dOutCopy)
			}
		}
	})
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s (%s): length %d, want %d", what, tensor.Kernels(), len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s (%s): element %d = %v (%#x), want %v (%#x)", what, tensor.Kernels(), i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
