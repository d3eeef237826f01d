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
