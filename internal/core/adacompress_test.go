package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/rng"
	"repro/internal/sgd"

	"repro/internal/nn"
)

func jointCfg() Config {
	return Config{Tau0: 20, Interval: 60, Schedule: sgd.Const{Eta: 0.1}}
}

func TestAdaCommCompressInitialState(t *testing.T) {
	a := NewAdaCommCompress(jointCfg(), CompressSchedule{Ratio0: 0.05})
	tau, lr := a.NextRound(fakeInfo(0, 0), lossSeq(2.0))
	if tau != 20 || lr != 0.1 {
		t.Fatalf("initial (tau, lr) = (%d, %v)", tau, lr)
	}
	if a.CompressionRatio() != 0.05 {
		t.Fatalf("initial ratio %v, want Ratio0", a.CompressionRatio())
	}
}

func TestAdaCommCompressRatioRisesWithFallingLoss(t *testing.T) {
	// F0 = 2.0; at the boundary F = 0.5 -> ratio = 0.05 * sqrt(4) = 0.1,
	// while tau drops by eq 17 to ceil(sqrt(0.25)*20) = 10.
	a := NewAdaCommCompress(jointCfg(), CompressSchedule{Ratio0: 0.05})
	a.NextRound(fakeInfo(0, 0), lossSeq(2.0))
	tau, _ := a.NextRound(fakeInfo(61, 1), lossSeq(0.5))
	if tau != 10 {
		t.Fatalf("joint tau %d, want 10", tau)
	}
	if got := a.CompressionRatio(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("ratio %v, want 0.1", got)
	}
}

func TestAdaCommCompressSaturationRelaxes(t *testing.T) {
	// Loss stalls at F0: the rule proposes Ratio0 (no increase), so each
	// boundary must relax the ratio by 1/Gamma = 2x instead.
	a := NewAdaCommCompress(Config{Tau0: 20, Interval: 60, Gamma: 0.5,
		Schedule: sgd.Const{Eta: 0.1}}, CompressSchedule{Ratio0: 0.1})
	a.NextRound(fakeInfo(0, 0), lossSeq(2.0))
	a.NextRound(fakeInfo(61, 1), lossSeq(2.0))
	if got := a.CompressionRatio(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("ratio after one stalled interval %v, want 0.2", got)
	}
	a.NextRound(fakeInfo(121, 2), lossSeq(2.0))
	if got := a.CompressionRatio(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("ratio after two stalled intervals %v, want 0.4", got)
	}
}

func TestAdaCommCompressRatioCapped(t *testing.T) {
	a := NewAdaCommCompress(jointCfg(), CompressSchedule{Ratio0: 0.5})
	a.NextRound(fakeInfo(0, 0), lossSeq(2.0))
	// Loss fell 100x: the rule proposes 5.0, capped at 1 (lossless support).
	a.NextRound(fakeInfo(61, 1), lossSeq(0.02))
	if got := a.CompressionRatio(); got != 1 {
		t.Fatalf("ratio %v, want the cap 1", got)
	}
	// The saturation relaxation stops at the same cap.
	a.NextRound(fakeInfo(121, 2), lossSeq(0.02))
	if got := a.CompressionRatio(); got != 1 {
		t.Fatalf("ratio %v after a stalled interval, want the cap 1", got)
	}
}

func TestAdaCommCompressSingleEvalPerBoundary(t *testing.T) {
	// NaN is a diverged run's loss: the evaluation that is already wasted
	// must not be paid twice.
	for _, loss := range []float64{2.0, math.NaN()} {
		a := NewAdaCommCompress(jointCfg(), CompressSchedule{Ratio0: 0.05})
		evals := 0
		counting := func() float64 { evals++; return loss }
		a.NextRound(fakeInfo(0, 0), counting)
		if evals != 1 {
			t.Fatalf("loss %v: init evals %d, want 1 (shared between tau and ratio)", loss, evals)
		}
		a.NextRound(fakeInfo(61, 1), counting)
		if evals != 2 {
			t.Fatalf("loss %v: boundary evals %d, want 2 total", loss, evals)
		}
		// Off-boundary rounds must not evaluate at all.
		a.NextRound(fakeInfo(70, 1), counting)
		if evals != 2 {
			t.Fatalf("loss %v: off-boundary evals %d, want 2", loss, evals)
		}
	}
}

func TestAdaCommCompressRejectsBadRatio0(t *testing.T) {
	for _, r := range []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("accepted Ratio0 = %v", r)
				}
			}()
			NewAdaCommCompress(jointCfg(), CompressSchedule{Ratio0: r})
		}()
	}
}

func TestAdaCommCompressDrivesEngine(t *testing.T) {
	// End-to-end: joint controller + adaptive top-k on a real engine. The
	// run must learn, and the final payload must exceed the initial one
	// (fidelity rose as the loss fell).
	r := rng.New(500)
	train := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: 4, Dim: 10, N: 800, Separation: 4, Noise: 1.2,
	}, r)
	proto := nn.NewLogisticRegression(10, 4)
	proto.InitParams(rng.New(501))
	dm := delaymodel.New(4, rng.Constant{Value: 1}, rng.Constant{Value: 1},
		delaymodel.ConstantScaling{})
	dm.Bandwidth = 256
	e, err := cluster.New(proto, data.ShardIID(train, 4, rng.New(502)), train, nil, dm,
		cluster.Config{
			BatchSize: 16,
			MaxTime:   400,
			EvalEvery: 50,
			Compress:  compress.Spec{Kind: compress.KindTopK, Ratio: 0.1, ErrorFeedback: true},
			Seed:      42,
		})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewAdaCommCompress(Config{Tau0: 10, Interval: 40, Schedule: sgd.Const{Eta: 0.1}},
		CompressSchedule{Ratio0: 0.1})
	initialBytes := compress.Spec{Kind: compress.KindTopK, Ratio: 0.1}.WireBytes(e.Dim())
	trace := e.Run(ctrl, ctrl.Name())
	if trace.FinalLoss() >= trace.Points[0].Loss/2 {
		t.Fatalf("joint-controlled run failed to learn: %v -> %v",
			trace.Points[0].Loss, trace.FinalLoss())
	}
	if ctrl.CompressionRatio() <= 0.1 {
		t.Fatalf("ratio never rose above Ratio0: %v", ctrl.CompressionRatio())
	}
	if e.CommBytesPerRound() <= initialBytes {
		t.Fatalf("final payload %d not above initial %d", e.CommBytesPerRound(), initialBytes)
	}
}

// An interval below the clock's resolution sends events.NextBoundary down
// its jump path: a round that moves the clock across many intervals is one
// boundary, a round that leaves it still is none. The ratio must move on
// exactly the rounds where the embedded tau rule adapts, from one loss
// evaluation per boundary.
func TestAdaCommCompressFollowsJumpingBoundaries(t *testing.T) {
	cfg := Config{Tau0: 20, Interval: 1e-12, Schedule: sgd.Const{Eta: 0.1}}
	joint := NewAdaCommCompress(cfg, CompressSchedule{Ratio0: math.Ldexp(1, -30)})
	alone := NewAdaComm(cfg)
	evals, aloneEvals := 0, 0
	stalled := func() float64 { evals++; return 2.0 }
	aloneStalled := func() float64 { aloneEvals++; return 2.0 }
	boundaries := 0
	for round := 0; round <= 60; round++ {
		// The clock stands still for two rounds, then jumps 1e4 s: 1e16
		// intervals, and 1e4 + 1e-12 == 1e4.
		info := fakeInfo(1e4*float64(round/3), round)
		before, ratio := evals, joint.CompressionRatio()
		tau, _ := joint.NextRound(info, stalled)
		wantTau, _ := alone.NextRound(info, aloneStalled)
		if tau != wantTau || evals != aloneEvals {
			t.Fatalf("round %d: tau %d after %d evaluations, AdaComm alone %d after %d",
				round, tau, evals, wantTau, aloneEvals)
		}
		if evals-before > 1 {
			t.Fatalf("round %d evaluated the loss %d times", round, evals-before)
		}
		if round == 0 {
			continue // the start: F0, and the ratio is Ratio0
		}
		adapted := evals > before
		if moved := joint.CompressionRatio() != ratio; moved != adapted {
			t.Fatalf("round %d: ratio moved %v, tau rule adapted %v", round, moved, adapted)
		}
		if adapted {
			boundaries++
		}
	}
	if boundaries != 20 {
		t.Fatalf("%d boundaries over 20 clock jumps", boundaries)
	}
}
