package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sgd"
)

// fakeInfo builds a RoundInfo at the given simulated time/epoch.
func fakeInfo(time float64, epoch int) cluster.RoundInfo {
	return cluster.RoundInfo{Time: time, Epoch: epoch, Round: 1, Iter: 100}
}

// lossSeq returns an evalLoss closure yielding scripted values.
func lossSeq(vals ...float64) func() float64 {
	i := 0
	return func() float64 {
		v := vals[i%len(vals)]
		i++
		return v
	}
}

func TestAdaCommInitialTau(t *testing.T) {
	a := NewAdaComm(Config{Tau0: 20, Interval: 60, Schedule: sgd.Const{Eta: 0.1}})
	tau, lr := a.NextRound(fakeInfo(0, 0), lossSeq(2.0))
	if tau != 20 {
		t.Fatalf("initial tau %d, want Tau0=20", tau)
	}
	if lr != 0.1 {
		t.Fatalf("initial lr %v", lr)
	}
}

func TestAdaCommBasicRuleEq17(t *testing.T) {
	// F0 = 2.0; at the boundary F = 0.5 -> tau = ceil(sqrt(0.25)*20) = 10.
	a := NewAdaComm(Config{Tau0: 20, Interval: 60, Schedule: sgd.Const{Eta: 0.1}})
	a.NextRound(fakeInfo(0, 0), lossSeq(2.0))
	tau, _ := a.NextRound(fakeInfo(61, 1), lossSeq(0.5))
	if tau != 10 {
		t.Fatalf("eq-17 tau %d, want 10", tau)
	}
}

func TestAdaCommHoldsBetweenBoundaries(t *testing.T) {
	a := NewAdaComm(Config{Tau0: 20, Interval: 60, Schedule: sgd.Const{Eta: 0.1}})
	a.NextRound(fakeInfo(0, 0), lossSeq(2.0))
	evals := 0
	countingEval := func() float64 { evals++; return 1.0 }
	// Before the boundary, tau stays and evalLoss must NOT be called.
	tau, _ := a.NextRound(fakeInfo(30, 0), countingEval)
	if tau != 20 {
		t.Fatalf("tau changed mid-interval: %d", tau)
	}
	if evals != 0 {
		t.Fatal("evalLoss called before the interval boundary")
	}
}

func TestAdaCommSaturationDecayEq18(t *testing.T) {
	// Loss stuck at F0: rule 17 proposes tau0 again, which is not strictly
	// smaller, so eq 18 fires: tau <- ceil(gamma * tau).
	a := NewAdaComm(Config{Tau0: 20, Interval: 60, Gamma: 0.5, Schedule: sgd.Const{Eta: 0.1}})
	a.NextRound(fakeInfo(0, 0), lossSeq(2.0))
	tau, _ := a.NextRound(fakeInfo(61, 1), lossSeq(2.0))
	if tau != 10 {
		t.Fatalf("saturation decay tau %d, want gamma*20 = 10", tau)
	}
	tau, _ = a.NextRound(fakeInfo(121, 2), lossSeq(2.0))
	if tau != 5 {
		t.Fatalf("second saturation decay tau %d, want 5", tau)
	}
}

func TestAdaCommTauNeverBelowMin(t *testing.T) {
	a := NewAdaComm(Config{Tau0: 2, Interval: 10, Schedule: sgd.Const{Eta: 0.1}})
	a.NextRound(fakeInfo(0, 0), lossSeq(1.0))
	for i := 1; i <= 10; i++ {
		tau, _ := a.NextRound(fakeInfo(float64(i*10+1), i), lossSeq(1.0))
		if tau < 1 {
			t.Fatalf("tau fell below 1: %d", tau)
		}
	}
	if a.Tau() != 1 {
		t.Fatalf("tau should bottom out at 1, got %d", a.Tau())
	}
}

func TestAdaCommSqrtCouplingRaisesTauOnDecay(t *testing.T) {
	// Rule (20): a 10x LR decay multiplies tau by sqrt(10) ~ 3.16 (at
	// equal loss ratio). Loss = F0 throughout; LR decays at epoch 2.
	sch := sgd.MultiStep{Eta: 0.2, Milestones: []int{2}}
	a := NewAdaComm(Config{Tau0: 10, Interval: 60, Coupling: SqrtCoupling, Schedule: sch})
	a.NextRound(fakeInfo(0, 0), lossSeq(1.0))
	// Epoch 2 passed: lr 0.2 -> 0.02, eta0/eta = 10, tau = ceil(sqrt(10*1)*10) = 32.
	tau, lr := a.NextRound(fakeInfo(61, 2), lossSeq(1.0))
	if math.Abs(lr-0.02) > 1e-12 {
		t.Fatalf("lr %v, want 0.02", lr)
	}
	if tau != 32 {
		t.Fatalf("sqrt-coupled tau %d, want 32", tau)
	}
}

func TestAdaCommFullCouplingExplodes(t *testing.T) {
	// Rule (19): the same 10x decay multiplies tau by 10^{3/2} ~ 31.6 —
	// the blow-up the paper warns about (tau -> ~1000 after two decays).
	sch := sgd.MultiStep{Eta: 0.2, Milestones: []int{2}}
	a := NewAdaComm(Config{Tau0: 10, Interval: 60, Coupling: FullCoupling, Schedule: sch})
	a.NextRound(fakeInfo(0, 0), lossSeq(1.0))
	tau, _ := a.NextRound(fakeInfo(61, 2), lossSeq(1.0))
	if tau < 300 {
		t.Fatalf("full coupling tau %d, expected explosion >= 316", tau)
	}
}

func TestAdaCommDeferLRDecay(t *testing.T) {
	// With deferral on, the scheduled decay at epoch 2 must NOT apply
	// while tau > 1; once tau reaches 1, the decay goes through.
	sch := sgd.MultiStep{Eta: 0.2, Milestones: []int{2}}
	a := NewAdaComm(Config{Tau0: 8, Interval: 10, Gamma: 0.5, Schedule: sch, DeferLRDecay: true})
	a.NextRound(fakeInfo(0, 0), lossSeq(1.0))
	// Saturating loss: tau halves per boundary: 8 -> 4 -> 2 -> 1.
	var lr float64
	var tau int
	for i := 1; i <= 3; i++ {
		tau, lr = a.NextRound(fakeInfo(float64(i*10+1), 2), lossSeq(1.0))
		if tau > 1 && lr != 0.2 {
			t.Fatalf("LR decayed to %v while tau=%d > 1", lr, tau)
		}
	}
	if tau != 1 {
		t.Fatalf("tau should have reached 1, got %d", tau)
	}
	// Next boundary: tau == 1, decay now applies.
	_, lr = a.NextRound(fakeInfo(41, 2), lossSeq(1.0))
	if math.Abs(lr-0.02) > 1e-12 {
		t.Fatalf("deferred decay never applied: lr %v", lr)
	}
}

// An interval below what the simulated clock resolves used to spin the
// boundary catch-up forever (nextBoundary + interval == nextBoundary). It
// means what it says: adapt at every round.
func TestTinyIntervalAdaptsEveryRound(t *testing.T) {
	cfg := Config{Tau0: 20, Interval: 1e-12, Schedule: sgd.Const{Eta: 0.1}}
	for name, c := range map[string]cluster.Controller{
		"AdaComm":         NewAdaComm(cfg),
		"AdaCommCompress": NewAdaCommCompress(cfg, CompressSchedule{Ratio0: 0.05}),
	} {
		evals := 0
		probe := func() float64 { evals++; return 2.0 }
		for round := 0; round <= 50; round++ {
			c.NextRound(fakeInfo(1e4*float64(round), round), probe)
		}
		if evals != 51 { // F0, then one probe per round
			t.Errorf("%s probed the loss %d times over 50 rounds, want 51", name, evals)
		}
	}
}

func TestAdaCommConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Tau0: 0, Interval: 10},
		{Tau0: 5, Interval: 0},
		{Tau0: 5, Interval: math.NaN()},
		{Tau0: 5, Interval: math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v accepted", bad)
				}
			}()
			NewAdaComm(bad)
		}()
	}
	// An out-of-range gamma, NaN included, runs the default.
	for _, g := range []float64{0, 1, -0.5, math.NaN(), math.Inf(1)} {
		if got := NewAdaComm(Config{Tau0: 5, Interval: 10, Gamma: g}).cfg.Gamma; got != 0.5 {
			t.Errorf("gamma %v ran as %v, want the default 0.5", g, got)
		}
	}
}

func TestCouplingString(t *testing.T) {
	if NoCoupling.String() != "none" || SqrtCoupling.String() != "sqrt" || FullCoupling.String() != "full" {
		t.Fatal("coupling names wrong")
	}
}

func TestGridSearchTau0PicksBest(t *testing.T) {
	// Scripted traces: tau=8 yields the lowest final loss.
	run := func(tau int) *metrics.Trace {
		tr := metrics.NewTrace("probe")
		loss := math.Abs(float64(tau)-8) + 1
		tr.Add(metrics.Point{Time: 0, Loss: 10, Acc: math.NaN()})
		tr.Add(metrics.Point{Time: 10, Loss: loss, Acc: math.NaN()})
		return tr
	}
	if got := GridSearchTau0([]int{1, 4, 8, 16, 64}, run); got != 8 {
		t.Fatalf("grid search picked %d, want 8", got)
	}
}

func TestGridSearchPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty candidates")
		}
	}()
	GridSearchTau0(nil, nil)
}

// End-to-end: AdaComm on a real (small) PASGD run must (a) produce a
// decreasing tau sequence and (b) beat fully synchronous SGD in time-to-loss
// on a communication-bound problem.
func TestAdaCommEndToEnd(t *testing.T) {
	r := rng.New(200)
	train := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: 4, Dim: 12, N: 800, Separation: 4, Noise: 1.5,
	}, r)
	proto := nn.NewLogisticRegression(12, 4)
	proto.InitParams(rng.New(201))
	m := 4
	shards := data.ShardIID(train, m, rng.New(202))
	// Communication-bound: alpha = 4 (VGG-like regime).
	dm := delaymodel.New(m, rng.Constant{Value: 1}, rng.Constant{Value: 4}, delaymodel.ConstantScaling{})

	cfg := cluster.Config{
		BatchSize:  8,
		MaxIters:   2500,
		EvalEvery:  100,
		EvalSubset: 400,
		Seed:       7,
	}
	mkEngine := func() *cluster.Engine {
		e, err := cluster.New(proto, shards, train, nil, dm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	syncTrace := mkEngine().Run(cluster.FixedTau{Tau: 1, Schedule: sgd.Const{Eta: 0.1}}, "sync")

	ada := NewAdaComm(Config{
		Tau0:     16,
		Interval: 400,
		Schedule: sgd.Const{Eta: 0.1},
	})
	adaTrace := mkEngine().Run(ada, "adacomm")

	// (a) tau decreases over the run.
	firstTau, lastTau := 0, 0
	for _, p := range adaTrace.Points {
		if p.Tau > 0 {
			if firstTau == 0 {
				firstTau = p.Tau
			}
			lastTau = p.Tau
		}
	}
	if firstTau != 16 {
		t.Fatalf("AdaComm first tau %d, want 16", firstTau)
	}
	if lastTau >= firstTau {
		t.Fatalf("AdaComm tau did not decrease: %d -> %d", firstTau, lastTau)
	}

	// (b) AdaComm reaches a mid-training loss target sooner than sync SGD
	// in simulated wall-clock.
	target := syncTrace.FinalLoss()*0.3 + adaTrace.FinalLoss()*0.7
	if target <= 0 {
		t.Fatalf("degenerate target %v", target)
	}
	sp := metrics.Speedup(syncTrace, adaTrace, target)
	if math.IsNaN(sp) {
		t.Fatalf("speedup undefined: sync %v ada %v target %v",
			syncTrace.TimeToLoss(target), adaTrace.TimeToLoss(target), target)
	}
	if sp <= 1 {
		t.Fatalf("AdaComm speedup %v <= 1 on a communication-bound problem", sp)
	}
}

// Regression for the tau-raise condition in adapt(): under the basic rule
// (17) eta never enters the tau update, so an LR decay must not undo the
// eq-18 monotone decay. Before the fix, `lr < curLR` alone gated the raise
// and a NoCoupling controller jumped tau back to the loss-only proposal on
// the decay interval.
func TestAdaCommNoCouplingDecayDoesNotRaiseTau(t *testing.T) {
	sch := sgd.MultiStep{Eta: 0.2, Milestones: []int{3}}
	a := NewAdaComm(Config{Tau0: 20, Interval: 60, Gamma: 0.5, Coupling: NoCoupling, Schedule: sch})
	a.NextRound(fakeInfo(0, 0), lossSeq(2.0))
	// Two stalled boundaries: eq 18 decays 20 -> 10 -> 5.
	a.NextRound(fakeInfo(61, 1), lossSeq(2.0))
	tau, _ := a.NextRound(fakeInfo(121, 2), lossSeq(2.0))
	if tau != 5 {
		t.Fatalf("setup tau %d, want 5", tau)
	}
	// Milestone passes: lr decays, loss still stalled. Rule (17)'s proposal
	// is 20 > 5, but without coupling the decay must continue: 5 -> 3.
	tau, lr := a.NextRound(fakeInfo(181, 3), lossSeq(2.0))
	if math.Abs(lr-0.02) > 1e-12 {
		t.Fatalf("lr %v, want 0.02", lr)
	}
	if tau != 3 {
		t.Fatalf("NoCoupling raise fired on LR decay: tau %d, want 3", tau)
	}
}

// Same regression through the deferral path: the decay is withheld until tau
// reaches 1; when it finally applies, a NoCoupling controller must keep
// tau = 1 instead of firing the one-time raise with the loss-only proposal.
func TestAdaCommNoCouplingDeferredDecayKeepsTauAtOne(t *testing.T) {
	sch := sgd.MultiStep{Eta: 0.2, Milestones: []int{2}}
	a := NewAdaComm(Config{Tau0: 8, Interval: 10, Gamma: 0.5, Coupling: NoCoupling,
		Schedule: sch, DeferLRDecay: true})
	a.NextRound(fakeInfo(0, 0), lossSeq(1.0))
	// Stalled loss, milestone already passed: tau 8 -> 4 -> 2 -> 1, decay
	// deferred throughout.
	var tau int
	var lr float64
	for i := 1; i <= 3; i++ {
		tau, lr = a.NextRound(fakeInfo(float64(i*10+1), 2), lossSeq(1.0))
	}
	if tau != 1 || lr != 0.2 {
		t.Fatalf("deferral setup: tau %d lr %v, want 1 / 0.2", tau, lr)
	}
	// The release boundary: the decay applies; tau must stay at 1.
	tau, lr = a.NextRound(fakeInfo(41, 2), lossSeq(1.0))
	if math.Abs(lr-0.02) > 1e-12 {
		t.Fatalf("deferred decay never applied: lr %v", lr)
	}
	if tau != 1 {
		t.Fatalf("NoCoupling raise fired on deferral release: tau %d, want 1", tau)
	}
}

// Pin the intended rule-(20) interaction with deferral: the one-time raise
// fires exactly on the boundary the deferred decay applies — not while the
// decay is being withheld — and with the coupled magnitude
// ceil(sqrt(eta0/eta * F/F0) * tau0).
func TestAdaCommSqrtCouplingDeferredRaiseFiresOnRelease(t *testing.T) {
	sch := sgd.MultiStep{Eta: 0.2, Milestones: []int{2}}
	a := NewAdaComm(Config{Tau0: 8, Interval: 10, Gamma: 0.5, Coupling: SqrtCoupling,
		Schedule: sch, DeferLRDecay: true})
	a.NextRound(fakeInfo(0, 0), lossSeq(1.0))
	for i := 1; i <= 3; i++ {
		tau, lr := a.NextRound(fakeInfo(float64(i*10+1), 2), lossSeq(1.0))
		if lr != 0.2 {
			t.Fatalf("decay applied while deferred: lr %v at boundary %d", lr, i)
		}
		if want := []int{4, 2, 1}[i-1]; tau != want {
			t.Fatalf("boundary %d tau %d, want %d (no raise before release)", i, tau, want)
		}
	}
	// Release: lr 0.2 -> 0.02, tau = ceil(sqrt(10 * 1) * 8) = 26.
	tau, lr := a.NextRound(fakeInfo(41, 2), lossSeq(1.0))
	if math.Abs(lr-0.02) > 1e-12 {
		t.Fatalf("lr %v, want 0.02", lr)
	}
	if tau != 26 {
		t.Fatalf("rule-20 raise on release: tau %d, want ceil(sqrt(10)*8) = 26", tau)
	}
}
