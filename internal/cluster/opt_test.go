package cluster

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/opt"
	"repro/internal/sgd"
)

// TestOptimizerSerialPoolBitIdentical extends the golden pool contract to
// the new update rules: workers remain independent between averaging points
// under Adam (local and wire-synced moments through CHOCO) and under
// per-node global momentum, so the compute pool width cannot change a bit.
func TestOptimizerSerialPoolBitIdentical(t *testing.T) {
	adam := baseCfg()
	adam.Opt = opt.Config{Rule: opt.RuleAdam}

	synced := baseCfg()
	synced.Opt = opt.Config{Rule: opt.RuleAdam, SyncedMoments: true}

	choco := baseCfg()
	choco.Strategy = RingGossip
	choco.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25, Wire: compress.WireFloat32}
	choco.GossipGamma = 0.8
	choco.Opt = opt.Config{Rule: opt.RuleAdam, SyncedMoments: true}

	slowmo := baseCfg()
	slowmo.Strategy = RingGossip
	slowmo.Opt = opt.Config{Rule: opt.RuleNesterov, Momentum: 0.9}
	slowmo.GlobalMomentum = 0.2

	cases := []struct {
		name string
		cfg  Config
	}{
		{"adam", adam}, {"adam-synced", synced}, {"adam-synced-choco", choco}, {"slowmo-ring", slowmo},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			poolMatchesSerial(t, newSetup(t, 4, 1), tc.cfg, FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.05}})
		})
	}
}

// TestRejoinReconciliationAdamSynced pins the optimizer half of the rejoin
// contract: with wire-synced Adam moments, a rejoining worker pulls the
// extended vector (params + synced second moment, priced dense) and ends the
// reconciliation matching a never-crashed worker BIT FOR BIT — parameters,
// every optimizer state vector, and the bias-correction step clock.
func TestRejoinReconciliationAdamSynced(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.Opt = opt.Config{Rule: opt.RuleAdam, SyncedMoments: true}
	cfg.Faults = mustFaults(t, "blip:1@r1-2")
	e := s.engine(t, cfg)
	const lr = 0.02

	round := func(r int) {
		e.beginRound(r)
		e.localUpdates(5, lr)
		e.optSteps += 5 // mirror the Run loop's continuously-active step count
		e.average()
	}
	for r := 0; r <= 2; r++ {
		round(r)
	}

	e.beginRound(3) // rejoin round: reconcile fires before local updates
	if e.xdim <= e.dim {
		t.Fatalf("synced moments did not extend the wire vector (xdim %d, dim %d)", e.xdim, e.dim)
	}
	if got, want := e.reconBytes[1], 8*e.xdim; got != want {
		t.Fatalf("reconcile payload %d bytes, want %d (the extended vector)", got, want)
	}
	if !floatsExact(e.LocalModelParams(1), e.LocalModelParams(0)) {
		t.Fatal("rejoined replica != never-crashed replica")
	}
	w0, w1 := e.workers[0].opt, e.workers[1].opt
	if w0.Steps() != w1.Steps() {
		t.Fatalf("step clocks diverge after reconcile: %d vs %d", w1.Steps(), w0.Steps())
	}
	s0, s1 := w0.State(), w1.State()
	for k := range s0 {
		if !floatsExact(s0[k].Vec, s1[k].Vec) {
			t.Fatalf("optimizer state %q differs between rejoined and never-crashed workers", s0[k].Name)
		}
	}

	// The restored state is not merely equal at the snapshot: the two
	// workers march in lockstep through the next full round.
	e.localUpdates(5, lr)
	e.optSteps += 5
	e.average()
	if !floatsExact(e.LocalModelParams(1), e.LocalModelParams(0)) {
		t.Fatal("rejoined replica diverged one round after reconcile")
	}
	for k := range s0 {
		if !floatsExact(s0[k].Vec, s1[k].Vec) {
			t.Fatalf("optimizer state %q diverged one round after reconcile", s0[k].Name)
		}
	}
}

// TestGlobalMomentumRenormUnderChurn pins the shared-buffer renormalization
// rule: when membership shrinks, the global-momentum buffer scales by the
// surviving fraction |A_t ∩ A_prev| / |A_prev|; unchanged-membership and
// pure-rejoin rounds are bitwise no-ops.
func TestGlobalMomentumRenormUnderChurn(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.GlobalMomentum = 0.5
	cfg.Faults = mustFaults(t, "blip:1@r2-3")
	e := s.engine(t, cfg)
	const lr = 0.1

	round := func(r int) {
		e.beginRound(r)
		e.localUpdates(5, lr)
		e.average()
	}
	round(0)
	round(1)

	snap := func() []float64 { return append([]float64(nil), e.gmom.Buf()...) }
	nonzero := func(v []float64) bool {
		for _, x := range v {
			if x != 0 {
				return true
			}
		}
		return false
	}
	pre := snap()
	if !nonzero(pre) {
		t.Fatal("global-momentum buffer empty after two full rounds")
	}
	want := snap()
	for j := range want {
		want[j] *= 3.0 / 4.0
	}
	e.beginRound(2) // worker 1 drops: 3 of the previous 4 survive
	if !floatsExact(e.gmom.Buf(), want) {
		t.Fatal("crash round did not renormalize the buffer by 3/4")
	}
	e.localUpdates(5, lr)
	e.average()

	pre = snap()
	e.beginRound(3) // unchanged membership: factor 1, bitwise no-op
	if !floatsExact(e.gmom.Buf(), pre) {
		t.Fatal("unchanged membership perturbed the buffer")
	}
	e.localUpdates(5, lr)
	e.average()

	pre = snap()
	e.beginRound(4) // pure rejoin: every accumulator survived, factor 1
	if !floatsExact(e.gmom.Buf(), pre) {
		t.Fatal("pure-rejoin round perturbed the buffer")
	}
}
