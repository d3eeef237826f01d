package core

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/events"
)

// CompressSchedule parameterizes the compression half of the joint
// (tau, ratio) controller. The keep-ratio follows the mirror image of the
// tau rule: AdaComm starts with infrequent communication and decays tau as
// the loss falls (eq 17); AdaCommCompress additionally starts with
// aggressive compression and RAISES the wire fidelity as the loss falls,
//
//	ratio_l = min(1, Ratio0 * sqrt(F(x_0)/F(x_l)))
//
// with the same saturation refinement as eq 18: when the rule fails to
// strictly raise the ratio (the loss has plateaued), the ratio is relaxed
// multiplicatively by 1/Gamma instead (the tau rule's Gamma), so a stalled
// run converges to full-fidelity communication rather than staying noisy
// forever.
type CompressSchedule struct {
	// Ratio0 is the initial keep-ratio (e.g. 0.05 = send 5% of
	// coordinates). Must be in (0, 1].
	Ratio0 float64
	// NormBits drives a QSGD quantizer's bit-width directly from the
	// observed gradient-norm decay (compress.NormDecayBits — the same
	// helper AdaSync's norm rule uses) instead of the coarse ratio→bits
	// rounding: one extra bit per halving of worker 0's mini-batch gradient
	// norm relative to the first observed round, clamped to [1, 8]. The
	// keep-ratio rule still runs (it drives sparsifiers and reporting); the
	// width rule overrides only compressors that accept an exact width. Off
	// (the zero value) nothing touches the width — bit for bit the legacy
	// controller.
	NormBits bool
	// Bits0 is the norm rule's reference width (default 4). Ignored without
	// NormBits.
	Bits0 int
}

// AdaCommCompress jointly adapts the communication period tau AND the
// compression keep-ratio per wall-clock interval, implementing
// cluster.RatioController. Tau follows the standard AdaComm rules —
// including Config.LinkAware, which the embedded controller consumes
// unchanged, so the joint controller is heterogeneity-aware for free; the
// ratio follows CompressSchedule on the same interval boundaries, sharing
// the interval's single loss evaluation. Stateful; do not reuse across runs.
type AdaCommCompress struct {
	ada *AdaComm
	cs  CompressSchedule

	initialized  bool
	f0           float64
	ratio        float64
	nextBoundary float64

	norm0   float64 // first observed gradient norm (NormBits reference)
	curBits int     // current norm-rule width (0 until a norm is observed)
}

// NewAdaCommCompress builds the joint controller from the AdaComm config
// (tau/LR half) and a compression schedule (ratio half).
func NewAdaCommCompress(cfg Config, cs CompressSchedule) *AdaCommCompress {
	ada := NewAdaComm(cfg)
	if cs.Bits0 == 0 {
		cs.Bits0 = 4
	}
	if cs.Ratio0 <= 0 || cs.Ratio0 > 1 {
		panic("core: AdaCommCompress needs Ratio0 in (0, 1]")
	}
	return &AdaCommCompress{ada: ada, cs: cs}
}

// Name implements cluster.Controller.
func (a *AdaCommCompress) Name() string { return "AdaComm+Compress" }

// CompressionRatio implements cluster.RatioController.
func (a *AdaCommCompress) CompressionRatio() float64 { return a.ratio }

// QuantBits implements cluster.BitsController: the norm-decay width when
// CompressSchedule.NormBits is on and a gradient norm has been observed,
// else 0 (leave the width to the ratio mapping).
func (a *AdaCommCompress) QuantBits() int {
	if !a.cs.NormBits {
		return 0
	}
	return a.curBits
}

// NextRound implements cluster.Controller: tau and the learning rate come
// from the embedded AdaComm; the ratio is re-chosen at the same interval
// boundaries, reusing the boundary's loss evaluation.
func (a *AdaCommCompress) NextRound(info cluster.RoundInfo, evalLoss func() float64) (int, float64) {
	// One evaluation per boundary, whatever it returns: a diverged run's NaN
	// loss is memoized like any other.
	var cached float64
	have := false
	memo := func() float64 {
		if !have {
			cached, have = evalLoss(), true
		}
		return cached
	}
	tau, lr := a.ada.NextRound(info, memo)
	if a.cs.NormBits && info.GradNorm > 0 {
		if a.norm0 == 0 {
			a.norm0 = info.GradNorm
		}
		a.curBits = compress.NormDecayBits(a.cs.Bits0, a.norm0, info.GradNorm)
	}
	if !a.initialized {
		a.f0 = memo()
		if a.f0 <= 0 {
			a.f0 = math.SmallestNonzeroFloat64
		}
		a.ratio = a.cs.Ratio0
		a.nextBoundary = a.ada.cfg.Interval
		a.initialized = true
		return tau, lr
	}
	if info.Time >= a.nextBoundary {
		a.adaptRatio(memo())
		a.nextBoundary = events.NextBoundary(a.nextBoundary, info.Time, a.ada.cfg.Interval)
	}
	return tau, lr
}

// adaptRatio applies the ratio rule and its saturation refinement at an
// interval boundary.
func (a *AdaCommCompress) adaptRatio(f float64) {
	proposed := 1.0
	if f > 0 {
		proposed = a.cs.Ratio0 * math.Sqrt(a.f0/f)
	}
	if proposed > 1 {
		proposed = 1
	}
	if proposed > a.ratio {
		a.ratio = proposed
		return
	}
	// Saturation: the loss ratio no longer justifies a fidelity increase,
	// so force a multiplicative relaxation toward lossless communication.
	relaxed := a.ratio / a.ada.cfg.Gamma
	if relaxed > 1 {
		relaxed = 1
	}
	a.ratio = relaxed
}
