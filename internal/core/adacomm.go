// Package core implements ADACOMM, the paper's contribution: an adaptive
// communication-period controller for periodic-averaging SGD. Training is
// divided into wall-clock intervals of length T0; at each interval boundary
// the controller re-chooses the communication period tau from the current
// training loss via the update rules of Sec 4:
//
//	basic rule (eq 17):   tau_l = ceil( sqrt(F(x_l)/F(x_0)) * tau_0 )
//	saturation  (eq 18):  if the rule does not strictly decrease tau,
//	                      multiply the previous tau by gamma < 1 instead
//	LR coupling (eq 20):  tau_l = ceil( sqrt(eta_0/eta_l * F_l/F_0) * tau_0 )
//	full coupling (eq 19): exponent 3/2 on eta_0/eta_l — the variant the
//	                      paper reports as divergence-prone, kept for the
//	                      ablation benches
//
// plus the Sec 4.3.2 policy of deferring scheduled learning-rate decays
// until tau has decayed to 1, and a tau_0 grid-search helper mirroring the
// paper's "trial runs for one or two epochs".
package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/sgd"
)

// Coupling selects how the learning rate enters the tau update rule.
type Coupling int

const (
	// NoCoupling uses the basic rule (eq 17): tau depends on loss only.
	NoCoupling Coupling = iota
	// SqrtCoupling is rule (20): tau scales with sqrt(eta0/eta_l), derived
	// under the eta*L ~= 1 approximation. This is the rule the paper
	// actually runs.
	SqrtCoupling
	// FullCoupling is rule (19): tau scales with (eta0/eta_l)^{3/2}. After
	// a 10x LR decay this inflates tau ~31x, which the paper observed to
	// push tau to ~1000 and diverge; included for the ablation.
	FullCoupling
)

// String returns the rule's name.
func (c Coupling) String() string {
	switch c {
	case NoCoupling:
		return "none"
	case SqrtCoupling:
		return "sqrt"
	case FullCoupling:
		return "full"
	}
	return fmt.Sprintf("coupling(%d)", int(c))
}

// Config parameterizes the AdaComm controller.
type Config struct {
	Tau0     int          // initial communication period (from grid search)
	Interval float64      // T0, the wall-clock interval between adaptations
	Gamma    float64      // saturation decay factor (paper uses 1/2)
	Schedule sgd.Schedule // learning-rate schedule, indexed by epoch
	Coupling Coupling     // how eta enters the tau rule
	// DeferLRDecay holds back scheduled LR decays while tau > 1
	// (Sec 4.3.2: "first decay the communication period to 1, then decay
	// the learning rate as usual").
	DeferLRDecay bool
	// LinkAware makes the controller heterogeneity-aware: the proposed tau
	// is scaled by sqrt(alpha_obs) whenever the observed communication/
	// computation ratio alpha_obs = mean(D)/mean(Y) (from RoundInfo's
	// CommTime/ComputeTime, the measured cost that heterogeneous Links and
	// finite bandwidth inflate) exceeds 1 — Theorem 2's tau* grows with the
	// square root of the communication delay, so slow links hold tau higher.
	// A growing link factor may raise tau once, mirroring the LR-decay
	// raise. Off (the zero value), trajectories are bit-identical to the
	// paper's static rule.
	LinkAware bool
}

func (c Config) withDefaults() Config {
	if !(c.Gamma > 0 && c.Gamma < 1) { // negated so NaN defaults too
		c.Gamma = 0.5
	}
	if c.Schedule == nil {
		c.Schedule = sgd.Const{Eta: 0.1}
	}
	return c
}

// AdaComm is the adaptive communication controller (implements
// cluster.Controller). It is stateful and must not be reused across runs.
type AdaComm struct {
	cfg Config

	f0           float64 // F(x_{t=0})
	eta0         float64
	nextBoundary float64
	curTau       int // 0 until the first round
	curLR        float64
	linkFactor   float64 // sqrt(alpha_obs) applied at the last boundary (LinkAware)
}

// NewAdaComm builds the controller.
func NewAdaComm(cfg Config) *AdaComm {
	cfg = cfg.withDefaults()
	if cfg.Tau0 < 1 {
		panic("core: AdaComm needs Tau0 >= 1")
	}
	if !(cfg.Interval > 0 && cfg.Interval <= math.MaxFloat64) {
		panic("core: AdaComm needs a positive finite interval T0")
	}
	return &AdaComm{cfg: cfg, linkFactor: 1}
}

// Name implements cluster.Controller.
func (a *AdaComm) Name() string { return "AdaComm" }

// Tau returns the communication period currently in effect.
func (a *AdaComm) Tau() int { return a.curTau }

// LinkFactor returns the link-aware tau scale applied at the most recent
// interval boundary: sqrt(observed alpha), or 1 when LinkAware is off, the
// cluster is compute-bound, or no boundary has passed yet.
func (a *AdaComm) LinkFactor() float64 { return a.linkFactor }

// NextRound implements cluster.Controller.
func (a *AdaComm) NextRound(info cluster.RoundInfo, evalLoss func() float64) (int, float64) {
	tau, lr, _, _ := a.next(info, evalLoss)
	return tau, lr
}

// next is NextRound with the boundary's report: adapted is true when an
// interval boundary re-chose tau on this call, and f is the loss it adapted
// at, clamped at 0 (the joint controller re-tunes its ratio from it).
func (a *AdaComm) next(info cluster.RoundInfo, evalLoss func() float64) (tau int, lr, f float64, adapted bool) {
	if a.curTau == 0 {
		a.f0 = evalLoss()
		if a.f0 <= 0 {
			// Degenerate start (already at zero loss): communicate every
			// iteration, nothing to save.
			a.f0 = math.SmallestNonzeroFloat64
		}
		a.eta0 = a.cfg.Schedule.LR(0)
		a.curTau = a.cfg.Tau0
		a.curLR = a.eta0
		a.nextBoundary = a.cfg.Interval
		return a.curTau, a.curLR, 0, false
	}

	if info.Time >= a.nextBoundary {
		f, adapted = a.adapt(info, evalLoss), true
		a.nextBoundary = events.NextBoundary(a.nextBoundary, info.Time, a.cfg.Interval)
	}
	return a.curTau, a.curLR, f, adapted
}

// adapt recomputes tau (and the learning rate) at an interval boundary and
// returns the loss it adapted at, clamped at 0.
func (a *AdaComm) adapt(info cluster.RoundInfo, evalLoss func() float64) float64 {
	f := evalLoss()
	if f < 0 {
		f = 0
	}

	// Learning-rate scheduling with the optional deferral policy.
	scheduled := a.cfg.Schedule.LR(info.Epoch)
	lr := a.curLR
	if scheduled < a.curLR {
		// A decay milestone has passed. Apply it only if tau has already
		// decayed to 1 (or deferral is off).
		if !a.cfg.DeferLRDecay || a.curTau <= 1 {
			lr = scheduled
		}
	} else if scheduled > a.curLR {
		lr = scheduled // schedules that increase (e.g. warmup) pass through
	}

	// Communication-period update rule.
	ratio := f / a.f0
	if ratio < 0 {
		ratio = 0
	}
	etaFactor := 1.0
	switch a.cfg.Coupling {
	case SqrtCoupling:
		// Under sqrt: tau ~ sqrt(eta0/eta). (Heavy-ball momentum scales both
		// rates by the same 1/(1-beta), so the ratio needs no correction.)
		etaFactor = a.eta0 / lr
	case FullCoupling:
		etaFactor = math.Pow(a.eta0/lr, 3)
	}
	factor := 1.0
	if a.cfg.LinkAware {
		factor = observedLinkFactor(info)
	}
	proposed := int(math.Ceil(math.Sqrt(etaFactor*ratio) * factor * float64(a.cfg.Tau0)))
	if proposed < 1 {
		proposed = 1
	}

	if proposed < a.curTau {
		a.curTau = proposed
	} else {
		// Saturation: force multiplicative decay (eq 18).
		decayed := int(math.Ceil(a.cfg.Gamma * float64(a.curTau)))
		if decayed >= a.curTau && a.curTau > 1 {
			decayed = a.curTau - 1
		}
		if decayed < 1 {
			decayed = 1
		}
		// Rules (19)/(20) can legitimately *raise* tau right after an LR
		// decay, and the link-aware scaling can raise it when the measured
		// communication cost grows. Allow a raise only on the interval the
		// underlying signal actually changed — the LR decayed under a rule
		// that couples eta into tau (under rule (17) eta never enters, so
		// an LR decay must NOT undo the monotone decay), or the link
		// factor grew — and enforce monotone decay otherwise.
		lrRaise := a.cfg.Coupling != NoCoupling && lr < a.curLR
		linkRaise := a.cfg.LinkAware && factor > a.linkFactor*(1+linkFactorTol)
		if (lrRaise || linkRaise) && proposed > a.curTau {
			a.curTau = proposed
		} else {
			a.curTau = decayed
		}
	}
	a.curLR = lr
	a.linkFactor = factor
	return f
}

// linkFactorTol is the relative growth of the link factor below which a
// boundary does not count as "links got slower" (guards MC noise in the
// observed timings from re-raising tau every interval).
const linkFactorTol = 0.05

// observedLinkFactor turns the engine-observed timing into the tau scale of
// Config.LinkAware: sqrt of the measured communication/computation ratio
// alpha_obs = (CommTime/Round) / (ComputeTime/Iter), floored at 1 so a
// compute-bound cluster reproduces the paper's rule exactly.
func observedLinkFactor(info cluster.RoundInfo) float64 {
	if info.Round <= 0 || info.Iter <= 0 || info.ComputeTime <= 0 {
		return 1
	}
	alpha := (info.CommTime / float64(info.Round)) / (info.ComputeTime / float64(info.Iter))
	if !(alpha > 1) { // NaN-safe
		return 1
	}
	return math.Sqrt(alpha)
}

// GridSearchTau0 mirrors the paper's tau_0 selection: run a short probe for
// each candidate period and keep the one with the lowest final training
// loss. run must execute a fresh short training run (e.g. one or two
// simulated epochs) with the given fixed tau and return its trace.
func GridSearchTau0(candidates []int, run func(tau int) *metrics.Trace) int {
	if len(candidates) == 0 {
		panic("core: GridSearchTau0 needs candidates")
	}
	best := candidates[0]
	bestLoss := math.Inf(1)
	for _, tau := range candidates {
		trace := run(tau)
		if l := trace.FinalLoss(); l < bestLoss {
			bestLoss = l
			best = tau
		}
	}
	return best
}
