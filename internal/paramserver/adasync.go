package paramserver

import (
	"math"

	"repro/internal/delaymodel"
	"repro/internal/events"
)

// AdaSyncConfig parameterizes the adaptive-asynchrony controller.
type AdaSyncConfig struct {
	K0       int     // initial aggregation size (small = more async)
	M        int     // worker count (upper bound for K)
	Interval float64 // wall-clock adaptation interval T0
	LR       float64 // learning rate (constant; schedules compose upstream)
	// LinkAware caps K at the number of links within 3x of the fastest
	// observed link (RoundInfo.LinkTimes, delaymodel.FastLinkCap) — the Kas
	// Hanna et al. 2022 direction of waiting only for the K fastest workers,
	// so one straggling link never gates every update. Off (the zero value)
	// the controller is exactly the loss-ratio rule. The event-driven cluster
	// engine's K-of-m rounds apply the same cap.
	LinkAware bool
}

// stallGrowth is the multiplicative bump applied to K when the loss-ratio
// rule stalls (the mirror image of AdaComm's gamma decay).
const stallGrowth = 2

// AdaSync adapts the server's K over wall-clock intervals: the AdaComm
// rule inverted. AdaComm shrinks tau as sqrt(F_l/F_0); staleness noise
// scales like 1/K where PASGD's local-drift noise scales like tau, so
// AdaSync GROWS K as sqrt(F_0/F_l), capped at m (fully synchronous). Early
// training tolerates staleness and buys update throughput; late training
// needs low-variance updates to reach a low floor — the same error-runtime
// win-win, on the asynchrony axis. With Config.LinkAware the grown K is
// additionally capped at the count of fast links, so on a heterogeneous
// cluster "fully synchronous" converges to "synchronous over the links worth
// waiting for".
type AdaSync struct {
	cfg AdaSyncConfig

	f0           float64
	nextBoundary float64
	curK         int // 0 until the first round
}

// NewAdaSync builds the controller.
func NewAdaSync(cfg AdaSyncConfig) *AdaSync {
	if cfg.K0 < 1 || cfg.M < cfg.K0 {
		panic("paramserver: AdaSync needs 1 <= K0 <= M")
	}
	if !(cfg.Interval > 0 && cfg.Interval <= math.MaxFloat64) {
		panic("paramserver: AdaSync needs a positive finite interval")
	}
	return &AdaSync{cfg: cfg}
}

// Name implements Controller.
func (a *AdaSync) Name() string { return "AdaSync" }

// Next implements Controller.
func (a *AdaSync) Next(info RoundInfo, evalLoss func() float64) (int, float64) {
	if a.curK == 0 {
		a.f0 = evalLoss()
		if a.f0 <= 0 {
			a.f0 = math.SmallestNonzeroFloat64
		}
		a.curK = a.cfg.K0
		a.nextBoundary = a.cfg.Interval
		return a.capped(a.curK, info), a.cfg.LR
	}
	if info.Time >= a.nextBoundary {
		f := evalLoss()
		if f <= 0 {
			f = math.SmallestNonzeroFloat64
		}
		proposed := int(math.Ceil(math.Sqrt(a.f0/f) * float64(a.cfg.K0)))
		if proposed > a.curK {
			a.curK = proposed
		} else {
			// Stalled: force growth (mirror of AdaComm's eq-18 decay).
			a.curK = int(math.Ceil(stallGrowth * float64(a.curK)))
		}
		if a.curK > a.cfg.M {
			a.curK = a.cfg.M
		}
		a.nextBoundary = events.NextBoundary(a.nextBoundary, info.Time, a.cfg.Interval)
	}
	return a.capped(a.curK, info), a.cfg.LR
}

// capped applies the link-aware ceiling to the loss-rule K.
func (a *AdaSync) capped(k int, info RoundInfo) int {
	if a.cfg.LinkAware {
		return delaymodel.FastLinkCap(k, info.LinkTimes)
	}
	return k
}
