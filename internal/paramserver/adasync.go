package paramserver

import (
	"math"

	"repro/internal/events"
)

// AdaSyncConfig parameterizes the adaptive-asynchrony controller.
type AdaSyncConfig struct {
	K0       int     // initial aggregation size (small = more async)
	M        int     // worker count (upper bound for K)
	Interval float64 // wall-clock adaptation interval T0
	LR       float64 // learning rate (constant; schedules compose upstream)
	// LinkAware caps K at the number of links within 3x (slowCutoff) of the
	// fastest observed link (RoundInfo.LinkTimes) — the Kas Hanna et al.
	// 2022 direction of waiting only for the K fastest workers, so one
	// straggling link never gates every update. Off (the zero value) the
	// controller is exactly the loss-ratio rule. The cap is the shared
	// ArrivalPolicy rule, the same one the event-driven cluster engine
	// applies to its K-of-m aggregation.
	LinkAware bool
}

// slowCutoff is the multiple of the fastest link's transfer time beyond which
// a link-aware server considers a link too slow to wait for.
const slowCutoff = 3

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

	initialized  bool
	f0           float64
	nextBoundary float64
	curK         int
	lastK        int // K actually returned (after the link cap)
}

// NewAdaSync builds the controller.
func NewAdaSync(cfg AdaSyncConfig) *AdaSync {
	if cfg.K0 < 1 || cfg.M < cfg.K0 {
		panic("paramserver: AdaSync needs 1 <= K0 <= M")
	}
	if cfg.Interval <= 0 {
		panic("paramserver: AdaSync needs a positive interval")
	}
	return &AdaSync{cfg: cfg}
}

// Name implements Controller.
func (a *AdaSync) Name() string { return "AdaSync" }

// K returns the aggregation size most recently handed to the server
// (loss-rule K after the link cap, once running).
func (a *AdaSync) K() int {
	if a.lastK > 0 {
		return a.lastK
	}
	return a.curK
}

// ArrivalPolicy is the K-of-m arrival rule, factored out of this
// controller so the event-driven cluster engine and the K-async server
// share one definition of "how many arrivals is a sync worth waiting for":
// aggregate the first K arrivals, and — when LinkAware — never wait for
// more workers than have links within 3x (slowCutoff) of the fastest
// observed one (Kas Hanna et al. 2022).
type ArrivalPolicy struct {
	K         int
	LinkAware bool
}

// Effective returns the arrival count to wait for, given the most recent
// per-worker transfer-time observations (nil before the first round): K
// clamped into [1, m], then capped at FastLinkCount when LinkAware.
func (p ArrivalPolicy) Effective(times []float64, m int) int {
	k := p.K
	if k < 1 {
		k = 1
	}
	if k > m {
		k = m
	}
	if p.LinkAware {
		if fast := FastLinkCount(times, m, slowCutoff); k > fast {
			k = fast
		}
	}
	return k
}

// FastLinkCount returns how many of the given per-worker transfer times are
// within cutoff of the fastest — the links a link-aware server is willing to
// wait for. A nil/empty slice (no observations yet) counts every worker.
func FastLinkCount(times []float64, m int, cutoff float64) int {
	if len(times) == 0 {
		return m
	}
	fastest := math.Inf(1)
	for _, t := range times {
		if t < fastest {
			fastest = t
		}
	}
	n := 0
	for _, t := range times {
		if t <= fastest*cutoff {
			n++
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Next implements Controller.
func (a *AdaSync) Next(info RoundInfo, evalLoss func() float64) (int, float64) {
	if !a.initialized {
		a.f0 = evalLoss()
		if a.f0 <= 0 {
			a.f0 = math.SmallestNonzeroFloat64
		}
		a.curK = a.cfg.K0
		a.nextBoundary = a.cfg.Interval
		a.initialized = true
		a.lastK = a.capped(a.curK, info)
		return a.lastK, a.cfg.LR
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
	a.lastK = a.capped(a.curK, info)
	return a.lastK, a.cfg.LR
}

// capped applies the link-aware ceiling to the loss-rule K via the shared
// ArrivalPolicy (the loss rule keeps curK in [K0, M], so the policy's clamp
// is a no-op here and the result is bit-identical to the pre-policy cap).
func (a *AdaSync) capped(k int, info RoundInfo) int {
	p := ArrivalPolicy{K: k, LinkAware: a.cfg.LinkAware}
	return p.Effective(info.LinkTimes, a.cfg.M)
}
