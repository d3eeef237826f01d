package cluster

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/sgd"
)

// Golden traces captured from the pre-comm-layer engine (PR 1 tree). The
// communication-layer refactor must keep every legacy path — and, because
// the index-merge accumulates the same values in the same worker order, the
// compressed path too — bit-identical: same parameters, same trace times,
// same losses, same RNG consumption.

// hashBits folds a float64's bit pattern into an FNV-1a accumulator
// (little-endian byte order, matching the capture program).
func hashBits(h *uint64, v float64) {
	const prime64 = 1099511628211
	u := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		*h ^= uint64(byte(u >> (8 * i)))
		*h *= prime64
	}
}

func hashParams(p []float64) uint64 {
	var sum uint64 = 14695981039346656037
	for _, v := range p {
		hashBits(&sum, v)
	}
	return sum
}

func hashTrace(tr *metrics.Trace) uint64 {
	var sum uint64 = 14695981039346656037
	for _, p := range tr.Points {
		hashBits(&sum, p.Time)
		hashBits(&sum, p.Loss)
	}
	return sum
}

func TestGoldenTracesBitIdentical(t *testing.T) {
	base := baseCfg()

	ring := base
	ring.Strategy = RingGossip

	elastic := base
	elastic.Strategy = ElasticAveraging

	blockmom := base
	blockmom.Opt = opt.Config{Rule: opt.RuleMomentum, Momentum: 0.9}
	blockmom.GlobalMomentum = 0.3

	topk := base
	topk.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25, ErrorFeedback: true}

	cases := []struct {
		name      string
		cfg       Config
		bandwidth float64
		params    uint64
		trace     uint64
		finalTime float64
	}{
		{"full", base, 0, 0x40ee2aeb9872f8f8, 0x65f220237db69c2c, 480},
		{"ring", ring, 0, 0x209d53efaf08115d, 0xf96320afb58a2d19, 480},
		{"elastic", elastic, 0, 0xf4d594bd9ed3bc7b, 0x909d5859bae12b34, 480},
		{"blockmom", blockmom, 0, 0x6d9e57e85c55acd4, 0x992565660d92cfc4, 480},
		{"bw64-dense", base, 64, 0x40ee2aeb9872f8f8, 0xc904431c23792786, 920},
		{"topk-ef", topk, 0, 0x3b418a62fdd09c91, 0x2cd5fc15c5a7b0b2, 480},
	}
	// Every golden case must hold under both the legacy serial local-update
	// loop and the fanned-out compute pool: workers are independent between
	// averaging points, so pool width cannot change a bit of the trajectory.
	for _, pool := range []struct {
		suffix  string
		workers int
	}{
		{"", 1},
		{"/pool4", 4},
	} {
		for _, tc := range cases {
			cfg := tc.cfg
			cfg.ComputeWorkers = pool.workers
			t.Run(tc.name+pool.suffix, func(t *testing.T) {
				s := newSetup(t, 4, 1)
				s.dm.Bandwidth = tc.bandwidth
				e := s.engine(t, cfg)
				tr := e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, tc.name)
				if got := hashParams(e.GlobalParams()); got != tc.params {
					t.Errorf("params hash %#016x, golden %#016x", got, tc.params)
				}
				if got := hashTrace(tr); got != tc.trace {
					t.Errorf("trace hash %#016x, golden %#016x", got, tc.trace)
				}
				if got := tr.Last().Time; got != tc.finalTime {
					t.Errorf("final time %v, golden %v", got, tc.finalTime)
				}
			})
		}
	}
}
