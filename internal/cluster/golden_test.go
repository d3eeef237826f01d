package cluster

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/delaymodel"
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

	ringIdentity := ring
	ringIdentity.Compress = compress.Spec{Kind: compress.KindIdentity}

	elastic := base
	elastic.Strategy = ElasticAveraging

	blockmom := base
	blockmom.Opt = opt.Config{Rule: opt.RuleMomentum, Momentum: 0.9}
	blockmom.GlobalMomentum = 0.3

	topk := base
	topk.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25, ErrorFeedback: true}

	// Synced Adam extends every averaged payload by the second moment: the
	// raw mean and the compressed delta mean over the extended vector.
	adam := base
	adam.Opt = opt.Config{Rule: opt.RuleAdam, SyncedMoments: true}

	adamQSGD := adam
	adamQSGD.Compress = compress.Spec{Kind: compress.KindQSGD, Bits: 4}

	elasticTopK := elastic
	elasticTopK.Compress = topk.Compress

	const churn = "blip:1@r10-30,drop:0.1"

	cases := []struct {
		name      string
		cfg       Config
		bandwidth float64
		faults    string // "" runs under every fault-free schedule
		params    uint64
		trace     uint64
		finalTime float64
	}{
		{"full", base, 0, "", 0x40ee2aeb9872f8f8, 0x65f220237db69c2c, 480},
		{"ring", ring, 0, "", 0x209d53efaf08115d, 0xf96320afb58a2d19, 480},
		{"ring/identity", ringIdentity, 0, "", 0x209d53efaf08115d, 0xf96320afb58a2d19, 480},
		{"elastic", elastic, 0, "", 0xf4d594bd9ed3bc7b, 0x909d5859bae12b34, 480},
		{"blockmom", blockmom, 0, "", 0x6d9e57e85c55acd4, 0x992565660d92cfc4, 480},
		{"bw64-dense", base, 64, "", 0x40ee2aeb9872f8f8, 0xc904431c23792786, 920},
		{"topk-ef", topk, 0, "", 0x3b418a62fdd09c91, 0x2cd5fc15c5a7b0b2, 480},
		// Captured while the fault-free engine and the unsynced payload still
		// ran code paths of their own, behind nil-schedule and no-extension
		// sentinels.
		{"full/adam-synced", adam, 0, "", 0xb6a3dc0b0682ef3c, 0x7df96878f61c4cbe, 480},
		{"full/adam-synced-qsgd4", adamQSGD, 0, "", 0xc656c20a4f78396b, 0xecda5f772d4adcc7, 480},
		{"full/adam-synced-bw64-churn", adam, 64, churn, 0xa21a1e1cb5ec9222, 0x6fde0704767f2e02, 1679},
		{"full/adam-synced-qsgd4-bw64-churn", adamQSGD, 64, churn, 0x74bfc478e5a44106, 0x8567df4d1ef14612, 597.3125},
		{"elastic/topk-ef-bw64-slow", elasticTopK, 64, "slow:2x4@r10-30", 0x9da97c0fe7304cd6, 0x1ce934cbdec9dce4, 774.9375},
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
			scheds := []namedSchedule{{"churn", mustFaults(t, tc.faults)}}
			if tc.faults == "" {
				scheds = faultFreeSchedules(t)
			}
			t.Run(tc.name+pool.suffix, func(t *testing.T) {
				for _, f := range scheds {
					cfg := tc.cfg
					cfg.ComputeWorkers = pool.workers
					cfg.Faults = f.sched
					t.Run(f.name, func(t *testing.T) {
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
			})
		}
	}
}

// TestGoldenUncompressedGossipBitIdentical pins the gossip and elastic
// configurations the table above does not reach — graph topologies with a
// slow priced edge under churn, global momentum, synced Adam — to hashes
// captured while uncompressed ring gossip and elastic averaging still had raw
// exchange paths of their own. Uncompressed and explicit-identity runs are
// held to the same hashes: a lossless wire ships the parameters themselves,
// so the two specs run one protocol.
func TestGoldenUncompressedGossipBitIdentical(t *testing.T) {
	const churn = "blip:0@r5-12,blip:1@r20-28,slow:2x4@r10-30,drop:0.1"
	slowEdge := map[delaymodel.Edge]delaymodel.Link{
		{From: 0, To: 1}: {Latency: 2, Bandwidth: 256},
		{From: 1, To: 0}: {Latency: 2, Bandwidth: 256},
	}
	adam := opt.Config{Rule: opt.RuleAdam, SyncedMoments: true}
	cases := []struct {
		name     string
		m        int
		mut      func(*testing.T, *Config)
		edges    map[delaymodel.Edge]delaymodel.Link
		params   uint64
		replicas uint64
		trace    uint64
		final    float64
	}{
		{"ring/m2", 2, func(*testing.T, *Config) {}, nil, 0x23f35ca614316fb6, 0xdca312822f20b4f9, 0x2655a6283e031f0e, 535},
		{"ring/m3", 3, func(*testing.T, *Config) {}, nil, 0x4d050beb14249c31, 0x075f1e1a3be777dc, 0xc02f924b756aae4d, 535},
		{"ring/m5", 5, func(*testing.T, *Config) {}, nil, 0x3250507ce79cbd07, 0xc817040c9276d5b2, 0xebb16cdc3300646d, 535},
		{"ring/torus3x3-edge-churn", 9, func(t *testing.T, c *Config) {
			c.Topology = mustTopo(t, "torus:3x3")
			c.Faults = mustFaults(t, churn)
		}, slowEdge, 0x0798e6b87df22788, 0x13e9cd5d391cf648, 0x96fde735d713827d, 796.875},
		{"ring/varying-edge-churn", 6, func(t *testing.T, c *Config) {
			c.Topology = mustTopo(t, "varying:ring,star@B=3")
			c.Faults = mustFaults(t, churn)
		}, slowEdge, 0xa90525467e9cd8d8, 0xa27185d6e90cc81a, 0x0d19b54c71185f2b, 787.25},
		{"ring/gmom", 4, func(_ *testing.T, c *Config) { c.GlobalMomentum = 0.3 }, nil, 0xbc221b8d0a32268b, 0x2470915a5a3b8d04, 0xcb3d8dd81578fce0, 535},
		{"ring/gmom-churn", 4, func(t *testing.T, c *Config) {
			c.GlobalMomentum = 0.3
			c.Faults = mustFaults(t, churn)
		}, nil, 0xd0bcee4f4389c8bd, 0x1d02d50c611c8c10, 0xe3909c55402c66f7, 601},
		{"ring/adam-synced-churn", 4, func(t *testing.T, c *Config) {
			c.Opt = adam
			c.Faults = mustFaults(t, churn)
		}, nil, 0x9b27d4b721addc64, 0x687bbe6e00606b7b, 0xc0717a420413d316, 722},
		{"elastic/gmom-churn", 4, func(t *testing.T, c *Config) {
			c.Strategy = ElasticAveraging
			c.GlobalMomentum = 0.3
			c.Faults = mustFaults(t, churn)
		}, nil, 0xcd89053524175ad3, 0xfdaac884d1c78ada, 0x8a1a2338f14a832d, 601},
	}
	for _, tc := range cases {
		for _, spec := range []compress.Spec{{}, {Kind: compress.KindIdentity}} {
			t.Run(tc.name+"/"+spec.String(), func(t *testing.T) {
				s := newSetup(t, tc.m, 1)
				s.dm.Bandwidth = 512
				s.dm.EdgeLinks = tc.edges
				cfg := baseCfg()
				cfg.Strategy = RingGossip
				cfg.ComputeWorkers = 1
				cfg.Compress = spec
				tc.mut(t, &cfg)
				e := s.engine(t, cfg)
				tr := e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, tc.name)
				var replicas []float64
				for i := 0; i < e.Workers(); i++ {
					replicas = append(replicas, e.LocalModelParams(i)...)
				}
				if got := hashParams(e.GlobalParams()); got != tc.params {
					t.Errorf("params hash %#016x, golden %#016x", got, tc.params)
				}
				if got := hashParams(replicas); got != tc.replicas {
					t.Errorf("replicas hash %#016x, golden %#016x", got, tc.replicas)
				}
				if got := hashTrace(tr); got != tc.trace {
					t.Errorf("trace hash %#016x, golden %#016x", got, tc.trace)
				}
				if got := tr.Last().Time; got != tc.final {
					t.Errorf("final time %v, golden %v", got, tc.final)
				}
			})
		}
	}
}
