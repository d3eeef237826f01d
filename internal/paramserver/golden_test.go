package paramserver

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/delaymodel"
	"repro/internal/metrics"
)

// Golden traces captured from the pre-comm-layer server. Every later
// change to how a push travels (priced pulls, per-worker links, a decode
// straight into the round's sum) must keep every zero-value-config path —
// including the finite-bandwidth dense push — bit-identical.

func fnvBits(h *uint64, v float64) {
	const prime64 = 1099511628211
	u := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		*h ^= uint64(byte(u >> (8 * i)))
		*h *= prime64
	}
}

func fnvParams(p []float64) uint64 {
	var sum uint64 = 14695981039346656037
	for _, v := range p {
		fnvBits(&sum, v)
	}
	return sum
}

func fnvTrace(tr *metrics.Trace) uint64 {
	var sum uint64 = 14695981039346656037
	for _, p := range tr.Points {
		fnvBits(&sum, p.Time)
		fnvBits(&sum, p.Loss)
	}
	return sum
}

func TestGoldenTracesBitIdentical(t *testing.T) {
	ksync := psConfig(KSync)

	kasync := psConfig(KAsync)

	ksyncBW := psConfig(KSync)
	ksyncBW.Bandwidth = 50
	ksyncBW.MaxUpdates = 50

	// Uncompressed under churn, on a priced link: captured while the
	// uncompressed push still bypassed the compressor.
	const churn = "blip:0@r10-40,blip:1@r30-60,crash:2@r80,slow:3x4@r20-70,drop:0.1"
	ksyncChurn := psConfig(KSync)
	ksyncChurn.Bandwidth = 50
	ksyncChurn.MaxUpdates = 120
	ksyncChurn.Faults = mustFaults(t, churn)
	kasyncChurn := ksyncChurn
	kasyncChurn.Mode = KAsync

	// A priced exact pull on heterogeneous links: captured while the server
	// still built the pull it priced and kept a lossy delta-coded pull
	// beside it.
	ksyncPull := psConfig(KSync)
	ksyncPull.MaxUpdates = 80
	ksyncPull.PullCompress = compress.Spec{Kind: compress.KindIdentity}
	ksyncPull.Bandwidth = 50
	ksyncPull.Links = []delaymodel.Link{{Latency: 0.2, Bandwidth: 20}, {}, {Latency: 1}, {Bandwidth: 200}}
	kasyncPull := ksyncPull
	kasyncPull.Mode = KAsync

	// Latency and a finite rate on every link, K = m so every exchange's
	// arrival gates a round: captured while the server resolved its own
	// bandwidths, before it priced exchanges through delaymodel's link rule.
	// It pins the order dur adds the link's terms in (latency, then wire).
	ksyncLat := psConfig(KSync)
	ksyncLat.MaxUpdates = 60
	ksyncLat.Bandwidth = 70
	ksyncLat.Links = []delaymodel.Link{{Latency: 0.3}, {Latency: 0.7, Bandwidth: 30}, {Latency: 1.3, Bandwidth: 110}, {Latency: 0.1}}
	kasyncLat := ksyncLat
	kasyncLat.Mode = KAsync

	cases := []struct {
		name   string
		cfg    Config
		k      int
		lr     float64
		params uint64
		trace  uint64
		clock  float64
	}{
		{"ksync", ksync, 4, 0.2, 0xde3c142579fecb4c, 0xc8251e922fb5a2ff, 446.04160610066697},
		{"kasync", kasync, 2, 0.1, 0x06d8d1a511e1f61f, 0xcb45685b1fe12d48, 134.13718879672388},
		{"ksync-bw", ksyncBW, 4, 0.2, 0x83f9650c1d56991d, 0x706737d24a6f6281, 471.03423112474451},
		{"ksync-churn", ksyncChurn, 3, 0.1, 0x1f061f541cc7516c, 0xb17ee88228eb4853, 2066.804190121697},
		{"kasync-churn", kasyncChurn, 3, 0.1, 0x765f128dcd75de8b, 0x2e01b030a5f2faad, 2052.5815427889047},
		{"ksync-exact-pull-links", ksyncPull, 3, 0.2, 0x1131481969452997, 0xfcac8713b2013cd2, 1318.5145275254597},
		{"kasync-exact-pull-links", kasyncPull, 2, 0.1, 0xd6867dbe722a2e0f, 0xd4751a18c46bb423, 598.4140994386788},
		{"ksync-latency-links", ksyncLat, 4, 0.1, 0x94a715fb8fce359c, 0x405d1ffea252b6bc, 806.9683124671367},
		{"kasync-latency-links", kasyncLat, 2, 0.1, 0x0a1acd46f3a41515, 0xdc005e0806090196, 254.88148405401842},
	}
	for _, tc := range cases {
		// A fault-free row holds under every way of attaching no fault.
		scheds := []namedSchedule{{"churn", tc.cfg.Faults}}
		if tc.cfg.Faults == nil {
			scheds = faultFreeSchedules(t)
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, f := range scheds {
				t.Run(f.name, func(t *testing.T) {
					cfg := tc.cfg
					cfg.Faults = f.sched
					proto, shards, train := psSetup(t, 4)
					s, err := New(proto, shards, train, cfg)
					if err != nil {
						t.Fatal(err)
					}
					tr, _ := s.Run(FixedK{K: tc.k, LR: tc.lr}, tc.name)
					if got := fnvParams(s.Params()); got != tc.params {
						t.Errorf("params hash %#016x, golden %#016x", got, tc.params)
					}
					if got := fnvTrace(tr); got != tc.trace {
						t.Errorf("trace hash %#016x, golden %#016x", got, tc.trace)
					}
					if got := s.Clock(); got != tc.clock {
						t.Errorf("clock %v, golden %v", got, tc.clock)
					}
				})
			}
		})
	}
}
