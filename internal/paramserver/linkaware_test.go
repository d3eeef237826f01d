package paramserver

import (
	"testing"

	"repro/internal/delaymodel"
)

// slowLinks gives worker m-1 a 10x slower uplink than the shared bandwidth.
func slowLinks(m int, bandwidth float64) []delaymodel.Link {
	links := make([]delaymodel.Link, m)
	links[m-1].Bandwidth = bandwidth / 10
	return links
}

func adaSyncHashes(t *testing.T, m int, cfg Config, ada *AdaSync, name string) (params, trace uint64, clock float64) {
	t.Helper()
	proto, shards, train := psSetup(t, m)
	s, err := New(proto, shards, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := s.Run(ada, name)
	params = 14695981039346656037
	for _, v := range s.Params() {
		fnvBits(&params, v)
	}
	trace = 14695981039346656037
	for _, p := range tr.Points {
		fnvBits(&trace, p.Time)
		fnvBits(&trace, p.Loss)
		fnvBits(&trace, float64(p.Tau))
	}
	return params, trace, s.Clock()
}

// Golden hashes captured from the pre-link-aware tree (before Controller.Next
// took a RoundInfo): with LinkAware off, AdaSync runs — homogeneous and
// heterogeneous-links alike — must stay bit-identical.
func TestAdaSyncStaticGoldenBitIdentical(t *testing.T) {
	cases := []struct {
		name      string
		bandwidth float64
		links     []delaymodel.Link
		params    uint64
		trace     uint64
		clock     float64
	}{
		{"homog", 0, nil, 0x21c077b928eeaade, 0x2fa671251dfb22a2, 396.5822977360433},
		{"links", 64, slowLinks(4, 64), 0x5bec8bec028811e2, 0xcb3f2f071f0885e0, 10955.853968729534},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := psConfig(KAsync)
			cfg.Bandwidth = tc.bandwidth
			cfg.Links = tc.links
			ada := NewAdaSync(AdaSyncConfig{K0: 1, M: 4, Interval: 10, LR: 0.1})
			ph, th, clock := adaSyncHashes(t, 4, cfg, ada, tc.name)
			if ph != tc.params {
				t.Errorf("params hash %#016x, golden %#016x", ph, tc.params)
			}
			if th != tc.trace {
				t.Errorf("trace hash %#016x, golden %#016x", th, tc.trace)
			}
			if clock != tc.clock {
				t.Errorf("clock %v, golden %v", clock, tc.clock)
			}
		})
	}
}

// firstK is the K a fresh AdaSync hands the server on its first round.
func firstK(cfg AdaSyncConfig, times []float64) int {
	k, _ := NewAdaSync(cfg).Next(RoundInfo{LinkTimes: times}, func() float64 { return 1 })
	return k
}

// The fast-link count behind the link-aware cap (cutoff 3x the fastest
// link), read both from delaymodel.FastLinkCap and through the K a
// link-aware AdaSync starting at K0 = m hands the server.
func TestFastLinkCount(t *testing.T) {
	for _, tc := range []struct {
		times []float64
		m     int
		want  int
	}{
		{nil, 8, 8},                        // no observations yet
		{[]float64{0, 0, 0, 0}, 4, 4},      // free links
		{[]float64{1, 1, 1, 10}, 4, 3},     // 10x straggler excluded
		{[]float64{1, 2.9, 3.1, 10}, 4, 2}, // cutoff is relative to fastest
		{[]float64{0, 5, 5, 5}, 4, 1},      // one free link dwarfs the rest
		{[]float64{2, 2, 2, 2}, 4, 4},      // homogeneous finite links
	} {
		if got := delaymodel.FastLinkCap(tc.m, tc.times); got != tc.want {
			t.Errorf("FastLinkCap(%d, %v) = %d, want %d", tc.m, tc.times, got, tc.want)
		}
		cfg := AdaSyncConfig{K0: tc.m, M: tc.m, Interval: 10, LR: 0.1, LinkAware: true}
		if got := firstK(cfg, tc.times); got != tc.want {
			t.Errorf("link-aware AdaSync K0=M=%d on %v: K = %d, want %d", tc.m, tc.times, got, tc.want)
		}
	}
}

// The K AdaSync hands the server stays in [1, m]: a K0 outside it is
// refused at construction, loss-rule growth stops at m, and the link-aware
// cap neither drops K below 1 nor raises it.
func TestArrivalPolicyClampsK(t *testing.T) {
	for _, k0 := range []int{0, -3, 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAdaSync(K0=%d, M=8) did not panic", k0)
				}
			}()
			NewAdaSync(AdaSyncConfig{K0: k0, M: 8, Interval: 10, LR: 0.1})
		}()
	}

	// Stalled loss doubles K each interval: 5 -> 10, which clamps to m = 8.
	grow := NewAdaSync(AdaSyncConfig{K0: 5, M: 8, Interval: 1, LR: 0.1})
	grow.Next(RoundInfo{}, func() float64 { return 1 })
	if k, _ := grow.Next(RoundInfo{Time: 1}, func() float64 { return 1 }); k != 8 {
		t.Errorf("K grown past m = %d, want m = 8", k)
	}

	cases := []struct {
		name      string
		k         int
		linkAware bool
		times     []float64
		want      int
	}{
		{"plain K passes through", 5, false, []float64{1, 1, 100}, 5},
		{"link-aware, no observations, no cap", 5, true, nil, 5},
		{"link-aware caps at fast links", 5, true, []float64{1, 1, 1, 100}, 3},
		{"link-aware cutoff 3 keeps 2.9x", 4, true, []float64{1, 2.9, 10, 10}, 2},
		{"the cutoff is inclusive: 3x is in, 3.1x is out", 4, true, []float64{1, 3, 3.1, 10}, 2},
		{"cap never below 1", 4, true, []float64{1, 5, 5, 5}, 1},
		{"cap does not raise K", 2, true, []float64{1, 1, 1, 1}, 2},
	}
	for _, tc := range cases {
		cfg := AdaSyncConfig{K0: tc.k, M: 8, Interval: 10, LR: 0.1, LinkAware: tc.linkAware}
		if got := firstK(cfg, tc.times); got != tc.want {
			t.Errorf("%s: K = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Scripted check of the cap: on a 10x-straggler link table the link-aware
// controller refuses to grow K past the fast-link count, while the static
// rule saturates at m.
func TestAdaSyncLinkAwareCapsK(t *testing.T) {
	hetero := RoundInfo{LinkTimes: []float64{1, 1, 1, 10}}
	homog := RoundInfo{LinkTimes: []float64{1, 1, 1, 1}}

	aware := NewAdaSync(AdaSyncConfig{K0: 1, M: 4, Interval: 10, LR: 0.1, LinkAware: true})
	aware.Next(hetero, func() float64 { return 2.0 })
	var k int
	for i := 1; i <= 6; i++ {
		hetero.Time = float64(i*10 + 1)
		k, _ = aware.Next(hetero, func() float64 { return 0.5 })
	}
	if k != 3 {
		t.Fatalf("link-aware K = %d, want cap at 3 fast links", k)
	}

	static := NewAdaSync(AdaSyncConfig{K0: 1, M: 4, Interval: 10, LR: 0.1})
	static.Next(hetero, func() float64 { return 2.0 })
	for i := 1; i <= 6; i++ {
		hetero.Time = float64(i*10 + 1)
		k, _ = static.Next(hetero, func() float64 { return 0.5 })
	}
	if k != 4 {
		t.Fatalf("static K = %d, want m = 4", k)
	}

	// Homogeneous links never trigger the cap.
	awareHomog := NewAdaSync(AdaSyncConfig{K0: 1, M: 4, Interval: 10, LR: 0.1, LinkAware: true})
	awareHomog.Next(homog, func() float64 { return 2.0 })
	for i := 1; i <= 6; i++ {
		homog.Time = float64(i*10 + 1)
		k, _ = awareHomog.Next(homog, func() float64 { return 0.5 })
	}
	if k != 4 {
		t.Fatalf("link-aware K on homogeneous links = %d, want 4", k)
	}
}

// End-to-end on the event simulation: with one 10x slower uplink, the
// link-aware AdaSync must settle on a smaller K than the static rule and
// finish the same update budget in less simulated time.
func TestAdaSyncLinkAwareEndToEnd(t *testing.T) {
	run := func(linkAware bool) (maxK int, clock float64) {
		proto, shards, train := psSetup(t, 4)
		cfg := psConfig(KAsync)
		cfg.Bandwidth = 64
		cfg.Links = slowLinks(4, 64)
		cfg.MaxUpdates = 300
		s, err := New(proto, shards, train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ada := NewAdaSync(AdaSyncConfig{K0: 1, M: 4, Interval: 10, LR: 0.1, LinkAware: linkAware})
		tr, _ := s.Run(ada, "la")
		for _, p := range tr.Points {
			if p.Tau > maxK {
				maxK = p.Tau
			}
		}
		return maxK, s.Clock()
	}
	staticK, staticClock := run(false)
	awareK, awareClock := run(true)
	if awareK >= staticK {
		t.Fatalf("link-aware max K %d not below static %d", awareK, staticK)
	}
	if awareClock >= staticClock {
		t.Fatalf("link-aware run not faster: %v vs %v sim-s for the same updates", awareClock, staticClock)
	}
}

// kRecorder records the K its controller hands the server at each version.
type kRecorder struct {
	*AdaSync
	ks []int
}

func (r *kRecorder) Next(info RoundInfo, evalLoss func() float64) (int, float64) {
	k, lr := r.AdaSync.Next(info, evalLoss)
	r.ks = append(r.ks, k)
	return k, lr
}

// A worker down at version 0 has made no exchange, so its LinkTimes entry
// must read its link's cost, not a free link that makes every real link look
// slow: on homogeneous finite links link-aware AdaSync grows K past 1 long
// before the blip ends at version 41 (fault-free it reaches 8 by the 9th
// update).
func TestAdaSyncLinkAwareUndispatchedWorkerIsNoFreeLink(t *testing.T) {
	proto, shards, train := psSetup(t, 8)
	cfg := psConfig(KAsync)
	cfg.Bandwidth = 256
	cfg.MaxUpdates = 60
	cfg.Faults = mustFaults(t, "blip:0@r0-40")
	s, err := New(proto, shards, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &kRecorder{AdaSync: NewAdaSync(AdaSyncConfig{K0: 1, M: 8, Interval: 2, LR: 0.1, LinkAware: true})}
	s.Run(rec, "blip")
	for v, k := range rec.ks {
		if k > 1 {
			if v >= 41 {
				t.Fatalf("K first passed 1 at version %d, after the blip ended", v)
			}
			return
		}
	}
	t.Fatalf("K never passed 1 in %d updates: %v", len(rec.ks), rec.ks)
}
