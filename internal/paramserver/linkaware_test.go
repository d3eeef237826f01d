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

func TestFastLinkCount(t *testing.T) {
	for _, tc := range []struct {
		times  []float64
		m      int
		cutoff float64
		want   int
	}{
		{nil, 8, 3, 8},                        // no observations yet
		{[]float64{0, 0, 0, 0}, 4, 3, 4},      // free links
		{[]float64{1, 1, 1, 10}, 4, 3, 3},     // 10x straggler excluded
		{[]float64{1, 2.9, 3.1, 10}, 4, 3, 2}, // cutoff is relative to fastest
		{[]float64{0, 5, 5, 5}, 4, 3, 1},      // one free link dwarfs the rest
		{[]float64{2, 2, 2, 2}, 4, 3, 4},      // homogeneous finite links
	} {
		if got := FastLinkCount(tc.times, tc.m, tc.cutoff); got != tc.want {
			t.Errorf("FastLinkCount(%v, %d, %v) = %d, want %d", tc.times, tc.m, tc.cutoff, got, tc.want)
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

func TestArrivalPolicyClampsK(t *testing.T) {
	cases := []struct {
		name  string
		p     ArrivalPolicy
		times []float64
		m     int
		want  int
	}{
		{"zero K clamps to 1", ArrivalPolicy{K: 0}, nil, 8, 1},
		{"negative K clamps to 1", ArrivalPolicy{K: -3}, nil, 8, 1},
		{"K above m clamps to m", ArrivalPolicy{K: 20}, nil, 8, 8},
		{"plain K passes through", ArrivalPolicy{K: 5}, []float64{1, 1, 100}, 8, 5},
		{"link-aware, no observations, no cap", ArrivalPolicy{K: 5, LinkAware: true}, nil, 8, 5},
		{"link-aware caps at fast links", ArrivalPolicy{K: 5, LinkAware: true},
			[]float64{1, 1, 1, 100}, 8, 3},
		{"link-aware cutoff 3 keeps 2.9x", ArrivalPolicy{K: 4, LinkAware: true},
			[]float64{1, 2.9, 10, 10}, 8, 2},
		{"the cutoff is inclusive: 3x is in, 3.1x is out", ArrivalPolicy{K: 4, LinkAware: true},
			[]float64{1, 3, 3.1, 10}, 8, 2},
		{"cap never below 1", ArrivalPolicy{K: 4, LinkAware: true},
			[]float64{1, 5, 5, 5}, 8, 1},
		{"cap does not raise K", ArrivalPolicy{K: 2, LinkAware: true},
			[]float64{1, 1, 1, 1}, 8, 2},
	}
	for _, tc := range cases {
		if got := tc.p.Effective(tc.times, tc.m); got != tc.want {
			t.Errorf("%s: Effective = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestArrivalPolicyMatchesAdaSyncCap pins the refactor: the policy applied
// to raw (K, LinkTimes) must equal what AdaSync.capped historically
// computed — K itself without observations, FastLinkCount-capped with.
func TestArrivalPolicyMatchesAdaSyncCap(t *testing.T) {
	times := []float64{1, 1.5, 2, 50}
	for _, k := range []int{1, 2, 3, 4} {
		p := ArrivalPolicy{K: k, LinkAware: true}
		want := k
		if fast := FastLinkCount(times, 4, 3); want > fast {
			want = fast
		}
		if got := p.Effective(times, 4); got != want {
			t.Errorf("K=%d: policy %d, legacy cap %d", k, got, want)
		}
	}
}
