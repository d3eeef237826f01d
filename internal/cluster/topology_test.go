package cluster

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/delaymodel"
	"repro/internal/rng"
	"repro/internal/sgd"
)

// With constant Y = 1 and D0 = 1 on an infinite-bandwidth link, a tau-step
// round costs tau + LatencyHops(m), so the topology's hop count is directly
// visible in the final simulated time.
func TestTopologyHopsPriceRounds(t *testing.T) {
	const tau, iters = 5, 100
	rounds := float64(iters / tau)
	for _, tc := range []struct {
		topo comm.Topology
		hops float64
	}{
		{comm.AllGather, 1},
		{comm.Star, 2},
		{comm.Tree, 2 * math.Log2(4)},
		{comm.Ring, 2 * 3},
	} {
		t.Run(tc.topo.String(), func(t *testing.T) {
			s := newSetup(t, 4, 1)
			cfg := baseCfg()
			cfg.MaxIters = iters
			cfg.Topology = tc.topo
			e := s.engine(t, cfg)
			tr := e.Run(FixedTau{Tau: tau, Schedule: sgd.Const{Eta: 0.1}}, "t")
			want := rounds * (tau + tc.hops)
			if got := tr.Last().Time; math.Abs(got-want) > 1e-9 {
				t.Fatalf("final time %v, want %v", got, want)
			}
		})
	}
}

func TestTopologyRequiresFullAveraging(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	cfg.Topology = comm.Tree
	if _, err := New(s.proto, s.shards, s.train, s.test, s.dm, cfg); err == nil {
		t.Fatal("accepted explicit topology with ring gossip")
	}
}

func TestHeterogeneousLinkGatesRound(t *testing.T) {
	// One worker with a 10x worse link: the round's broadcast is gated by
	// the slow link, so the same iteration budget takes longer. With
	// constant distributions the exact stretch is computable.
	s := newSetup(t, 4, 1)
	bw := 64.0
	payload := float64(8 * s.proto.ParamLen())
	cfg := baseCfg()
	cfg.MaxIters = 100

	s.dm.Bandwidth = bw
	fast := s.engine(t, cfg)
	fastT := fast.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "homog").Last().Time

	s2 := newSetup(t, 4, 1)
	s2.dm.Bandwidth = bw
	s2.dm.Links = []delaymodel.Link{{}, {}, {}, {Bandwidth: bw / 10}}
	slow := s2.engine(t, cfg)
	slowT := slow.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "hetero").Last().Time

	rounds := 100.0 / 5
	wantFast := rounds * (5 + 1 + payload/bw)
	wantSlow := rounds * (5 + 1 + payload/(bw/10))
	if math.Abs(fastT-wantFast) > 1e-9 {
		t.Fatalf("homogeneous time %v, want %v", fastT, wantFast)
	}
	if math.Abs(slowT-wantSlow) > 1e-9 {
		t.Fatalf("heterogeneous time %v, want %v", slowT, wantSlow)
	}
}

func TestLinkLatencyCharged(t *testing.T) {
	// A pure-latency straggler link (infinite bandwidth) adds its latency to
	// every round even with size-free payloads.
	s := newSetup(t, 4, 1)
	s.dm.Links = []delaymodel.Link{{}, {}, {}, {Latency: 3}}
	cfg := baseCfg()
	cfg.MaxIters = 100
	e := s.engine(t, cfg)
	tr := e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "lat")
	rounds := 100.0 / 5
	want := rounds * (5 + 1 + 3)
	if got := tr.Last().Time; math.Abs(got-want) > 1e-9 {
		t.Fatalf("final time %v, want %v", got, want)
	}
}

func TestMismatchedLinksRejected(t *testing.T) {
	s := newSetup(t, 4, 1)
	dm := delaymodel.New(4, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
	dm.Links = []delaymodel.Link{{}}
	if _, err := New(s.proto, s.shards, s.train, s.test, dm, baseCfg()); err == nil {
		t.Fatal("accepted mismatched link count")
	}
}

func TestParallelMatchesSequentialUnderTopologyAndLinks(t *testing.T) {
	// The compute pool must stay bitwise identical when the comm layer
	// prices a non-trivial topology over heterogeneous links.
	s := newSetup(t, 4, 1)
	s.dm.Bandwidth = 128
	s.dm.Links = []delaymodel.Link{{}, {Latency: 0.5}, {}, {Bandwidth: 16}}
	cfg := baseCfg()
	cfg.MaxIters = 200
	cfg.Topology = comm.Ring
	poolMatchesSerial(t, s, cfg, FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}})
}
