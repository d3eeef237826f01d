package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/delaymodel"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sgd"
)

// Tests for graph-native gossip: arbitrary mixing topologies via
// Config.Topology graph specs, time-varying sequences, the adaptive
// consensus step, and per-edge delay pricing through the engine.

func mustTopo(t *testing.T, s string) comm.Topology {
	t.Helper()
	topo, err := comm.ParseTopology(s)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestGraphRingTopologyBitIdenticalToDefault(t *testing.T) {
	// Driving the engine with an explicit "graph:ring" topology must be
	// bit-identical to the built-in ring path — same replica trajectories,
	// same evaluation model, same simulated times — uncompressed and under an
	// explicit identity spec. This is the refactor's safety net: the legacy
	// arithmetic is now one Graph among many.
	for _, m := range []int{2, 3, 5} {
		for _, spec := range []compress.Spec{{}, {Kind: compress.KindIdentity}} {
			s := newSetup(t, m, 1)
			cfg := baseCfg()
			cfg.Strategy = RingGossip
			cfg.MaxIters = 200
			cfg.Compress = spec

			legacy := s.engine(t, cfg)
			trL := legacy.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "legacy")

			cfg.Topology = mustTopo(t, "graph:ring")
			asGraph := s.engine(t, cfg)
			trG := asGraph.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "graph")

			for i := 0; i < m; i++ {
				pl, pg := legacy.LocalModelParams(i), asGraph.LocalModelParams(i)
				for j := range pl {
					if pl[j] != pg[j] {
						t.Fatalf("m=%d spec=%v: worker %d param %d diverged", m, spec, i, j)
					}
				}
			}
			gl, gg := legacy.GlobalParams(), asGraph.GlobalParams()
			for j := range gl {
				if gl[j] != gg[j] {
					t.Fatalf("m=%d spec=%v: evaluation model diverged at %d", m, spec, j)
				}
			}
			if trL.Len() != trG.Len() {
				t.Fatalf("m=%d spec=%v: trace lengths differ", m, spec)
			}
			for i := range trL.Points {
				if trL.Points[i].Loss != trG.Points[i].Loss ||
					trL.Points[i].Time != trG.Points[i].Time {
					t.Fatalf("m=%d spec=%v: traces differ at point %d", m, spec, i)
				}
			}
		}
	}
}

func TestCompleteGraphOneSyncIsGlobalMean(t *testing.T) {
	// On the complete graph every row of W is uniform 1/m over all nodes, so
	// a single uncompressed gossip sync lands every worker exactly on the mean of the
	// pre-sync replicas, accumulated in the row's fixed ascending order.
	const m = 5
	s := newSetup(t, m, 1)
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	cfg.Topology = mustTopo(t, "complete")
	e := s.engine(t, cfg)
	e.StepLocal(7, 0.1)
	pre := make([][]float64, m)
	for i := range pre {
		pre[i] = e.LocalModelParams(i)
	}
	e.SyncNow()
	for i := 0; i < m; i++ {
		got := e.LocalModelParams(i)
		for j := range got {
			sum := pre[0][j]
			for k := 1; k < m; k++ {
				sum += pre[k][j]
			}
			if want := sum / m; got[j] != want {
				t.Fatalf("worker %d param %d: %v, want global mean %v bit-for-bit", i, j, got[j], want)
			}
		}
	}
}

func TestGraphTopologiesTrain(t *testing.T) {
	// Every shipped graph family runs end-to-end uncompressed and compressed
	// and reduces the loss. m = 16 so the torus spec pins.
	for _, spec := range []string{"torus:4x4", "expander", "regular:4@11", "graph:star",
		"varying:ring,torus:4x4@B=3"} {
		t.Run(spec, func(t *testing.T) {
			for _, cs := range []compress.Spec{{}, {Kind: compress.KindTopK, Ratio: 0.25}} {
				s := newSetup(t, 16, 1)
				cfg := baseCfg()
				cfg.Strategy = RingGossip
				cfg.Topology = mustTopo(t, spec)
				cfg.MaxIters = 300
				cfg.Compress = cs
				if cs.Enabled() {
					cfg.GossipGamma = 0.6
				}
				e := s.engine(t, cfg)
				tr := e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, spec)
				if !(tr.FinalLoss() < tr.Points[0].Loss/2) {
					t.Fatalf("compress=%v: failed to learn: %v -> %v",
						cs, tr.Points[0].Loss, tr.FinalLoss())
				}
			}
		})
	}
}

func TestTimeVaryingTopologyAdvances(t *testing.T) {
	// varying:ring,star@B=2 holds each graph for two syncs. The active
	// adjacency (what per-edge pricing charges) must follow the schedule:
	// node 1 has degree 2 on the ring and degree 1 on the star.
	s := newSetup(t, 5, 1)
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	cfg.Topology = mustTopo(t, "varying:ring,star@B=2")
	e := s.engine(t, cfg)
	if !e.gseq.Varying() || e.gseq.Len() != 2 {
		t.Fatalf("sequence not time-varying: len %d", e.gseq.Len())
	}
	wantDeg := []int{2, 2, 1, 1, 2, 2} // ring, ring, star, star, ring, ring
	for sync, want := range wantDeg {
		e.StepLocal(2, 0.1)
		e.SyncNow()
		if e.syncs != sync+1 {
			t.Fatalf("after sync %d: counter %d", sync, e.syncs)
		}
		if got := len(e.activeAdj[1]); got != want {
			t.Fatalf("sync %d: node 1 degree %d, want %d", sync, got, want)
		}
	}
}

func TestAdaptGossipGammaFollowsSpectralGap(t *testing.T) {
	topk := compress.Spec{Kind: compress.KindTopK, Ratio: 0.25}
	s := newSetup(t, 16, 1)
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	cfg.Compress = topk
	cfg.AdaptGossipGamma = true
	cfg.Topology = mustTopo(t, "varying:torus:4x4,ring@B=1")
	e := s.engine(t, cfg)
	want := []float64{
		graph.AdaptiveGamma(graph.Torus(4, 4).SpectralGap()),
		graph.AdaptiveGamma(graph.Ring(16).SpectralGap()),
	}
	if len(e.gammas) != 2 || e.gammas[0] != want[0] || e.gammas[1] != want[1] {
		t.Fatalf("adaptive gammas %v, want %v", e.gammas, want)
	}
	// The torus gap is far larger than the ring's, so its consensus step is
	// more aggressive; both stay inside the clamp.
	if !(e.gammas[0] > e.gammas[1]) || e.gammas[1] < 0.05 || e.gammas[0] > 1 {
		t.Fatalf("adaptive gammas not ordered/clamped: %v", e.gammas)
	}
	tr := e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "adaptive")
	if !(tr.FinalLoss() < tr.Points[0].Loss/2) {
		t.Fatalf("adaptive gamma failed to learn: %v -> %v", tr.Points[0].Loss, tr.FinalLoss())
	}

	// Validation: the adaptive step needs the CHOCO path, and excludes an
	// explicit gamma.
	bad := baseCfg()
	bad.Strategy = RingGossip
	bad.AdaptGossipGamma = true
	if _, err := New(s.proto, s.shards, s.train, s.test, s.dm, bad); err == nil ||
		!strings.Contains(err.Error(), "compression") {
		t.Fatal("adaptive gamma accepted without compression")
	}
	bad.Compress = topk
	bad.GossipGamma = 0.5
	if _, err := New(s.proto, s.shards, s.train, s.test, s.dm, bad); err == nil ||
		!strings.Contains(err.Error(), "excludes") {
		t.Fatal("adaptive gamma accepted alongside explicit GossipGamma")
	}
}

func TestGraphTopologyValidation(t *testing.T) {
	s := newSetup(t, 4, 1)
	// A graph topology requires the gossip strategy...
	cfg := baseCfg()
	cfg.Topology = mustTopo(t, "complete")
	if _, err := New(s.proto, s.shards, s.train, s.test, s.dm, cfg); err == nil ||
		!strings.Contains(err.Error(), "requires RingGossip") {
		t.Fatal("graph topology accepted with full averaging")
	}
	// ...and a spec that cannot instantiate at this m fails construction.
	cfg = baseCfg()
	cfg.Strategy = RingGossip
	cfg.Topology = mustTopo(t, "torus:4x4")
	if _, err := New(s.proto, s.shards, s.train, s.test, s.dm, cfg); err == nil {
		t.Fatal("torus:4x4 accepted at m=4")
	}
}

func TestPerEdgeStragglerGatesGossipRounds(t *testing.T) {
	// One 10x-latency edge (3,4): the ring activates it every sync, so every
	// round pays D0 + 10; the 4x4 torus does not contain the edge, so the
	// same delay table costs nothing. With constant distributions the times
	// are exact: 20 rounds of tau=5 cost 20*(5+1+10) vs 20*(5+1).
	run := func(spec string) float64 {
		s := newSetup(t, 16, 1)
		s.dm.EdgeLinks = map[delaymodel.Edge]delaymodel.Link{
			{From: 3, To: 4}: {Latency: 10},
			{From: 4, To: 3}: {Latency: 10},
		}
		cfg := baseCfg()
		cfg.Strategy = RingGossip
		cfg.Topology = mustTopo(t, spec)
		cfg.MaxIters = 100
		e := s.engine(t, cfg)
		return e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, spec).Last().Time
	}
	if got, want := run("graph:ring"), 20.0*(5+1+10); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ring time %v, want %v", got, want)
	}
	if got, want := run("torus:4x4"), 20.0*(5+1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("torus time %v, want %v", got, want)
	}

	// Per-edge tables price gossip graph rounds only.
	s := newSetup(t, 4, 1)
	s.dm.EdgeLinks = map[delaymodel.Edge]delaymodel.Link{{From: 0, To: 1}: {Latency: 1}}
	if _, err := New(s.proto, s.shards, s.train, s.test, s.dm, baseCfg()); err == nil ||
		!strings.Contains(err.Error(), "require RingGossip") {
		t.Fatal("edge links accepted with full averaging")
	}
	bad := delaymodel.New(4, rng.Constant{Value: 1}, rng.Constant{Value: 1}, delaymodel.ConstantScaling{})
	bad.EdgeLinks = map[delaymodel.Edge]delaymodel.Link{{From: 0, To: 9}: {}}
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	if _, err := New(s.proto, s.shards, s.train, s.test, bad, cfg); err == nil {
		t.Fatal("degenerate edge table accepted")
	}
}

func TestPerEdgeGossipParallelBitIdentical(t *testing.T) {
	// The compute pool must stay bitwise identical under a graph topology
	// with per-edge pricing (the adjacency is published inside the
	// fixed-order sync, outside the fanned-out phase).
	s := newSetup(t, 16, 1)
	s.dm.EdgeLinks = map[delaymodel.Edge]delaymodel.Link{
		{From: 3, To: 4}: {Latency: 10},
		{From: 4, To: 3}: {Latency: 10},
	}
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	cfg.Topology = mustTopo(t, "varying:torus:4x4,expander@B=2")
	cfg.MaxIters = 100
	poolMatchesSerial(t, s, cfg, FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}})
}
