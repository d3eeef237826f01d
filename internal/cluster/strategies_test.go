package cluster

import (
	"math"
	"testing"

	"repro/internal/sgd"
	"repro/internal/tensor"
)

func TestStrategyString(t *testing.T) {
	if FullAveraging.String() != "full-averaging" ||
		RingGossip.String() != "ring-gossip" ||
		ElasticAveraging.String() != "elastic-averaging" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(99).String() != "unknown-strategy" {
		t.Fatal("unknown strategy name")
	}
}

func TestRingGossipTrains(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	cfg.MaxIters = 600
	e := s.engine(t, cfg)
	tr := e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "ring")
	if tr.FinalLoss() >= tr.Points[0].Loss/2 {
		t.Fatalf("ring gossip failed to learn: %v -> %v", tr.Points[0].Loss, tr.FinalLoss())
	}
}

func TestRingGossipReplicasStayDistinct(t *testing.T) {
	// Unlike full averaging, ring mixing does not equalize replicas at a
	// sync point (for m > 3 the mix is not global).
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	cfg.MaxIters = 50
	e := s.engine(t, cfg)
	e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "ring")
	p0 := e.LocalModelParams(0)
	p2 := e.LocalModelParams(2)
	same := true
	for i := range p0 {
		if p0[i] != p2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("ring gossip should leave non-adjacent replicas distinct")
	}
}

func TestRingGossipPreservesMeanWhenMixing(t *testing.T) {
	// The uniform ring-mixing matrix is doubly stochastic, so one mixing
	// step preserves the replica mean exactly (modulo FP error). Verify by
	// comparing the replica mean before and after a SyncNow with no local
	// steps in between.
	s := newSetup(t, 5, 1)
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	e := s.engine(t, cfg)
	e.StepLocal(3, 0.1) // desynchronize replicas

	meanOf := func() []float64 {
		mean := make([]float64, e.Dim())
		for i := 0; i < e.Workers(); i++ {
			tensor.Axpy(1, e.LocalModelParams(i), mean)
		}
		tensor.Scal(1/float64(e.Workers()), mean)
		return mean
	}
	before := meanOf()
	e.SyncNow()
	after := meanOf()
	for i := range before {
		if math.Abs(before[i]-after[i]) > 1e-12*(1+math.Abs(before[i])) {
			t.Fatalf("ring mixing changed the replica mean at %d: %v vs %v",
				i, before[i], after[i])
		}
	}
}

func TestElasticAveragingTrains(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.Strategy = ElasticAveraging
	cfg.MaxIters = 800
	e := s.engine(t, cfg)
	tr := e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "easgd")
	if tr.FinalLoss() >= tr.Points[0].Loss/2 {
		t.Fatalf("elastic averaging failed to learn: %v -> %v",
			tr.Points[0].Loss, tr.FinalLoss())
	}
}

func TestElasticCenterMovesTowardWorkers(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.Strategy = ElasticAveraging
	e := s.engine(t, cfg)
	before := e.GlobalParams()
	e.StepLocal(10, 0.1)
	e.SyncNow()
	after := e.GlobalParams()
	moved := false
	for i := range before {
		if before[i] != after[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("elastic center did not move")
	}
}

func TestElasticPullsWorkersTowardCenter(t *testing.T) {
	// After a sync, each worker must be strictly closer to the (pre-sync)
	// center than before the sync.
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.Strategy = ElasticAveraging
	e := s.engine(t, cfg)
	center := e.GlobalParams()
	e.StepLocal(10, 0.1)
	distBefore := paramDist(e.LocalModelParams(0), center)
	e.SyncNow()
	distAfter := paramDist(e.LocalModelParams(0), center)
	if distAfter >= distBefore {
		t.Fatalf("worker not pulled toward center: %v -> %v", distBefore, distAfter)
	}
}

func paramDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestStrategiesParallelMatchesSequential(t *testing.T) {
	for _, strat := range []Strategy{RingGossip, ElasticAveraging} {
		cfg := baseCfg()
		cfg.Strategy = strat
		cfg.MaxIters = 200
		poolMatchesSerial(t, newSetup(t, 4, 1), cfg, FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}})
	}
}
