package cluster

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/sgd"
)

// testSetup builds a small logistic-regression PASGD problem.
type testSetup struct {
	proto  *nn.Network
	shards []*data.Dataset
	train  *data.Dataset
	test   *data.Dataset
	dm     *delaymodel.Model
}

func newSetup(t *testing.T, m int, alpha float64) *testSetup {
	t.Helper()
	r := rng.New(100)
	train := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: 4, Dim: 10, N: 800, Separation: 4, Noise: 1.2,
	}, r)
	test := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: 4, Dim: 10, N: 200, Separation: 4, Noise: 1.2,
	}, r)
	// Same class geometry for train/test: regenerate with one generator so
	// prototypes differ; for engine tests statistical detail is irrelevant.
	proto := nn.NewLogisticRegression(10, 4)
	proto.InitParams(rng.New(7))
	dm := delaymodel.New(m, rng.Constant{Value: 1}, rng.Constant{Value: alpha}, delaymodel.ConstantScaling{})
	return &testSetup{
		proto:  proto,
		shards: data.ShardIID(train, m, rng.New(8)),
		train:  train,
		test:   test,
		dm:     dm,
	}
}

func (s *testSetup) engine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(s.proto, s.shards, s.train, s.test, s.dm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func baseCfg() Config {
	return Config{
		BatchSize: 16,
		MaxIters:  400,
		EvalEvery: 50,
		Seed:      42,
	}
}

func TestEngineValidation(t *testing.T) {
	s := newSetup(t, 4, 1)
	if _, err := New(s.proto, nil, s.train, s.test, s.dm, baseCfg()); err == nil {
		t.Fatal("accepted zero shards")
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config, *delaymodel.Model)
	}{
		{"zero batch size", func(c *Config, _ *delaymodel.Model) { c.BatchSize = 0 }},
		{"missing stop condition", func(c *Config, _ *delaymodel.Model) { c.MaxIters, c.MaxTime = 0, 0 }},
		{"wrong straggler factor count", func(_ *Config, dm *delaymodel.Model) { dm.Stragglers = []float64{1} }},
		// A NaN factor never gated a round (v > max is false); negative
		// factors made compute time negative and ran the clock backwards.
		{"NaN straggler factor", func(_ *Config, dm *delaymodel.Model) { dm.Stragglers = []float64{1, math.NaN(), 1, 1} }},
		{"+Inf straggler factor", func(_ *Config, dm *delaymodel.Model) { dm.Stragglers = []float64{1, 1, math.Inf(1), 1} }},
		{"zero straggler factor", func(_ *Config, dm *delaymodel.Model) { dm.Stragglers = []float64{0, 1, 1, 1} }},
		{"-1 straggler factors", func(_ *Config, dm *delaymodel.Model) { dm.Stragglers = []float64{-1, -1, -1, -1} }},
		{"mismatched delay model worker count", func(_ *Config, dm *delaymodel.Model) { dm.M = 2 }},
		{"NaN shared bandwidth", func(_ *Config, dm *delaymodel.Model) { dm.Bandwidth = math.NaN() }},
	} {
		cfg, dm := baseCfg(), *s.dm
		tc.mut(&cfg, &dm)
		if _, err := New(s.proto, s.shards, s.train, s.test, &dm, cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// More workers than examples leave a shard empty, and its sampler panicked on
// the first batch: both constructors refuse it, naming the worker.
func TestEmptyShardRejected(t *testing.T) {
	s := newSetup(t, 801, 1) // over 800 training examples
	want := "has no training data (801 workers over 800 examples)"
	if _, err := New(s.proto, s.shards, s.train, s.test, s.dm, baseCfg()); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("New: error %v, want one that says %q", err, want)
	}
	if _, err := NewAsync(s.proto, s.shards, s.train, s.test, s.dm, baseAsyncCfg()); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("NewAsync: error %v, want one that says %q", err, want)
	}
	if s := newSetup(t, 800, 1); s.engine(t, baseCfg()) == nil { // one example each runs
		t.Error("no engine")
	}
}

// A non-finite budget must be refused at construction: NaN passes every
// "<= 0" test and Time >= NaN (or +Inf) is never true, so Run never returned.
func TestEngineRejectsNonFiniteMaxTime(t *testing.T) {
	s := newSetup(t, 4, 1)
	for _, tc := range []struct {
		name     string
		maxTime  float64
		maxIters int
	}{
		{"NaN alone", math.NaN(), 0},
		{"+Inf alone", math.Inf(1), 0},
		{"NaN beside MaxIters", math.NaN(), 400},
		{"+Inf beside MaxIters", math.Inf(1), 400},
		{"-Inf beside MaxIters", math.Inf(-1), 400},
	} {
		cfg := baseCfg()
		cfg.MaxTime, cfg.MaxIters = tc.maxTime, tc.maxIters
		if _, err := New(s.proto, s.shards, s.train, s.test, s.dm, cfg); err == nil {
			t.Errorf("%s: accepted MaxTime %v", tc.name, tc.maxTime)
		}
	}
	cfg := baseCfg()
	cfg.MaxTime, cfg.MaxIters = 50, 0
	if _, err := New(s.proto, s.shards, s.train, s.test, s.dm, cfg); err != nil {
		t.Errorf("finite MaxTime rejected: %v", err)
	}
}

func TestPASGDReducesLoss(t *testing.T) {
	s := newSetup(t, 4, 1)
	e := s.engine(t, baseCfg())
	trace := e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "pasgd")
	if trace.Len() < 3 {
		t.Fatalf("trace too short: %d", trace.Len())
	}
	first := trace.Points[0].Loss
	last := trace.FinalLoss()
	if last >= first/2 {
		t.Fatalf("PASGD failed to learn: %v -> %v", first, last)
	}
}

func TestTau1EqualsSyncSemantics(t *testing.T) {
	// tau=1 must average after every single local step: the trace's Iter
	// equals its Round count when recorded at boundaries, and the final
	// loss is finite and reduced.
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.MaxIters = 100
	e := s.engine(t, cfg)
	trace := e.Run(FixedTau{Tau: 1, Schedule: sgd.Const{Eta: 0.1}}, "sync")
	if trace.FinalLoss() >= trace.Points[0].Loss {
		t.Fatal("sync SGD did not reduce loss")
	}
}

func TestDeterminism(t *testing.T) {
	s := newSetup(t, 4, 1)
	run := func() []float64 {
		e := s.engine(t, baseCfg())
		e.Run(FixedTau{Tau: 4, Schedule: sgd.Const{Eta: 0.1}}, "run")
		return e.GlobalParams()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at param %d", i)
		}
	}
}

// poolMatchesSerial runs one config under the serial local-update loop and
// on compute pools two, three and four wide and requires bit-identical
// global parameters, trace and worker replicas: workers own all their state
// between averaging points, a slot's network carries nothing from one
// worker's step to the next, and every sync reduces in fixed worker order,
// so neither the width nor real concurrency can move a bit. With m not a
// multiple of the width the slots step unequal shares of the workers.
func poolMatchesSerial(t *testing.T, s *testSetup, cfg Config, ctrl Controller) {
	t.Helper()
	cfg.ComputeWorkers = 1
	e1 := s.engine(t, cfg)
	tr1 := e1.Run(ctrl, "serial")
	p1 := e1.GlobalParams()
	for _, width := range []int{2, 3, 4} {
		cfg.ComputeWorkers = width
		e2 := s.engine(t, cfg)
		tr2 := e2.Run(ctrl, "pool")
		for i, v := range e2.GlobalParams() {
			if math.Float64bits(v) != math.Float64bits(p1[i]) {
				t.Fatalf("m=%d, pool %d: global param %d is %v, serial %v", e1.m, width, i, v, p1[i])
			}
		}
		for w := 0; w < e1.m; w++ {
			if !floatsExact(e1.LocalModelParams(w), e2.LocalModelParams(w)) {
				t.Fatalf("m=%d, pool %d: worker %d's replica differs from serial", e1.m, width, w)
			}
		}
		if tr1.Len() != tr2.Len() {
			t.Fatalf("m=%d, pool %d: trace lengths differ: %d vs %d", e1.m, width, tr1.Len(), tr2.Len())
		}
		for i := range tr1.Points {
			a, b := tr1.Points[i], tr2.Points[i]
			if math.Float64bits(a.Loss) != math.Float64bits(b.Loss) || a.Time != b.Time ||
				math.Float64bits(a.Acc) != math.Float64bits(b.Acc) || a.Tau != b.Tau {
				t.Fatalf("m=%d, pool %d: traces differ at point %d: %+v vs %+v", e1.m, width, i, a, b)
			}
		}
	}
}

// TestAnyPoolWidthMatchesSerial runs poolMatchesSerial at m in {3, 5, 8},
// so m is below, a multiple of, and not a multiple of each width, over every
// mixing strategy, Adam with synced moments and a crash + blip schedule.
func TestAnyPoolWidthMatchesSerial(t *testing.T) {
	full := baseCfg()
	full.AccEverySync = 4

	choco := baseCfg()
	choco.Strategy = RingGossip
	choco.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25}
	choco.GossipGamma = 0.8

	elastic := baseCfg()
	elastic.Strategy = ElasticAveraging

	adam := baseCfg()
	adam.Opt = opt.Config{Rule: opt.RuleAdam, SyncedMoments: true}

	churn := baseCfg()
	churn.Opt = opt.Config{Rule: opt.RuleMomentum, Momentum: 0.9}

	for _, tc := range []struct {
		name   string
		cfg    Config
		faults string
	}{
		{"full", full, ""}, {"choco-ring", choco, ""}, {"elastic", elastic, ""},
		{"adam-synced", adam, ""}, {"crash+blip", churn, "crash:2@r10,blip:0@r3-8,blip:1@r15-20"},
	} {
		for _, m := range []int{3, 5, 8} {
			t.Run(fmt.Sprintf("%s/m=%d", tc.name, m), func(t *testing.T) {
				cfg := tc.cfg
				if tc.faults != "" {
					cfg.Faults = mustFaults(t, tc.faults)
				}
				poolMatchesSerial(t, newSetup(t, m, 1), cfg, FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.05}})
			})
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	poolMatchesSerial(t, newSetup(t, 4, 1), baseCfg(), FixedTau{Tau: 7, Schedule: sgd.Const{Eta: 0.1}})
}

func TestParallelMatchesSequentialWithBlockMomentum(t *testing.T) {
	cfg := baseCfg()
	cfg.Opt = opt.Config{Rule: opt.RuleMomentum, Momentum: 0.9}
	cfg.GlobalMomentum = 0.3
	poolMatchesSerial(t, newSetup(t, 4, 1), cfg, FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.05}})
}

func TestLargerTauFasterWallClockPerIteration(t *testing.T) {
	// With constant Y=1, D=1 (alpha=1), tau=10 should finish the same
	// iteration budget in ~(1+1)/(1+0.1) = 1.82x less simulated time.
	s := newSetup(t, 4, 1)
	run := func(tau int) float64 {
		e := s.engine(t, baseCfg())
		trace := e.Run(FixedTau{Tau: tau, Schedule: sgd.Const{Eta: 0.1}}, "t")
		return trace.Last().Time
	}
	t1 := run(1)
	t10 := run(10)
	ratio := t1 / t10
	want := delaymodel.SpeedupConstant(1, 10)
	if math.Abs(ratio-want) > 0.05*want {
		t.Fatalf("wall-clock speedup %v, want ~%v", ratio, want)
	}
}

func TestErrorFloorGrowsWithTau(t *testing.T) {
	// Paper's trade-off: with a fixed LR and enough iterations, larger tau
	// converges to a higher loss floor. Use a noisy problem (small batch).
	s := newSetup(t, 4, 1)
	run := func(tau int) float64 {
		cfg := baseCfg()
		cfg.BatchSize = 4
		cfg.MaxIters = 3000
		cfg.Seed = 11
		e := s.engine(t, cfg)
		trace := e.Run(FixedTau{Tau: tau, Schedule: sgd.Const{Eta: 0.15}}, "t")
		// Average the last few recorded losses to smooth noise.
		n := trace.Len()
		sum := 0.0
		for _, p := range trace.Points[n-5:] {
			sum += p.Loss
		}
		return sum / 5
	}
	floor1 := run(1)
	floor32 := run(32)
	if floor32 <= floor1 {
		t.Fatalf("tau=32 floor %v should exceed tau=1 floor %v", floor32, floor1)
	}
}

func TestStragglerFactorSlowsRounds(t *testing.T) {
	s := newSetup(t, 4, 0.5)
	cfg := baseCfg()
	cfg.MaxIters = 50
	base := s.engine(t, cfg)
	tr1 := base.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "fast")

	dm := *s.dm
	dm.Stragglers = []float64{1, 1, 1, 3} // one 3x-slower node
	slow, err := New(s.proto, s.shards, s.train, s.test, &dm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := slow.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "slow")
	if tr2.Last().Time <= tr1.Last().Time*2 {
		t.Fatalf("straggler should ~3x the round time: %v vs %v",
			tr2.Last().Time, tr1.Last().Time)
	}
}

func TestMaxTimeStops(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.MaxIters = 0
	cfg.MaxTime = 50
	e := s.engine(t, cfg)
	trace := e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "t")
	// Simulated clock must stop within one round of the budget: each
	// round is 5*1+1=6 seconds here.
	if got := trace.Last().Time; got < 50 || got > 60 {
		t.Fatalf("stopped at %v, want within one round past 50", got)
	}
}

func TestAccuracyRecording(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.AccEverySync = 1
	e := s.engine(t, cfg)
	trace := e.Run(FixedTau{Tau: 10, Schedule: sgd.Const{Eta: 0.1}}, "t")
	sawAcc := false
	for _, p := range trace.Points {
		if !math.IsNaN(p.Acc) {
			sawAcc = true
			if p.Acc < 0 || p.Acc > 1 {
				t.Fatalf("accuracy out of range: %v", p.Acc)
			}
		}
	}
	if !sawAcc {
		t.Fatal("no accuracy points recorded")
	}
}

func TestEvalSubset(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.EvalSubset = 100
	e := s.engine(t, cfg)
	if e.evalBatch.X.Rows != 100 {
		t.Fatalf("eval subset %d rows, want 100", e.evalBatch.X.Rows)
	}
	// Loss must still be finite and positive.
	if l := e.TrainLoss(); l <= 0 || math.IsNaN(l) {
		t.Fatalf("bad eval loss %v", l)
	}
}

func TestBlockMomentumTrainsStably(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.Opt = opt.Config{Rule: opt.RuleMomentum, Momentum: 0.9}
	cfg.GlobalMomentum = 0.3
	cfg.MaxIters = 600
	e := s.engine(t, cfg)
	trace := e.Run(FixedTau{Tau: 10, Schedule: sgd.Const{Eta: 0.05}}, "bm")
	if math.IsNaN(trace.FinalLoss()) || math.IsInf(trace.FinalLoss(), 0) {
		t.Fatal("block momentum diverged")
	}
	if trace.FinalLoss() >= trace.Points[0].Loss {
		t.Fatal("block momentum failed to learn")
	}
}

func TestLocalVsSyncModelAccess(t *testing.T) {
	s := newSetup(t, 4, 1)
	e := s.engine(t, baseCfg())
	e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "t")
	p := e.LocalModelParams(0)
	if len(p) != e.Dim() {
		t.Fatal("local params wrong length")
	}
	// After a run ends at an averaging boundary, local == global.
	g := e.GlobalParams()
	for i := range p {
		if p[i] != g[i] {
			t.Fatal("local model should equal global at sync point")
		}
	}
	if acc := e.EvalParamsAccuracy(p); acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v", acc)
	}
	if l := e.EvalParamsLoss(p); l <= 0 {
		t.Fatalf("loss %v", l)
	}
}

// controllerSpy records the RoundInfo sequence it observes.
type controllerSpy struct {
	infos []RoundInfo
}

func (c *controllerSpy) NextRound(info RoundInfo, _ func() float64) (int, float64) {
	c.infos = append(c.infos, info)
	return 3, 0.1
}
func (c *controllerSpy) Name() string { return "spy" }

func TestControllerSeesMonotoneState(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.MaxIters = 90
	e := s.engine(t, cfg)
	spy := &controllerSpy{}
	e.Run(spy, "t")
	if len(spy.infos) != 30 {
		t.Fatalf("controller called %d times, want 30 rounds", len(spy.infos))
	}
	for i := 1; i < len(spy.infos); i++ {
		prev, cur := spy.infos[i-1], spy.infos[i]
		if cur.Iter != prev.Iter+3 {
			t.Fatalf("iter jump %d -> %d", prev.Iter, cur.Iter)
		}
		if cur.Time <= prev.Time {
			t.Fatal("time not advancing")
		}
		if cur.Round != prev.Round+1 {
			t.Fatal("round not advancing")
		}
	}
}

// lossProbe evaluates the loss twice a round and holds each value to a
// fresh TrainLoss of its engine, keeping the iteration each round starts at.
type lossProbe struct {
	t     *testing.T
	e     *Engine
	iters []int
}

func (p *lossProbe) NextRound(info RoundInfo, evalLoss func() float64) (int, float64) {
	for k := 0; k < 2; k++ {
		if got, want := evalLoss(), p.e.TrainLoss(); math.Float64bits(got) != math.Float64bits(want) {
			p.t.Fatalf("round %d probe %d: evalLoss %v, the global model's loss %v", info.Round, k, got, want)
		}
	}
	p.iters = append(p.iters, info.Iter)
	return 3, 0.1
}
func (p *lossProbe) Name() string { return "loss-probe" }

// TestControllerLossIsTheGlobalModels: every evalLoss a controller makes is
// the synchronized model's training loss bit for bit, whether Run evaluates
// it or returns the trace point it just recorded at that round; on a
// two-wide pool, so the evaluation is spread over two workers' networks.
func TestControllerLossIsTheGlobalModels(t *testing.T) {
	cfg := baseCfg()
	cfg.MaxIters, cfg.EvalEvery, cfg.ComputeWorkers = 90, 9, 2
	e := newSetup(t, 4, 1).engine(t, cfg)
	p := &lossProbe{t: t, e: e}
	tr := e.Run(p, "t")
	// Every trace point but the last two (taken after the budget's last
	// round, then the final state) is where a round then starts, so each was
	// probed where Run hands back the point's loss.
	recorded := 0
	for _, pt := range tr.Points[:tr.Len()-2] {
		if slices.Contains(p.iters, pt.Iter) {
			recorded++
		}
	}
	if recorded != tr.Len()-2 {
		t.Fatalf("%d rounds started at a trace point of %d", recorded, tr.Len())
	}
}

func TestVariableTauController(t *testing.T) {
	// A controller that shrinks tau over rounds must produce decreasing
	// recorded Tau values in the trace.
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.MaxIters = 300
	cfg.EvalEvery = 30
	e := s.engine(t, cfg)
	ctrl := &shrinkingTau{tau: 16}
	trace := e.Run(ctrl, "shrink")
	first := trace.Points[1].Tau
	last := trace.Last().Tau
	if first <= last {
		t.Fatalf("tau did not shrink in trace: first %d last %d", first, last)
	}
}

type shrinkingTau struct{ tau int }

func (s *shrinkingTau) NextRound(info RoundInfo, _ func() float64) (int, float64) {
	if info.Round > 0 && info.Round%3 == 0 && s.tau > 1 {
		s.tau /= 2
		if s.tau < 1 {
			s.tau = 1
		}
	}
	return s.tau, 0.1
}
func (s *shrinkingTau) Name() string { return "shrinking" }

// timingProbe runs fixed 5-step rounds and keeps every RoundInfo it sees.
type timingProbe struct{ infos []RoundInfo }

func (p *timingProbe) Name() string { return "timing-probe" }

func (p *timingProbe) NextRound(info RoundInfo, _ func() float64) (int, float64) {
	p.infos = append(p.infos, info)
	return 5, 0.1
}

// roundComm is each round's synchronization time, read back from the
// cumulative CommTime the probe saw at the start of the next round.
func (p *timingProbe) roundComm() []float64 {
	var comm []float64
	for r := 1; r < len(p.infos); r++ {
		comm = append(comm, p.infos[r].CommTime-p.infos[r-1].CommTime)
	}
	return comm
}

func TestRoundInfoTimingFields(t *testing.T) {
	const d0 = 1 // newSetup's constant D0
	s := newSetup(t, 4, d0)
	s.dm.Bandwidth = 64
	links := make([]delaymodel.Link, 4)
	links[3].Bandwidth = 6.4
	s.dm.Links = links
	e := s.engine(t, baseCfg())
	probe := &timingProbe{}
	e.Run(probe, "timing")
	info := probe.infos[len(probe.infos)-1]
	if info.CommTime <= 0 || info.ComputeTime <= 0 {
		t.Fatalf("timing not populated: comm %v compute %v", info.CommTime, info.ComputeTime)
	}
	if got := info.CommTime + info.ComputeTime; math.Abs(got-info.Time) > 1e-9*info.Time {
		t.Fatalf("comm %v + compute %v != time %v", info.CommTime, info.ComputeTime, info.Time)
	}
	// Worker 3's 10x slower link gates every round: each round costs D0
	// plus its push, not a fast link's.
	push := float64(8 * e.xdim)
	want, fast := d0+push/6.4, d0+push/64
	for r, got := range probe.roundComm() {
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("round %d: comm time %v, want the slow link's %v (a fast link's is %v)", r, got, want, fast)
		}
	}
}
