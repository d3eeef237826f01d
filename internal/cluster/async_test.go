package cluster

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
)

// asyncSetup builds an n-client logistic workload for the event-driven
// engine (same blobs problem as newSetup, sharded wider).
func asyncSetup(t *testing.T, n int) *testSetup {
	t.Helper()
	r := rng.New(100)
	train := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: 4, Dim: 10, N: 800, Separation: 4, Noise: 1.2,
	}, r)
	test := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: 4, Dim: 10, N: 200, Separation: 4, Noise: 1.2,
	}, r)
	proto := nn.NewLogisticRegression(10, 4)
	proto.InitParams(rng.New(7))
	return &testSetup{
		proto:  proto,
		shards: data.ShardIID(train, n, rng.New(8)),
		train:  train,
		test:   test,
		dm:     delaymodel.New(n, rng.Constant{Value: 1}, rng.Constant{Value: 0.5}, delaymodel.ConstantScaling{}),
	}
}

func baseAsyncCfg() AsyncConfig {
	return AsyncConfig{
		Participation: 4,
		InFlight:      8,
		Tau:           4,
		BatchSize:     16,
		LR:            0.05,
		MaxUpdates:    40,
		EvalEvery:     50,
		Seed:          42,
	}
}

func (s *testSetup) async(t *testing.T, cfg AsyncConfig) *AsyncEngine {
	t.Helper()
	e, err := NewAsync(s.proto, s.shards, s.train, s.test, s.dm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAsyncValidation(t *testing.T) {
	s := asyncSetup(t, 8)
	cases := []struct {
		name string
		mut  func(*AsyncConfig)
	}{
		{"zero participation", func(c *AsyncConfig) { c.Participation = 0 }},
		{"participation > clients", func(c *AsyncConfig) { c.Participation = 9 }},
		{"in-flight < participation", func(c *AsyncConfig) { c.InFlight = 3 }},
		{"in-flight > clients", func(c *AsyncConfig) { c.InFlight = 9 }},
		{"zero tau", func(c *AsyncConfig) { c.Tau = 0 }},
		{"zero batch", func(c *AsyncConfig) { c.BatchSize = 0 }},
		{"no stop condition", func(c *AsyncConfig) { c.MaxUpdates = 0; c.MaxTime = 0 }},
		{"negative lr", func(c *AsyncConfig) { c.LR = -1 }},
		{"error feedback", func(c *AsyncConfig) {
			c.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25, ErrorFeedback: true}
		}},
		// Per-client Adam moments are Theta(clients*dim) state.
		{"adaptive local rule", func(c *AsyncConfig) { c.Opt = opt.Config{Rule: opt.RuleAdam} }},
	}
	for _, tc := range cases {
		cfg := baseAsyncCfg()
		tc.mut(&cfg)
		_, err := NewAsync(s.proto, s.shards, s.train, s.test, s.dm, cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if strings.Contains(err.Error(), "ServerOpt") {
			// A rejection may not send the user to a field no config has.
			t.Errorf("%s: error names a field that does not exist: %v", tc.name, err)
		}
	}
	// Straggler factors live on the delay model.
	for _, bad := range [][]float64{{1, 2}, {1, 1, 1, 1, 1, 1, 1, 0}} {
		dm := *s.dm
		dm.Stragglers = bad
		if _, err := NewAsync(s.proto, s.shards, s.train, s.test, &dm, baseAsyncCfg()); err == nil {
			t.Errorf("accepted straggler factors %v", bad)
		}
	}
	// Mismatched delay model.
	badDM := delaymodel.New(3, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
	if _, err := NewAsync(s.proto, s.shards, s.train, s.test, badDM, baseAsyncCfg()); err == nil {
		t.Error("accepted delay model with wrong worker count")
	}
	// A NaN shared bandwidth used to price every transfer as free.
	nanBW := *s.dm
	nanBW.Bandwidth = math.NaN()
	if _, err := NewAsync(s.proto, s.shards, s.train, s.test, &nanBW, baseAsyncCfg()); err == nil {
		t.Error("accepted a NaN shared bandwidth")
	}
	// Per-edge links price gossip graph rounds, not the async star exchange.
	edgeDM := delaymodel.New(8, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
	edgeDM.EdgeLinks = map[delaymodel.Edge]delaymodel.Link{{From: 0, To: 1}: {Latency: 1}}
	if _, err := NewAsync(s.proto, s.shards, s.train, s.test, edgeDM, baseAsyncCfg()); err == nil {
		t.Error("accepted per-edge links on the async engine")
	}
}

func TestAsyncRejectsNonFiniteMaxTime(t *testing.T) {
	s := asyncSetup(t, 8)
	for _, tc := range []struct {
		name       string
		maxTime    float64
		maxUpdates int
	}{
		{"NaN alone", math.NaN(), 0},
		{"+Inf alone", math.Inf(1), 0},
		{"NaN beside MaxUpdates", math.NaN(), 40},
		{"+Inf beside MaxUpdates", math.Inf(1), 40},
		{"-Inf beside MaxUpdates", math.Inf(-1), 40},
	} {
		cfg := baseAsyncCfg()
		cfg.MaxTime, cfg.MaxUpdates = tc.maxTime, tc.maxUpdates
		if _, err := NewAsync(s.proto, s.shards, s.train, s.test, s.dm, cfg); err == nil {
			t.Errorf("%s: accepted MaxTime %v", tc.name, tc.maxTime)
		}
	}
	cfg := baseAsyncCfg()
	cfg.MaxTime, cfg.MaxUpdates = 50, 0
	if _, err := NewAsync(s.proto, s.shards, s.train, s.test, s.dm, cfg); err != nil {
		t.Errorf("finite MaxTime rejected: %v", err)
	}
}

// TestStalenessWeight: 1/(1+s) is, bit for bit, the (1+s)^-1 of the
// polynomial rule the goldens were captured under, for every staleness the
// expiry bound lets through; fresh contributions weigh 1.
func TestStalenessWeight(t *testing.T) {
	for s := 0; s <= 64; s++ {
		got, want := stalenessWeight(s), math.Pow(1+float64(s), -1)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("stalenessWeight(%d) = %v, want %v", s, got, want)
		}
	}
	if stalenessWeight(0) != 1 || stalenessWeight(1) != 0.5 || stalenessWeight(3) != 0.25 {
		t.Error("stalenessWeight is not 1/(1+s)")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative staleness did not panic")
		}
	}()
	stalenessWeight(-1)
}

// TestAsyncDeterministicAcrossGOMAXPROCS asserts the seeded contract: the
// byte-for-byte event trace and the final parameters are a pure function of
// the seed, independent of scheduler parallelism.
func TestAsyncDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) (string, uint64, float64) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		s := asyncSetup(t, 8)
		cfg := baseAsyncCfg()
		cfg.RecordEvents = true
		e := s.async(t, cfg)
		tr := e.Run("det")
		return e.EventTrace(), hashParams(e.GlobalParams()), tr.Last().Loss
	}
	ev1, p1, l1 := run(1)
	ev8, p8, l8 := run(8)
	if ev1 != ev8 {
		t.Fatalf("event traces differ across GOMAXPROCS (len %d vs %d)", len(ev1), len(ev8))
	}
	if p1 != p8 || l1 != l8 {
		t.Fatalf("numerics differ across GOMAXPROCS: params %#x vs %#x, loss %v vs %v", p1, p8, l1, l8)
	}
	if len(ev1) == 0 {
		t.Fatal("empty event trace with RecordEvents set")
	}
}

// TestAsyncGoldenTrace pins async runs bit-identically, the same contract
// the lock-step golden tests enforce: any change to event ordering, RNG
// consumption, weighting, or accounting shows up here. The zero config is the
// original capture; the straggler row on a float32 QSGD wire was captured
// while the fault-free engine still skipped its fault path behind a nil
// sentinel. Each row holds under every fault-free schedule.
func TestAsyncGoldenTrace(t *testing.T) {
	straggler := baseAsyncCfg()
	straggler.Compress = compress.Spec{Kind: compress.KindQSGD, Bits: 4, Wire: compress.WireFloat32}
	for _, tc := range []struct {
		name                  string
		cfg                   AsyncConfig
		stragglers            []float64
		events, params, trace uint64
	}{
		{"zero", baseAsyncCfg(), nil, 0x5fb1b1600e8396cf, 0xe15a4767cb779e27, 0x11da0677779ad022},
		{"straggler-qsgd4-f32", straggler, []float64{1, 3, 1, 1, 1, 1, 5, 1}, 0xcd618445e1da92e4, 0xbb0228cd4fe50c33, 0x7fa15471ca3772ea},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, f := range faultFreeSchedules(t) {
				t.Run(f.name, func(t *testing.T) {
					s := asyncSetup(t, 8)
					s.dm.Stragglers = tc.stragglers
					cfg := tc.cfg
					cfg.RecordEvents = true
					cfg.Faults = f.sched
					e := s.async(t, cfg)
					tr := e.Run("golden-async")

					gotEvents := hashString(e.EventTrace())
					gotParams := hashParams(e.GlobalParams())
					gotTrace := hashTrace(tr)
					if gotEvents != tc.events || gotParams != tc.params || gotTrace != tc.trace {
						t.Fatalf("golden drift:\n events %#x want %#x\n params %#x want %#x\n trace  %#x want %#x",
							gotEvents, tc.events, gotParams, tc.params, gotTrace, tc.trace)
					}

					st := e.Stats()
					if st.Updates != cfg.MaxUpdates {
						t.Fatalf("updates %d, want %d", st.Updates, cfg.MaxUpdates)
					}
					if st.Applied < st.Updates*cfg.Participation {
						t.Fatalf("applied %d < updates*K %d", st.Applied, st.Updates*cfg.Participation)
					}
					if st.UpBytes <= 0 || st.DownBytes <= 0 {
						t.Fatalf("payload accounting empty: up %d down %d", st.UpBytes, st.DownBytes)
					}
				})
			}
		})
	}
}

// TestAsyncChurnExpiryGolden pins a float32 QSGD wire under churn and
// expiry: arrivals from downed clients and from versions past a lowered
// staleness bound are dropped and replaced at once, so dispatches land in
// the middle of a version as well as after every applyRound. Both kinds pull
// the float32 image of the global model; captured before that image was kept
// between versions instead of narrowed per dispatch.
func TestAsyncChurnExpiryGolden(t *testing.T) {
	s := asyncSetup(t, 8)
	cfg := baseAsyncCfg()
	cfg.MaxUpdates = 60
	cfg.RecordEvents = true
	cfg.Compress = compress.Spec{Kind: compress.KindQSGD, Bits: 4, Wire: compress.WireFloat32}
	cfg.Faults = mustFaults(t, "blip:0@r5-20,blip:1@r10-30,crash:2@r25,slow:3x5@r5-40,drop:0.15")
	s.dm.Stragglers = []float64{1, 3, 1, 1, 1, 1, 5, 1}
	e := s.async(t, cfg)
	e.maxStaleness = 1
	tr := e.Run("golden-async-churn")

	const events, params, trace = 0xab0079f567060bc1, 0x412d136d163bc868, 0xb719593df5932f1
	gotEvents, gotParams, gotTrace := hashString(e.EventTrace()), hashParams(e.GlobalParams()), hashTrace(tr)
	if gotEvents != events || gotParams != params || gotTrace != trace {
		t.Fatalf("golden drift:\n events %#x want %#x\n params %#x want %#x\n trace  %#x want %#x",
			gotEvents, uint64(events), gotParams, uint64(params), gotTrace, uint64(trace))
	}
	if st := e.Stats(); st.Expired == 0 || st.Updates != cfg.MaxUpdates {
		t.Fatalf("expired %d, updates %d of %d: the row no longer reaches what it pins", st.Expired, st.Updates, cfg.MaxUpdates)
	}
}

// TestAsyncPullIsNarrowedGlobal: on a float32 wire, pullBuf is
// Narrow32(global) bit for bit after construction and after every
// aggregate, so no dispatch of a version can read a stale image. The
// aggregates are planted: values that round to float32 ties, subnormals and
// magnitudes past float32's range go through the same refresh as trained ones.
func TestAsyncPullIsNarrowedGlobal(t *testing.T) {
	s := asyncSetup(t, 8)
	cfg := baseAsyncCfg()
	cfg.Compress = compress.Spec{Kind: compress.KindQSGD, Bits: 4, Wire: compress.WireFloat32}
	e := s.async(t, cfg)
	check := func(when string) {
		t.Helper()
		for j, v := range e.global {
			if want := compress.Narrow32(v); math.Float64bits(e.pullBuf[j]) != math.Float64bits(want) {
				t.Fatalf("%s: pullBuf[%d] = %x, Narrow32(global) = %x", when, j, math.Float64bits(e.pullBuf[j]), math.Float64bits(want))
			}
		}
	}
	check("construction")
	special := []float64{1 + 0x1p-24, -(1 + 3*0x1p-24), 0x1p-140, 1e39, -1e39, 0x1p-1074}
	r := rng.New(5)
	for round := 0; round < 50; round++ {
		for j := range e.aggBuf {
			e.aggBuf[j] = r.NormFloat64()
			if r.Intn(8) == 0 {
				e.aggBuf[j] = special[r.Intn(len(special))] - e.global[j]
			}
		}
		e.wsum = 1
		e.applyRound()
		check("after a planted aggregate")
	}
	for _, updates := range []int{1, 2, 7} {
		cfg.MaxUpdates = updates
		e = s.async(t, cfg)
		e.Run("pull")
		check("after a run's last aggregate")
	}
}

func hashString(s string) uint64 {
	var sum uint64 = 14695981039346656037
	const prime64 = 1099511628211
	for i := 0; i < len(s); i++ {
		sum ^= uint64(s[i])
		sum *= prime64
	}
	return sum
}

// TestAsyncShardingFootprint asserts the client-sharding contract: a large
// population runs with a constant number of materialized replicas and an
// in-flight set bounded by the configured overhang.
func TestAsyncShardingFootprint(t *testing.T) {
	n := 200
	s := asyncSetup(t, n)
	cfg := baseAsyncCfg()
	cfg.Participation = 8
	cfg.InFlight = 16
	cfg.MaxUpdates = 10
	e := s.async(t, cfg)
	e.Run("shard")
	st := e.Stats()
	if st.MaterializedReplicas != 1 {
		t.Fatalf("materialized replicas %d, want 1 (the compute slot, which evaluation borrows)", st.MaterializedReplicas)
	}
	if st.PeakInFlight > cfg.InFlight {
		t.Fatalf("peak in-flight %d exceeds configured %d", st.PeakInFlight, cfg.InFlight)
	}
	if st.Updates != cfg.MaxUpdates {
		t.Fatalf("updates %d, want %d", st.Updates, cfg.MaxUpdates)
	}
}

// TestAsyncScratchVectorsCountTheRuleState pins the footprint the federated
// example bounds: four aggregation vectors, one more for a narrowed pull, and
// one more for a momentum rule's buffer on the single compute-slot optimizer.
func TestAsyncScratchVectorsCountTheRuleState(t *testing.T) {
	s := asyncSetup(t, 8)
	f32 := compress.Spec{Wire: compress.WireFloat32}
	for _, tc := range []struct {
		rule opt.Config
		wire compress.Spec
		want int
	}{
		{opt.Config{}, compress.Spec{}, 4},
		{opt.Config{Rule: opt.RuleMomentum, Momentum: 0.9}, compress.Spec{}, 5},
		{opt.Config{Rule: opt.RuleNesterov, Momentum: 0.9}, compress.Spec{}, 5},
		{opt.Config{}, f32, 5},
		{opt.Config{Rule: opt.RuleMomentum, Momentum: 0.9}, f32, 6},
	} {
		cfg := baseAsyncCfg()
		cfg.Opt, cfg.Compress = tc.rule, tc.wire
		if got := s.async(t, cfg).Stats().ScratchVectors; got != tc.want {
			t.Errorf("%s over %s: %d scratch vectors, want %d", tc.rule, tc.wire, got, tc.want)
		}
	}
}

// TestAsyncStalenessExpiry forces a straggler so slow that its uploads are
// always older than the staleness bound (lowered to 1 here): they must be
// discarded, never applied, and the engine must keep making progress off the
// fast clients.
func TestAsyncStalenessExpiry(t *testing.T) {
	s := asyncSetup(t, 4)
	cfg := baseAsyncCfg()
	cfg.Participation = 1
	cfg.InFlight = 4
	cfg.MaxUpdates = 30
	s.dm.Stragglers = []float64{1, 1, 1, 500}
	e := s.async(t, cfg)
	e.maxStaleness = 1
	e.Run("expiry")
	st := e.Stats()
	if st.Expired == 0 {
		t.Fatal("no expirations despite 500x straggler and a staleness bound of 1")
	}
	if st.Updates != cfg.MaxUpdates {
		t.Fatalf("updates %d, want %d", st.Updates, cfg.MaxUpdates)
	}
}

// TestAsyncCompressedUplink: a top-k uplink (no error feedback) must cut
// accounted up-bytes to ~ratio of the dense run while still training.
func TestAsyncCompressedUplink(t *testing.T) {
	dense := asyncSetup(t, 8).async(t, baseAsyncCfg())
	dense.Run("dense")

	cfg := baseAsyncCfg()
	cfg.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25}
	comp := asyncSetup(t, 8).async(t, cfg)
	comp.Run("topk")

	du, cu := dense.Stats().UpBytes, comp.Stats().UpBytes
	if cu >= du {
		t.Fatalf("compressed up-bytes %d not below dense %d", cu, du)
	}
	if comp.TrainLoss() >= dense.TrainLoss()*2 {
		t.Fatalf("compressed loss %v way above dense %v", comp.TrainLoss(), dense.TrainLoss())
	}
}

// TestAsyncPartialMatchesFullParticipation is the seeded convergence check:
// K-of-m with a 3x overhang must land within tolerance of full
// participation's loss on the quickstart-scale workload.
func TestAsyncPartialMatchesFullParticipation(t *testing.T) {
	full := baseAsyncCfg()
	full.Participation = 8
	full.InFlight = 8
	full.MaxUpdates = 60
	ef := asyncSetup(t, 8).async(t, full)
	ef.Run("full")

	part := baseAsyncCfg()
	part.Participation = 3
	part.InFlight = 8
	part.MaxUpdates = 160 // same order of applied client updates
	ep := asyncSetup(t, 8).async(t, part)
	ep.Run("partial")

	lf, lp := ef.TrainLoss(), ep.TrainLoss()
	init := asyncSetup(t, 8).async(t, baseAsyncCfg()).TrainLoss()
	if lf >= init || lp >= init {
		t.Fatalf("no progress: init %v, full %v, partial %v", init, lf, lp)
	}
	if math.Abs(lf-lp) > 0.2 {
		t.Fatalf("partial participation diverged from full: %v vs %v", lp, lf)
	}
	if s := ep.Stats(); s.MeanStaleness <= 0 {
		t.Fatalf("partial run saw no staleness (mean %v) — overhang not overlapping rounds", s.MeanStaleness)
	}
}

// TestAsyncLinkAwareCapsArrivals: with one link far slower than the rest,
// the link-aware policy must shrink rounds below the configured K.
func TestAsyncLinkAwareCapsArrivals(t *testing.T) {
	s := asyncSetup(t, 8)
	links := make([]delaymodel.Link, 8)
	links[7] = delaymodel.Link{Latency: 50}
	s.dm.Links = links
	cfg := baseAsyncCfg()
	cfg.Participation = 8
	cfg.InFlight = 8
	cfg.LinkAware = true
	cfg.MaxUpdates = 20
	e := s.async(t, cfg)
	e.Run("linkaware")
	st := e.Stats()
	// 20 rounds of 8 arrivals each would be 160 applied; the cap must have
	// cut at least the slow link out of most rounds.
	if st.Applied >= st.Updates*cfg.Participation {
		t.Fatalf("link-aware run still waited for all %d arrivals every round (applied %d over %d updates)",
			cfg.Participation, st.Applied, st.Updates)
	}
}

// TestAsyncWireFloat32HalvesBothDirections: under the wire-only float32
// spec every in-flight message AND every model pull is accounted at 4
// bytes/coordinate — exactly half the dense float64 traffic in both
// directions — and training still converges.
func TestAsyncWireFloat32HalvesBothDirections(t *testing.T) {
	dense := asyncSetup(t, 8).async(t, baseAsyncCfg())
	dense.Run("dense")

	cfg := baseAsyncCfg()
	cfg.Compress = compress.Spec{Wire: compress.WireFloat32}
	narrow := asyncSetup(t, 8).async(t, cfg)
	narrow.Run("f32")

	ds, ns := dense.Stats(), narrow.Stats()
	// Bandwidth is 0 in this setup, so payload size has no timing effect:
	// both runs replay the same event schedule and the byte totals are
	// directly comparable.
	if ds.Updates != ns.Updates || ds.Applied != ns.Applied || ds.Expired != ns.Expired {
		t.Fatalf("event schedules diverged: %+v vs %+v", ds, ns)
	}
	if ns.DownBytes*2 != ds.DownBytes {
		t.Fatalf("down bytes %d, want exactly half of %d", ns.DownBytes, ds.DownBytes)
	}
	if ns.UpBytes*2 != ds.UpBytes {
		t.Fatalf("up bytes %d, want exactly half of %d", ns.UpBytes, ds.UpBytes)
	}
	if narrow.TrainLoss() >= dense.TrainLoss()*2 {
		t.Fatalf("float32-wire loss %v way above dense %v", narrow.TrainLoss(), dense.TrainLoss())
	}
}
