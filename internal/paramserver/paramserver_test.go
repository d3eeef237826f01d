package paramserver

import (
	"math"
	"strings"
	"testing"

	"repro/internal/compress"

	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func psSetup(t *testing.T, m int) (*nn.Network, []*data.Dataset, *data.Dataset) {
	t.Helper()
	full := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: 4, Dim: 10, N: 800, Separation: 4, Noise: 1.2, LabelNoise: 0.05,
	}, rng.New(400))
	proto := nn.NewLogisticRegression(10, 4)
	proto.InitParams(rng.New(401))
	shards := data.ShardIID(full, m, rng.New(402))
	return proto, shards, full
}

func psConfig(mode Mode) Config {
	return Config{
		Mode:       mode,
		BatchSize:  16,
		PushDelay:  rng.Constant{Value: 0.1},
		ComputeY:   rng.Exponential{MeanVal: 1},
		MaxUpdates: 200,
		EvalEvery:  20,
		EvalSubset: 300,
		Seed:       7,
	}
}

func TestModeString(t *testing.T) {
	if KSync.String() != "k-sync" || KAsync.String() != "k-async" {
		t.Fatal("mode names")
	}
	if Mode(9).String() != "unknown-mode" {
		t.Fatal("unknown mode name")
	}
}

func TestConfigValidation(t *testing.T) {
	proto, shards, train := psSetup(t, 4)
	bad := psConfig(KSync)
	bad.BatchSize = 0
	if _, err := New(proto, shards, train, bad); err == nil {
		t.Fatal("accepted zero batch")
	}
	bad = psConfig(KSync)
	bad.MaxUpdates, bad.MaxTime = 0, 0
	if _, err := New(proto, shards, train, bad); err == nil {
		t.Fatal("accepted missing stop condition")
	}
	bad = psConfig(KSync)
	bad.ComputeY = nil
	if _, err := New(proto, shards, train, bad); err == nil {
		t.Fatal("accepted nil distributions")
	}
	if _, err := New(proto, nil, train, psConfig(KSync)); err == nil {
		t.Fatal("accepted zero shards")
	}
	// The shared rate is checked like a link's: bw > 0 used to price a NaN
	// or negative one as a free, infinite link.
	for _, bw := range []float64{math.NaN(), -1, math.Inf(1)} {
		bad = psConfig(KSync)
		bad.Bandwidth = bw
		if _, err := New(proto, shards, train, bad); err == nil {
			t.Errorf("accepted shared bandwidth %v", bw)
		}
	}
}

func TestConfigRejectsNonFiniteMaxTime(t *testing.T) {
	proto, shards, train := psSetup(t, 4)
	for _, tc := range []struct {
		name       string
		maxTime    float64
		maxUpdates int
	}{
		{"NaN alone", math.NaN(), 0},
		{"+Inf alone", math.Inf(1), 0},
		{"NaN beside MaxUpdates", math.NaN(), 200},
		{"+Inf beside MaxUpdates", math.Inf(1), 200},
		{"-Inf beside MaxUpdates", math.Inf(-1), 200},
	} {
		for _, mode := range []Mode{KSync, KAsync} {
			cfg := psConfig(mode)
			cfg.MaxTime, cfg.MaxUpdates = tc.maxTime, tc.maxUpdates
			if _, err := New(proto, shards, train, cfg); err == nil {
				t.Errorf("%s (%s): accepted MaxTime %v", tc.name, mode, tc.maxTime)
			}
		}
	}
	cfg := psConfig(KSync)
	cfg.MaxTime, cfg.MaxUpdates = 50, 0
	if _, err := New(proto, shards, train, cfg); err != nil {
		t.Errorf("finite MaxTime rejected: %v", err)
	}
}

func TestKSyncTrains(t *testing.T) {
	proto, shards, train := psSetup(t, 4)
	s, err := New(proto, shards, train, psConfig(KSync))
	if err != nil {
		t.Fatal(err)
	}
	trace, stale := s.Run(FixedK{K: 4, LR: 0.2}, "ksync")
	if trace.FinalLoss() >= trace.Points[0].Loss/2 {
		t.Fatalf("K-sync failed to learn: %v -> %v",
			trace.Points[0].Loss, trace.FinalLoss())
	}
	if stale.Max != 0 {
		t.Fatalf("K-sync staleness must be 0, got max %v", stale.Max)
	}
	if s.Version() != 200 {
		t.Fatalf("versions %d, want 200", s.Version())
	}
}

func TestKAsyncTrains(t *testing.T) {
	proto, shards, train := psSetup(t, 4)
	s, err := New(proto, shards, train, psConfig(KAsync))
	if err != nil {
		t.Fatal(err)
	}
	trace, stale := s.Run(FixedK{K: 1, LR: 0.1}, "async")
	if trace.FinalLoss() >= trace.Points[0].Loss/2 {
		t.Fatalf("K-async failed to learn: %v -> %v",
			trace.Points[0].Loss, trace.FinalLoss())
	}
	// Fully async with m=4: staleness must actually occur.
	if stale.Max == 0 {
		t.Fatal("K-async(K=1) produced no staleness")
	}
}

func TestDeterminism(t *testing.T) {
	proto, shards, train := psSetup(t, 4)
	run := func() []float64 {
		s, err := New(proto, shards, train, psConfig(KAsync))
		if err != nil {
			t.Fatal(err)
		}
		s.Run(FixedK{K: 2, LR: 0.1}, "r")
		return s.Params()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

func TestKSyncExactTiesServeEveryWorker(t *testing.T) {
	// Constant compute and push times make every round's m arrivals tie
	// exactly. The queue's seeded tie-break must spread the fastest-K set
	// over all workers (index order would starve workers K..m-1 forever),
	// and the run must still be a pure function of the seed.
	const m = 8
	run := func() *Server {
		proto, shards, train := psSetup(t, m)
		cfg := psConfig(KSync)
		cfg.ComputeY = rng.Constant{Value: 1}
		cfg.MaxUpdates = 50
		s, err := New(proto, shards, train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(FixedK{K: m / 2, LR: 0.1}, "ties")
		return s
	}
	a, b := run(), run()
	for i, w := range a.workers {
		// w.grad is written only when w's arrival is collected.
		if tensor.Norm2(w.grad) == 0 {
			t.Errorf("worker %d never contributed a gradient", i)
		}
	}
	if fnvParams(a.Params()) != fnvParams(b.Params()) {
		t.Fatal("two runs of one seed diverged")
	}
}

func TestSmallerKFasterWallClock(t *testing.T) {
	// K-sync with K=1 waits only for the fastest worker: with exponential
	// compute times it completes the same number of updates in much less
	// simulated time than K=4 (full sync).
	proto, shards, train := psSetup(t, 4)
	runTime := func(k int) float64 {
		s, err := New(proto, shards, train, psConfig(KSync))
		if err != nil {
			t.Fatal(err)
		}
		tr, _ := s.Run(FixedK{K: k, LR: 0.1}, "k")
		return tr.Last().Time
	}
	t1, t4 := runTime(1), runTime(4)
	// Analytic ratio of update times: (y/m + d) vs (y*H_m + d).
	wantRatio := ExpectedKSyncUpdateTime(1, 4, 4, 0.1) / ExpectedKSyncUpdateTime(1, 4, 1, 0.1)
	got := t4 / t1
	if got < wantRatio*0.8 || got > wantRatio*1.25 {
		t.Fatalf("K=4/K=1 time ratio %v, want ~%v", got, wantRatio)
	}
}

func TestKSyncUpdateTimeFormula(t *testing.T) {
	// Monte-Carlo check of the K-th-order-statistic formula.
	r := rng.New(9)
	const m, k, trials = 8, 3, 50000
	sum := 0.0
	for t := 0; t < trials; t++ {
		vals := make([]float64, m)
		for i := range vals {
			vals[i] = r.ExpFloat64()
		}
		// K-th smallest.
		for i := 0; i < k; i++ {
			minIdx := i
			for j := i + 1; j < m; j++ {
				if vals[j] < vals[minIdx] {
					minIdx = j
				}
			}
			vals[i], vals[minIdx] = vals[minIdx], vals[i]
		}
		sum += vals[k-1]
	}
	mc := sum / trials
	want := ExpectedKSyncUpdateTime(1, m, k, 0)
	if math.Abs(mc-want) > 0.02 {
		t.Fatalf("K-th order statistic MC %v vs formula %v", mc, want)
	}
}

func TestKSyncFormulaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("accepted K > m")
		}
	}()
	ExpectedKSyncUpdateTime(1, 4, 5, 0)
}

func TestAsyncStalenessShrinksWithK(t *testing.T) {
	// Larger K means the server waits for more arrivals per update, so
	// version numbers advance more slowly relative to worker pulls and
	// mean staleness (in versions) drops.
	proto, shards, train := psSetup(t, 8)
	meanStale := func(k int) float64 {
		cfg := psConfig(KAsync)
		s, err := New(proto, shards, train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, stale := s.Run(FixedK{K: k, LR: 0.05}, "k")
		return stale.Mean
	}
	s1, s8 := meanStale(1), meanStale(8)
	if s8 >= s1 {
		t.Fatalf("staleness should shrink with K: K=1 %v vs K=8 %v", s1, s8)
	}
}

func TestAdaSyncGrowsK(t *testing.T) {
	a := NewAdaSync(AdaSyncConfig{K0: 1, M: 8, Interval: 10, LR: 0.1})
	k, lr := a.Next(RoundInfo{}, func() float64 { return 2.0 })
	if k != 1 || lr != 0.1 {
		t.Fatalf("initial K %d lr %v", k, lr)
	}
	// Loss dropped 4x: K = ceil(sqrt(4)*1) = 2.
	k, _ = a.Next(RoundInfo{Time: 11}, func() float64 { return 0.5 })
	if k != 2 {
		t.Fatalf("K after 4x loss drop = %d, want 2", k)
	}
	// Stalled loss: growth rule doubles K.
	k, _ = a.Next(RoundInfo{Time: 21}, func() float64 { return 0.5 })
	if k != 4 {
		t.Fatalf("K after stall = %d, want 4", k)
	}
	// Capped at m.
	for i := 0; i < 5; i++ {
		k, _ = a.Next(RoundInfo{Time: float64(31 + 10*i)}, func() float64 { return 0.5 })
	}
	if k != 8 {
		t.Fatalf("K not capped at m: %d", k)
	}
}

// An interval below what the simulated clock resolves used to spin the
// boundary catch-up forever; it means "adapt at every update".
func TestAdaSyncTinyInterval(t *testing.T) {
	a := NewAdaSync(AdaSyncConfig{K0: 1, M: 8, Interval: 1e-12, LR: 0.1})
	evals := 0
	probe := func() float64 { evals++; return 2.0 }
	for round := 0; round <= 50; round++ {
		a.Next(RoundInfo{Time: 1e4 * float64(round)}, probe)
	}
	if evals != 51 || a.K() != 8 { // F0, then a stalled-loss doubling per update
		t.Fatalf("%d probes over 50 updates (want 51), K = %d (want the cap 8)", evals, a.K())
	}
}

func TestAdaSyncValidation(t *testing.T) {
	for _, cfg := range []AdaSyncConfig{
		{K0: 0, M: 4, Interval: 1},
		{K0: 5, M: 4, Interval: 1},
		{K0: 1, M: 4, Interval: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("accepted %+v", cfg)
				}
			}()
			NewAdaSync(cfg)
		}()
	}
}

func TestAdaSyncEndToEnd(t *testing.T) {
	// AdaSync on K-async must (a) grow K over the run and (b) reach a
	// final loss comparable to full sync while being faster early.
	proto, shards, train := psSetup(t, 8)
	cfg := psConfig(KAsync)
	cfg.MaxUpdates = 600
	s, err := New(proto, shards, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ada := NewAdaSync(AdaSyncConfig{K0: 1, M: 8, Interval: 30, LR: 0.1})
	trace, _ := s.Run(ada, "adasync")
	if ada.K() <= 1 {
		t.Fatalf("AdaSync never grew K: %d", ada.K())
	}
	if trace.FinalLoss() >= trace.Points[0].Loss/2 {
		t.Fatalf("AdaSync failed to learn: %v -> %v",
			trace.Points[0].Loss, trace.FinalLoss())
	}
}

// ---------------------------------------------------------------------------
// Size-aware push/pull and gradient compression.
// ---------------------------------------------------------------------------

func TestBandwidthSlowsExchanges(t *testing.T) {
	proto, shards, train := psSetup(t, 4)
	run := func(bandwidth float64, spec compress.Spec) (*Server, float64) {
		cfg := psConfig(KSync)
		cfg.MaxUpdates = 50
		cfg.Bandwidth = bandwidth
		cfg.Compress = spec
		s, err := New(proto, shards, train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(FixedK{K: 4, LR: 0.2}, "t")
		return s, s.Clock()
	}
	_, free := run(0, compress.Spec{})
	srv, tight := run(50, compress.Spec{}) // dense 44-param push = 352 B = 7 s extra
	if tight <= free {
		t.Fatalf("finite bandwidth did not slow the run: %v vs %v", tight, free)
	}
	if srv.PushBytes() != 8*proto.ParamLen() {
		t.Fatalf("dense push bytes %d, want %d", srv.PushBytes(), 8*proto.ParamLen())
	}
	// Compression must claw the time back under the same bandwidth.
	comp, compT := run(50, compress.Spec{Kind: compress.KindTopK, Ratio: 0.2, ErrorFeedback: true})
	if compT >= tight {
		t.Fatalf("compressed push not faster: %v vs %v", compT, tight)
	}
	if comp.PushBytes() >= srv.PushBytes() {
		t.Fatalf("compressed push bytes %d not below dense %d", comp.PushBytes(), srv.PushBytes())
	}
}

func TestCompressedKSyncTrains(t *testing.T) {
	proto, shards, train := psSetup(t, 4)
	cfg := psConfig(KSync)
	cfg.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25, ErrorFeedback: true}
	s, err := New(proto, shards, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := s.Run(FixedK{K: 4, LR: 0.2}, "ksync-topk")
	if trace.FinalLoss() >= trace.Points[0].Loss/2 {
		t.Fatalf("compressed K-sync failed to learn: %v -> %v",
			trace.Points[0].Loss, trace.FinalLoss())
	}
}

func TestCompressedKAsyncTrains(t *testing.T) {
	proto, shards, train := psSetup(t, 4)
	cfg := psConfig(KAsync)
	cfg.Compress = compress.Spec{Kind: compress.KindQSGD, Bits: 6}
	s, err := New(proto, shards, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := s.Run(FixedK{K: 2, LR: 0.1}, "kasync-qsgd")
	if trace.FinalLoss() >= trace.Points[0].Loss/2 {
		t.Fatalf("compressed K-async failed to learn: %v -> %v",
			trace.Points[0].Loss, trace.FinalLoss())
	}
}

func TestCompressSpecValidatedByConfig(t *testing.T) {
	proto, shards, train := psSetup(t, 4)
	cfg := psConfig(KSync)
	cfg.Compress = compress.Spec{Kind: compress.KindQSGD, Bits: 99}
	if _, err := New(proto, shards, train, cfg); err == nil {
		t.Fatal("accepted invalid compress spec")
	}
}

// ---------------------------------------------------------------------------
// Priced exact pulls and heterogeneous links.
// ---------------------------------------------------------------------------

func TestPricedPullSlowsExchanges(t *testing.T) {
	proto, shards, train := psSetup(t, 4)
	run := func(pull compress.Spec) (*Server, float64) {
		cfg := psConfig(KSync)
		cfg.MaxUpdates = 50
		cfg.Bandwidth = 50
		cfg.PullCompress = pull
		s, err := New(proto, shards, train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(FixedK{K: 4, LR: 0.2}, "t")
		return s, s.Clock()
	}
	free, freeT := run(compress.Spec{})
	if free.PullBytes() != 0 {
		t.Fatalf("legacy pull priced at %d bytes, want 0", free.PullBytes())
	}
	priced, pricedT := run(compress.Spec{Kind: compress.KindIdentity})
	if pricedT <= freeT {
		t.Fatalf("priced dense pull did not slow the run: %v vs %v", pricedT, freeT)
	}
	if got, want := priced.PullBytes(), 8*proto.ParamLen(); got != want {
		t.Fatalf("dense pull bytes %d, want %d", got, want)
	}
}

func TestIdentityPullKeepsModelExact(t *testing.T) {
	// A priced-but-lossless pull must not change the training trajectory:
	// with Bandwidth = 0 the charge is also free, so the run must match the
	// legacy pull bit for bit.
	proto, shards, train := psSetup(t, 4)
	run := func(pull compress.Spec) []float64 {
		cfg := psConfig(KSync)
		cfg.MaxUpdates = 60
		cfg.PullCompress = pull
		s, err := New(proto, shards, train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(FixedK{K: 4, LR: 0.2}, "t")
		return s.Params()
	}
	legacy := run(compress.Spec{})
	identity := run(compress.Spec{Kind: compress.KindIdentity})
	for i := range legacy {
		if legacy[i] != identity[i] {
			t.Fatalf("identity pull drifted at param %d: %v vs %v",
				i, legacy[i], identity[i])
		}
	}
}

func TestHeterogeneousLinkSlowsKSync(t *testing.T) {
	// K-sync with K = m waits for everyone, so one worker with a 10x worse
	// link must stretch the simulated clock.
	proto, shards, train := psSetup(t, 4)
	run := func(links []delaymodel.Link) float64 {
		cfg := psConfig(KSync)
		cfg.MaxUpdates = 50
		cfg.Bandwidth = 100
		cfg.Links = links
		s, err := New(proto, shards, train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(FixedK{K: 4, LR: 0.2}, "t")
		return s.Clock()
	}
	homog := run(nil)
	hetero := run([]delaymodel.Link{{}, {}, {}, {Bandwidth: 10}})
	if hetero <= homog {
		t.Fatalf("slow link did not stretch the clock: %v vs %v", hetero, homog)
	}
}

func TestLinksValidated(t *testing.T) {
	proto, shards, train := psSetup(t, 4)
	cfg := psConfig(KSync)
	cfg.Links = []delaymodel.Link{{}}
	if _, err := New(proto, shards, train, cfg); err == nil {
		t.Fatal("accepted wrong link count")
	}
	// A pull is free or exact: every lossy spec is refused by name.
	for _, pull := range []compress.Spec{
		{Kind: compress.KindTopK, Ratio: 9},
		{Kind: compress.KindTopK, Ratio: 0.25},
		{Kind: compress.KindRandK, Ratio: 0.5},
		{Kind: compress.KindQSGD, Bits: 4},
		{Kind: compress.KindIdentity, Wire: compress.WireFloat32},
		{Wire: compress.WireFloat32},
	} {
		cfg = psConfig(KSync)
		cfg.PullCompress = pull
		_, err := New(proto, shards, train, cfg)
		if err == nil || !strings.Contains(err.Error(), pull.String()) {
			t.Errorf("pull %v: got %v, want an error naming it", pull, err)
		}
	}
}
