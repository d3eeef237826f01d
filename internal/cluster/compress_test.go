package cluster

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/sgd"
)

// everySpec is the full set of shipped compressors (with and without error
// feedback for the stochastic/biased ones) that the engine must support.
func everySpec() []compress.Spec {
	return []compress.Spec{
		{Kind: compress.KindIdentity},
		{Kind: compress.KindTopK, Ratio: 0.25},
		{Kind: compress.KindTopK, Ratio: 0.25, ErrorFeedback: true},
		{Kind: compress.KindRandK, Ratio: 0.5},
		{Kind: compress.KindRandK, Ratio: 0.5, ErrorFeedback: true},
		{Kind: compress.KindQSGD, Bits: 6},
		{Kind: compress.KindQSGD, Bits: 6, ErrorFeedback: true},
	}
}

func TestParallelMatchesSequentialUnderEveryCompressor(t *testing.T) {
	s := newSetup(t, 4, 1)
	for _, spec := range everySpec() {
		t.Run(spec.String(), func(t *testing.T) {
			cfg := baseCfg()
			cfg.MaxIters = 200
			cfg.Compress = spec
			poolMatchesSerial(t, s, cfg, FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}})
		})
	}
}

func TestIdentityCompressionMatchesUncompressedClosely(t *testing.T) {
	// The identity compressor routes averaging through the delta protocol:
	// global + mean(x_i - global) instead of mean(x_i). Algebraically equal,
	// so trajectories must agree to float rounding and train identically
	// well (they are NOT required to be bitwise equal — only the None path
	// preserves the legacy arithmetic).
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	base := s.engine(t, cfg)
	trBase := base.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "raw")

	cfg.Compress = compress.Spec{Kind: compress.KindIdentity}
	comp := s.engine(t, cfg)
	trComp := comp.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "identity")

	pb, pc := base.GlobalParams(), comp.GlobalParams()
	for i := range pb {
		d := pb[i] - pc[i]
		if d < -1e-9 || d > 1e-9 {
			t.Fatalf("identity path drifted at param %d: %v vs %v", i, pb[i], pc[i])
		}
	}
	if trComp.FinalLoss() >= trBase.Points[0].Loss/2 {
		t.Fatal("identity-compressed run failed to learn")
	}
}

func TestCompressedPASGDConvergesWithErrorFeedback(t *testing.T) {
	// Aggressive top-k with error feedback must still train.
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.MaxIters = 800
	cfg.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.1, ErrorFeedback: true}
	e := s.engine(t, cfg)
	trace := e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "topk-ef")
	if trace.FinalLoss() >= trace.Points[0].Loss/2 {
		t.Fatalf("compressed PASGD failed to learn: %v -> %v",
			trace.Points[0].Loss, trace.FinalLoss())
	}
}

func TestCompressionShrinksRoundPayload(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.MaxIters = 50
	dense := s.engine(t, cfg)
	dense.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "dense")
	denseBytes := dense.CommBytesPerRound()
	if want := 8 * dense.Dim(); denseBytes != want {
		t.Fatalf("dense payload %d, want %d", denseBytes, want)
	}

	cfg.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.1}
	sparse := s.engine(t, cfg)
	sparse.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "sparse")
	if got := sparse.CommBytesPerRound(); got >= denseBytes/2 {
		t.Fatalf("top-k payload %d not meaningfully below dense %d", got, denseBytes)
	}
}

func TestBandwidthChargesPayloadTime(t *testing.T) {
	// Same iteration budget, finite bandwidth: the compressed run must
	// finish in less simulated wall-clock time than the dense run.
	s := newSetup(t, 4, 1)
	s.dm.Bandwidth = 64 // bytes per simulated second: dense sync is expensive
	defer func() { s.dm.Bandwidth = 0 }()

	run := func(spec compress.Spec) float64 {
		cfg := baseCfg()
		cfg.MaxIters = 100
		cfg.Compress = spec
		e := s.engine(t, cfg)
		return e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "t").Last().Time
	}
	denseT := run(compress.Spec{})
	sparseT := run(compress.Spec{Kind: compress.KindTopK, Ratio: 0.1, ErrorFeedback: true})
	if sparseT >= denseT {
		t.Fatalf("compressed run not faster under finite bandwidth: %v vs %v", sparseT, denseT)
	}
}

func TestCompressionRejectsInvalidSpec(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 7}
	if _, err := New(s.proto, s.shards, s.train, s.test, s.dm, cfg); err == nil {
		t.Fatal("accepted invalid compress spec")
	}
}

func TestChocoRingIdentityMatchesFullAveragingOnTriangle(t *testing.T) {
	// RECAPTURED REGRESSION (PR 5). The old compressed ring referenced the
	// exact replica mean — oracle state no decentralized node could
	// reconstruct — which made every compressor's m = 3 trajectory track
	// compressed full averaging. CHOCO-SGD's per-node estimates remove that
	// shared reference, so the "triangle == full averaging" anchor now holds
	// where it should: with LOSSLESS compression the estimates pin the
	// replicas exactly, the m = 3 ring mix (prev + self + next)/3 is the
	// global mean, and the trajectory must agree with compressed full
	// averaging to float rounding. Lossy compressors are now a genuinely
	// different (decentralized) algorithm; their behavior is pinned by the
	// CHOCO tests in choco_test.go and the gossip-compression ablation grid.
	run := func(strat Strategy) []float64 {
		s := newSetup(t, 3, 1)
		cfg := baseCfg()
		cfg.MaxIters = 200
		cfg.Strategy = strat
		cfg.Compress = compress.Spec{Kind: compress.KindIdentity}
		e := s.engine(t, cfg)
		e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "t")
		return e.GlobalParams()
	}
	full := run(FullAveraging)
	ring := run(RingGossip)
	for i := range full {
		d := full[i] - ring[i]
		if d < -1e-9 || d > 1e-9 {
			t.Fatalf("ring diverged from full averaging at param %d: %v vs %v",
				i, full[i], ring[i])
		}
	}
}

func TestCompressedRingChargesPayloadAwareDelay(t *testing.T) {
	// Ring gossip must report its (compressed) payload and finish the same
	// iteration budget in less simulated time than dense ring gossip on a
	// bandwidth-constrained link.
	s := newSetup(t, 4, 1)
	s.dm.Bandwidth = 64
	run := func(spec compress.Spec) (*Engine, float64) {
		cfg := baseCfg()
		cfg.MaxIters = 100
		cfg.Strategy = RingGossip
		cfg.Compress = spec
		e := s.engine(t, cfg)
		tr := e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "ring")
		return e, tr.Last().Time
	}
	dense, denseT := run(compress.Spec{})
	if got, want := dense.CommBytesPerRound(), 8*dense.Dim(); got != want {
		t.Fatalf("dense ring payload %d, want %d", got, want)
	}
	sparse, sparseT := run(compress.Spec{Kind: compress.KindTopK, Ratio: 0.1})
	if got := sparse.CommBytesPerRound(); got >= dense.CommBytesPerRound()/2 {
		t.Fatalf("compressed ring payload %d not meaningfully below dense %d",
			got, dense.CommBytesPerRound())
	}
	if sparseT >= denseT {
		t.Fatalf("compressed ring not faster under finite bandwidth: %v vs %v", sparseT, denseT)
	}
}

func TestCompressedElasticTrainsAndReportsPayload(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.MaxIters = 800
	cfg.Strategy = ElasticAveraging
	cfg.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25, ErrorFeedback: true}
	e := s.engine(t, cfg)
	tr := e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "easgd-topk")
	if tr.FinalLoss() >= tr.Points[0].Loss/2 {
		t.Fatalf("compressed elastic averaging failed to learn: %v -> %v",
			tr.Points[0].Loss, tr.FinalLoss())
	}
	if got := e.CommBytesPerRound(); got >= 8*e.Dim() {
		t.Fatalf("compressed elastic payload %d not below dense %d", got, 8*e.Dim())
	}
}

// ratioSpy is a WireController that walks the ratio up each round and
// leaves the bit-width to it.
type ratioSpy struct {
	FixedTau
	ratio float64
}

func (r *ratioSpy) NextRound(info RoundInfo, eval func() float64) (int, float64) {
	r.ratio += 0.2
	if r.ratio > 1 {
		r.ratio = 1
	}
	return r.FixedTau.NextRound(info, eval)
}

func (r *ratioSpy) CompressionRatio() float64 { return r.ratio }
func (r *ratioSpy) QuantBits() int            { return 0 }

func TestRatioControllerDrivesAdaptiveCompressors(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.MaxIters = 100
	cfg.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.05}
	e := s.engine(t, cfg)
	ctrl := &ratioSpy{FixedTau: FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, ratio: 0.05}
	e.Run(ctrl, "adaptive")
	// By the last rounds the ratio reached 1.0, so the final payload must
	// be the full support: dim coordinates at 12 bytes each.
	if got, want := e.CommBytesPerRound(), 12*e.Dim(); got != want {
		t.Fatalf("final payload %d, want %d (ratio driven to 1)", got, want)
	}
}
