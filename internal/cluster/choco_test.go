package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

// Tests for CHOCO-SGD ring gossip: per-node estimates updated only from wire
// messages, consensus step GossipGamma, no shared reference. That the
// uncompressed and identity specs run one protocol bit for bit is held by
// TestGoldenUncompressedGossipBitIdentical and the "ring/identity" golden.

func TestChocoTriangleIdentityMixIsGlobalMeanBitForBit(t *testing.T) {
	// m = 3 with Identity compression at gamma = 1: every node's
	// neighborhood is the whole ring, so one CHOCO sync must land each
	// worker EXACTLY on the uniform average of all pre-sync replicas — full
	// averaging, bit for bit, computed purely from wire reconstructions.
	s := newSetup(t, 3, 1)
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	cfg.Compress = compress.Spec{Kind: compress.KindIdentity}
	e := s.engine(t, cfg)
	e.StepLocal(7, 0.1)
	pre := make([][]float64, 3)
	for i := range pre {
		pre[i] = e.LocalModelParams(i)
	}
	e.SyncNow()
	for i := 0; i < 3; i++ {
		got := e.LocalModelParams(i)
		prev, self, next := pre[(i+2)%3], pre[i], pre[(i+1)%3]
		for j := range got {
			if want := (prev[j] + self[j] + next[j]) / 3; got[j] != want {
				t.Fatalf("worker %d param %d: %v, want global mean %v bit-for-bit", i, j, got[j], want)
			}
		}
	}
}

// guardedReplica enforces the oracle-free invariant: a gossip sync may read
// each node's parameters exactly twice — once to form the node's own wire
// message and once to apply the node's own mix. A third read per sync is
// out-of-band state (the old implementation's replica-mean refresh needed
// exactly such an extra pass over every replica) and panics.
type guardedReplica struct {
	inner gossipReplica
	reads int
}

func (g *guardedReplica) Params() []float64 {
	g.reads++
	if g.reads > 2 {
		panic("out-of-band read: compressed gossip touched a replica more than twice in one sync")
	}
	return g.inner.Params()
}

func TestChocoGossipReadsNoOracleState(t *testing.T) {
	// Hide every worker's parameters behind a guard that panics on
	// out-of-band reads, then run compressed gossip rounds. Everything the
	// algorithm consumes beyond those two sanctioned accesses per node —
	// estimate updates, the mix inputs, the evaluated model — must be
	// derivable from the wire alone.
	for _, spec := range []compress.Spec{
		{Kind: compress.KindIdentity},
		{Kind: compress.KindTopK, Ratio: 0.1},
		{Kind: compress.KindQSGD, Bits: 4},
	} {
		t.Run(spec.String(), func(t *testing.T) {
			s := newSetup(t, 4, 1)
			cfg := baseCfg()
			cfg.Strategy = RingGossip
			cfg.Compress = spec
			cfg.GossipGamma = 0.5
			e := s.engine(t, cfg)
			guards := make([]*guardedReplica, e.Workers())
			for i := range guards {
				guards[i] = &guardedReplica{inner: e.gossip.nodes[i]}
				e.gossip.nodes[i] = guards[i]
			}
			before := e.LocalModelParams(0)
			for round := 0; round < 5; round++ {
				for i := range guards {
					guards[i].reads = 0
				}
				e.StepLocal(3, 0.1)
				e.SyncNow()
				for i, g := range guards {
					if g.reads != 2 {
						t.Fatalf("round %d: worker %d read %d times, want exactly 2", round, i, g.reads)
					}
				}
			}
			after := e.LocalModelParams(0)
			same := true
			for j := range before {
				if before[j] != after[j] {
					same = false
					break
				}
			}
			if same {
				t.Fatal("gossip rounds left worker 0 unchanged — mix did not run")
			}
		})
	}
}

func TestChocoGossipPreservesReplicaMean(t *testing.T) {
	// The uniform ring mixing matrix is doubly stochastic, so the CHOCO
	// correction gamma * sum_j W_ij (x̂_j - x̂_i) sums to zero over nodes:
	// one mixing step preserves the replica mean (modulo FP error) at any
	// gamma and compression ratio, exactly like the uncompressed mix.
	for _, m := range []int{2, 4, 5} {
		s := newSetup(t, m, 1)
		cfg := baseCfg()
		cfg.Strategy = RingGossip
		cfg.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25}
		cfg.GossipGamma = 0.7
		e := s.engine(t, cfg)
		e.StepLocal(3, 0.1)

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
				t.Fatalf("m=%d: CHOCO mixing changed the replica mean at %d: %v vs %v",
					m, i, before[i], after[i])
			}
		}
	}
}

func TestChocoGossipConvergesAtAggressiveRatio(t *testing.T) {
	// Seeded convergence regression: CHOCO gossip at keep-ratio 0.1 must
	// track the uncompressed gossip loss. The estimates absorb what each
	// sparse message drops, so the compressed run lands within a modest
	// factor of the raw run's final loss while shipping ~10x fewer bytes.
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	cfg.MaxIters = 800
	cfg.Seed = 9

	raw := s.engine(t, cfg)
	trRaw := raw.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "raw")

	cfg.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.1}
	cfg.GossipGamma = 0.5
	choco := s.engine(t, cfg)
	trChoco := choco.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "choco")

	if trChoco.FinalLoss() >= trChoco.Points[0].Loss/2 {
		t.Fatalf("CHOCO gossip failed to learn: %v -> %v",
			trChoco.Points[0].Loss, trChoco.FinalLoss())
	}
	if tol := 1.35; trChoco.FinalLoss() > tol*trRaw.FinalLoss() {
		t.Fatalf("CHOCO at ratio 0.1 lost track of raw gossip: %v vs %v (tol %gx)",
			trChoco.FinalLoss(), trRaw.FinalLoss(), tol)
	}
	if got, want := choco.CommBytesPerRound(), raw.CommBytesPerRound(); got >= want/2 {
		t.Fatalf("CHOCO payload %d not meaningfully below raw %d", got, want)
	}
}

func TestChocoGossipComputeWorkersBitIdentical(t *testing.T) {
	// The estimate state is engine-owned and only touched inside the
	// fixed-order sync, so the compute pool width cannot change a bit of
	// the trajectory.
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	cfg.MaxIters = 200
	cfg.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25}
	cfg.GossipGamma = 0.8
	poolMatchesSerial(t, newSetup(t, 4, 1), cfg, FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}})
}

func TestRingGossipTwoNodeMixIsPairAverage(t *testing.T) {
	// m = 2: prev and next are the same worker. The mix must count that
	// single neighbor once — (self + other)/2 — not the double-counted
	// (2*other + self)/3 a naive ring indexing produces.
	s := newSetup(t, 2, 1)
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	e := s.engine(t, cfg)
	e.StepLocal(5, 0.1)
	p0 := e.LocalModelParams(0)
	p1 := e.LocalModelParams(1)
	e.SyncNow()
	q0 := e.LocalModelParams(0)
	q1 := e.LocalModelParams(1)
	for j := range p0 {
		want := (p0[j] + p1[j]) / 2
		if q0[j] != want || q1[j] != want {
			t.Fatalf("two-node mix at %d: got %v/%v, want pair average %v", j, q0[j], q1[j], want)
		}
	}
}

func TestGossipGammaValidation(t *testing.T) {
	s := newSetup(t, 4, 1)
	topk := compress.Spec{Kind: compress.KindTopK, Ratio: 0.25}

	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"requires ring", func(c *Config) { c.GossipGamma = 0.5; c.Compress = topk }, "requires RingGossip"},
		{"requires compression", func(c *Config) { c.Strategy = RingGossip; c.GossipGamma = 0.5 }, "requires RingGossip with compression"},
		{"negative", func(c *Config) { c.Strategy = RingGossip; c.Compress = topk; c.GossipGamma = -0.1 }, "out of (0,1]"},
		{"above one", func(c *Config) { c.Strategy = RingGossip; c.Compress = topk; c.GossipGamma = 1.5 }, "out of (0,1]"},
		{"nan", func(c *Config) { c.Strategy = RingGossip; c.Compress = topk; c.GossipGamma = math.NaN() }, "out of (0,1]"},
		// CHOCO's estimates already carry what the wire dropped; a residual
		// memory on top compensates twice and the run blows up at every gamma.
		{"error feedback", func(c *Config) {
			c.Strategy = RingGossip
			c.Compress = compress.Spec{Kind: compress.KindQSGD, Bits: 4, ErrorFeedback: true, Wire: compress.WireFloat32}
		}, "rejects error feedback"},
	}
	for _, tc := range cases {
		cfg := baseCfg()
		tc.mut(&cfg)
		_, err := New(s.proto, s.shards, s.train, s.test, s.dm, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}

	// The zero value defaults to gamma = 1.
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	cfg.Compress = topk
	e := s.engine(t, cfg)
	if e.cfg.GossipGamma != 1 {
		t.Fatalf("gossip gamma default %v, want 1", e.cfg.GossipGamma)
	}
}
