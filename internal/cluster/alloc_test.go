package cluster

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/events"
	"repro/internal/opt"
)

// The exchange path's allocation gates, beside the per-layer ones in nn and
// opt: after warm-up (scratch arenas, wire messages and the free list
// sized), a lock-step round and an async event allocate nothing, whatever
// the compressor.

// TestLockStepRoundSteadyStateAllocFree: local steps, one synchronization
// and its pricing, for every strategy uncompressed and compressed, under the
// SlowMo stack (heavy-ball local steps, the shared global-momentum filter),
// and over the 16-node torus, the graph-generic mix path. The pool is held
// at width 1 — a wider one starts goroutines, which is not exchange cost.
func TestLockStepRoundSteadyStateAllocFree(t *testing.T) {
	topkEF := compress.Spec{Kind: compress.KindTopK, Ratio: 0.25, ErrorFeedback: true}
	slowMo := func(c *Config) {
		c.Opt = opt.Config{Rule: opt.RuleMomentum, Momentum: 0.9}
		c.GlobalMomentum = 0.5
	}
	torus := func(c *Config) { c.Topology = mustTopo(t, "torus:4x4") }
	for _, tc := range []struct {
		name  string
		m     int
		strat Strategy
		spec  compress.Spec
		mod   func(*Config)
	}{
		{"full/raw", 4, FullAveraging, compress.Spec{}, nil},
		{"full/topk+ef", 4, FullAveraging, topkEF, nil},
		{"full/qsgd+f32", 4, FullAveraging, compress.Spec{Kind: compress.KindQSGD, Bits: 4, Wire: compress.WireFloat32}, nil},
		{"full/randk", 4, FullAveraging, compress.Spec{Kind: compress.KindRandK, Ratio: 0.25}, nil},
		{"full/identity", 4, FullAveraging, compress.Spec{Kind: compress.KindIdentity}, nil},
		{"full/gmom", 4, FullAveraging, compress.Spec{}, slowMo},
		{"ring/raw", 4, RingGossip, compress.Spec{}, nil},
		{"ring/choco-topk", 4, RingGossip, compress.Spec{Kind: compress.KindTopK, Ratio: 0.25}, nil},
		{"ring/choco-lossless", 4, RingGossip, compress.Spec{Kind: compress.KindIdentity}, nil},
		{"ring/torus:4x4", 16, RingGossip, compress.Spec{}, torus},
		{"elastic/raw", 4, ElasticAveraging, compress.Spec{}, nil},
		{"elastic/topk+ef", 4, ElasticAveraging, topkEF, nil},
	} {
		s := newSetup(t, tc.m, 1)
		cfg := baseCfg()
		cfg.Strategy, cfg.Compress, cfg.ComputeWorkers = tc.strat, tc.spec, 1
		if tc.mod != nil {
			tc.mod(&cfg)
		}
		e := s.engine(t, cfg)
		round := func() {
			e.StepLocal(5, 0.05)
			e.SyncNow()
			e.roundTime(5)
		}
		for i := 0; i < 3; i++ {
			round()
		}
		// 20 rounds of 5 batches of 16 cross a 200-example shard's epoch
		// boundary several times: the reshuffle is in place too.
		if n := testing.AllocsPerRun(20, round); n != 0 {
			t.Errorf("%s: %v allocs per round, want 0", tc.name, n)
		}
	}
}

// TestEvaluationSteadyStateAllocFree: a trace point — the training loss and
// the test accuracy of the global model, 800 and 200 rows through nn's
// chunked forward-only pass — allocates nothing after the first, on either
// engine.
func TestEvaluationSteadyStateAllocFree(t *testing.T) {
	cfg := baseCfg()
	cfg.ComputeWorkers = 1
	lock := newSetup(t, 4, 1).engine(t, cfg)
	async := startedAsync(t, baseAsyncCfg())
	for name, eval := range map[string]func(){
		"Engine":      func() { lock.TrainLoss(); lock.TestAccuracy() },
		"AsyncEngine": func() { async.TrainLoss(); async.TestAccuracy() },
	} {
		if n := testing.AllocsPerRun(20, eval); n != 0 { // its own first call warms up
			t.Errorf("%s: %v allocs per TrainLoss + TestAccuracy, want 0", name, n)
		}
	}
}

// asyncEvent processes the next queued event the way Run does, minus the
// trace: a dispatch, or an arrival that may complete a round and refill the
// in-flight set.
func asyncEvent(t *testing.T, e *AsyncEngine) {
	ev, ok := e.q.Pop()
	if !ok {
		t.Fatal("async queue drained")
	}
	switch ev.Kind {
	case events.Dispatch:
		e.dispatch(ev.Worker, ev.Time)
	case events.Arrival:
		if e.arrive(ev.Worker, ev.Time) {
			e.applyRound()
			for e.nInFlight < e.inflight && e.dispatchNew(ev.Time) {
			}
		}
	}
}

// startedAsync builds an engine with its in-flight set dispatched, as Run
// leaves it before the first event.
func startedAsync(t *testing.T, cfg AsyncConfig) *AsyncEngine {
	e := asyncSetup(t, 32).async(t, cfg)
	for i := 0; i < e.inflight; i++ {
		e.dispatchNew(0)
	}
	return e
}

// asyncAllocEngines starts one engine per wire the async gates cover.
func asyncAllocEngines(t *testing.T) map[string]*AsyncEngine {
	dense := baseAsyncCfg()
	dense.MaxUpdates = 1 << 30
	qsgd, topk, churn := dense, dense, dense
	qsgd.Compress = compress.Spec{Kind: compress.KindQSGD, Bits: 4, Wire: compress.WireFloat32}
	topk.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25}
	// Blips that end, a crash, and a staleness bound tight enough to expire
	// arrivals: every path that releases a message.
	churn.Compress = topk.Compress
	churn.Faults = mustFaults(t, "blip:0@r5-20,blip:1@r10-30,crash:2@r25,slow:3x5@r5-40,drop:0.15")
	engines := map[string]*AsyncEngine{}
	for name, cfg := range map[string]AsyncConfig{"dense": dense, "qsgd+f32": qsgd, "topk": topk, "topk+churn": churn} {
		engines[name] = startedAsync(t, cfg)
	}
	engines["topk+churn"].maxStaleness = 1
	return engines
}

// TestAsyncEventSteadyStateAllocFree: a dispatch -> arrive cycle — pull,
// sampler reset, local steps, compress into a recycled message, push,
// aggregate, release — allocates nothing once the free list is primed, on
// the dense wire and the compressed ones.
func TestAsyncEventSteadyStateAllocFree(t *testing.T) {
	for name, e := range asyncAllocEngines(t) {
		for i := 0; i < 2000; i++ {
			asyncEvent(t, e)
		}
		if n := testing.AllocsPerRun(500, func() { asyncEvent(t, e) }); n != 0 {
			t.Errorf("%s: %v allocs per event, want 0", name, n)
		}
	}
}

// TestAsyncMessagePoolBoundedByPeakInFlight: wire messages exist only for
// clients in flight, so at every event the free list plus the messages
// clients hold number at most AsyncStats.PeakInFlight — expiry and the
// fault path included — and recycling never hands one message to two
// clients.
func TestAsyncMessagePoolBoundedByPeakInFlight(t *testing.T) {
	for name, e := range asyncAllocEngines(t) {
		for step := 0; step < 3000; step++ {
			asyncEvent(t, e)
			held := 0
			owner := map[any]int{}
			for i := range e.clients {
				m := e.clients[i].msg
				if m.Dim == 0 {
					continue
				}
				held++
				for _, p := range []any{firstOf(m.Dense), firstOf(m.Indices), firstOf(m.Values), firstOf(m.Levels)} {
					if p == nil {
						continue
					}
					if j, dup := owner[p]; dup {
						t.Fatalf("%s step %d: clients %d and %d share message storage", name, step, j, i)
					}
					owner[p] = i
				}
			}
			if peak := e.stats.PeakInFlight; len(e.freeMsgs)+held > peak {
				t.Fatalf("%s step %d: %d free + %d held messages, peak in flight %d",
					name, step, len(e.freeMsgs), held, peak)
			}
		}
		if e.stats.Expired == 0 && e.maxStaleness == 1 {
			t.Fatalf("%s: no arrival expired; the release-on-expiry path went untested", name)
		}
	}
}

// firstOf identifies a slice's backing array (nil for an empty one).
func firstOf[T any](s []T) any {
	if cap(s) == 0 {
		return nil
	}
	return &s[:1][0]
}
