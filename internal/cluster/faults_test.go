package cluster

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/sgd"
)

func mustFaults(t *testing.T, spec string) *faults.Schedule {
	t.Helper()
	s, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// faultFreeSchedules are the three ways to attach no fault: no schedule, an
// empty one, and one whose every event lies beyond any test's horizon. The
// golden tables run each fault-free row under all three against one hash.
func faultFreeSchedules(t *testing.T) []namedSchedule {
	return []namedSchedule{
		{"nil", nil},
		{"empty", mustFaults(t, "  ")},
		{"beyond", mustFaults(t, "crash:0@r100000,slow:1x4@r100000-100010,drop:0")},
	}
}

type namedSchedule struct {
	name  string
	sched *faults.Schedule
}

func floatsExact(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// faultVariantCfgs enumerates one config per mixing strategy (raw and
// compressed) for the fault tests.
func faultVariantCfgs() map[string]Config {
	base := baseCfg()

	full := base

	topk := base
	topk.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25, ErrorFeedback: true}

	ring := base
	ring.Strategy = RingGossip

	choco := base
	choco.Strategy = RingGossip
	choco.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25}
	choco.GossipGamma = 0.8

	elastic := base
	elastic.Strategy = ElasticAveraging

	return map[string]Config{
		"full": full, "full-topk": topk, "ring": ring, "choco": choco, "elastic": elastic,
	}
}

// TestFaultFreeSchedulesBitIdentical pins the PR's core contract: a nil
// schedule, an empty parsed schedule, and an enabled schedule whose first
// event lies beyond the run's horizon all produce bit-identical parameters
// and traces — attaching the fault machinery consumes no RNG and perturbs
// no arithmetic while everyone is up.
func TestFaultFreeSchedulesBitIdentical(t *testing.T) {
	for name, cfg := range faultVariantCfgs() {
		run := func(f *faults.Schedule) (uint64, uint64) {
			s := newSetup(t, 4, 1)
			c := cfg
			c.Faults = f
			e := s.engine(t, c)
			tr := e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, name)
			return hashParams(e.GlobalParams()), hashTrace(tr)
		}
		pNil, trNil := run(nil)
		pEmpty, trEmpty := run(mustFaults(t, "  "))
		pFar, trFar := run(mustFaults(t, "crash:0@r100000,slow:1x4@r100000-100010"))
		if pEmpty != pNil || trEmpty != trNil {
			t.Errorf("%s: empty schedule diverged (params %x/%x trace %x/%x)",
				name, pEmpty, pNil, trEmpty, trNil)
		}
		if pFar != pNil || trFar != trNil {
			t.Errorf("%s: beyond-horizon schedule diverged (params %x/%x trace %x/%x)",
				name, pFar, pNil, trFar, trNil)
		}
	}
}

// TestChurnMatrixCompletes is the deadlock-freedom matrix: every strategy,
// under crash + crash-recover churn + slow-down + message drop, must finish
// with a finite loss.
// The churn takes two of five workers down mid-run (one permanently), so
// every renormalization and subgraph path is exercised. Bounded by go
// test's timeout: a deadlock fails the suite.
func TestChurnMatrixCompletes(t *testing.T) {
	const spec = "blip:0@r5-12,blip:1@r20-28,crash:2@r40,slow:3x4@r10-30,drop:0.1"
	for name, cfg := range faultVariantCfgs() {
		cfg.Faults = mustFaults(t, spec)
		tr := newSetup(t, 5, 1).engine(t, cfg).Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, name)
		if loss := tr.FinalLoss(); math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Errorf("%s: final loss %v under churn", name, loss)
		}
	}
}

// TestAllWorkersDownRoundIsInert pins the all-down semantics: no exchange,
// no gossip-sequence advance, global and replicas stand.
func TestAllWorkersDownRoundIsInert(t *testing.T) {
	s := newSetup(t, 3, 1)
	cfg := baseCfg()
	cfg.Faults = mustFaults(t, "blip:0@r1-1,blip:1@r1-1,blip:2@r1-1")
	e := s.engine(t, cfg)

	e.beginRound(0)
	e.localUpdates(5, 0.1)
	e.average()
	before := e.GlobalParams()

	e.beginRound(1)
	if e.fltNActive != 0 {
		t.Fatalf("active count %d, want 0", e.fltNActive)
	}
	e.localUpdates(5, 0.1)
	e.average()
	if !floatsExact(e.GlobalParams(), before) {
		t.Fatal("all-down round moved the global model")
	}
	if got := e.CommBytesPerRound(); got != 0 {
		t.Fatalf("all-down round shipped %d bytes", got)
	}
}

// TestRejoinReconciliation pins the rejoin contract on the full-averaging
// path: a blipped worker freezes while down, and on rejoin it pulls the
// priced dense delta and snaps EXACTLY to the global model — matching a
// never-crashed worker bit for bit.
func TestRejoinReconciliation(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.Faults = mustFaults(t, "blip:1@r1-2")
	e := s.engine(t, cfg)
	const lr = 0.1

	e.beginRound(0)
	e.localUpdates(5, lr)
	e.average()
	frozen := e.LocalModelParams(1) // the post-sync model worker 1 crashes with

	for r := 1; r <= 2; r++ {
		e.beginRound(r)
		e.localUpdates(5, lr)
		e.average()
	}
	if !floatsExact(e.LocalModelParams(1), frozen) {
		t.Fatal("down worker's replica moved")
	}
	if floatsExact(e.GlobalParams(), frozen) {
		t.Fatal("survivors did not make progress while worker 1 was down")
	}

	e.beginRound(3) // rejoin round: reconcile fires before local updates
	if got, want := e.reconBytes[1], 8*e.dim; got != want {
		t.Fatalf("reconcile payload %d bytes, want %d", got, want)
	}
	if !floatsExact(e.LocalModelParams(1), e.GlobalParams()) {
		t.Fatal("rejoined replica != global model")
	}
	if !floatsExact(e.LocalModelParams(1), e.LocalModelParams(0)) {
		t.Fatal("rejoined replica != never-crashed replica")
	}
}

// TestRejoinPricedInItsRoundOnly: a rejoining worker's exact pull of the
// 8*xdim-byte extended vector is charged to its link in the rejoin round,
// on top of its push, and is gone from the schedule the round after. With
// D0 = 0 a round's comm time is its slowest link's alone: a push while
// worker 1 is down (the survivors still push), twice a push in its rejoin
// round. That a down worker ships nothing is delaymodel's
// TestSampleDScheduleFaultyExcludesDownAndScales.
func TestRejoinPricedInItsRoundOnly(t *testing.T) {
	const bw = 64
	s := newSetup(t, 4, 0)
	s.dm.Bandwidth = bw
	cfg := baseCfg()
	cfg.MaxIters = 30
	cfg.Faults = mustFaults(t, "blip:1@r1-2")
	e := s.engine(t, cfg)
	probe := &timingProbe{}
	e.Run(probe, "rejoin-pricing")
	comm := probe.roundComm()
	if len(comm) < 5 {
		t.Fatalf("recorded %d rounds, want at least 5", len(comm))
	}
	push := float64(8*e.xdim) / bw
	for r, want := range []float64{push, push, push, 2 * push, push} {
		if got := comm[r]; got != want {
			t.Errorf("round %d: comm time %v, want %v", r, got, want)
		}
	}
}

// TestRejoinRepinsGossipEstimates: under compressed CHOCO gossip a
// rejoiner's estimate and projection re-pin to the pulled model, so its
// next wire message is a delta from shared state.
func TestRejoinRepinsGossipEstimates(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.Strategy = RingGossip
	cfg.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25}
	cfg.GossipGamma = 0.8
	cfg.Faults = mustFaults(t, "blip:2@r1-2")
	e := s.engine(t, cfg)
	const lr = 0.1

	for r := 0; r <= 2; r++ {
		e.beginRound(r)
		e.localUpdates(5, lr)
		e.average()
	}
	e.beginRound(3)
	if !floatsExact(e.gossip.hat[2], e.global) {
		t.Fatal("rejoined estimate not re-pinned to the pulled model")
	}
	if !floatsExact(e.gossip.proj[2], e.global) {
		t.Fatal("rejoined projection not re-pinned")
	}
	if !floatsExact(e.LocalModelParams(2), e.GlobalParams()) {
		t.Fatal("rejoined replica != pulled model")
	}
}

func TestFaultsValidatedAtConstruction(t *testing.T) {
	s := newSetup(t, 4, 1)
	cfg := baseCfg()
	cfg.Faults = mustFaults(t, "crash:9@r1")
	if _, err := New(s.proto, s.shards, s.train, s.test, s.dm, cfg); err == nil {
		t.Fatal("accepted out-of-range fault worker")
	}
}

// TestAsyncChurnCompletes drives the event-driven engine through
// crash-recover churn plus drops: the run must terminate with a finite
// loss, and work in flight from a crashed client must be expired rather
// than aggregated.
func TestAsyncChurnCompletes(t *testing.T) {
	s := asyncSetup(t, 8)
	cfg := baseAsyncCfg()
	cfg.MaxUpdates = 60
	cfg.Faults = mustFaults(t, "blip:0@r5-20,blip:1@r10-30,crash:2@r25,slow:3x5@r5-40,drop:0.15")
	e := s.async(t, cfg)
	tr := e.Run("async-churn")
	if loss := tr.FinalLoss(); math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("final loss %v under churn", loss)
	}
	if e.Version() == 0 {
		t.Fatal("no aggregations applied under churn")
	}
}

// TestAsyncAllDownTerminates: a schedule that takes the whole population
// down drains the queue and Run returns instead of spinning.
func TestAsyncAllDownTerminates(t *testing.T) {
	s := asyncSetup(t, 4)
	cfg := baseAsyncCfg()
	cfg.Participation, cfg.InFlight = 2, 4
	cfg.MaxUpdates = 1000
	cfg.Faults = mustFaults(t, "crash:0@r3,crash:1@r3,crash:2@r3,crash:3@r3")
	e := s.async(t, cfg)
	tr := e.Run("async-all-down")
	if tr.Len() == 0 {
		t.Fatal("no trace points")
	}
	if e.Version() >= 1000 {
		t.Fatal("run did not stop at the crash wall")
	}
}

// TestAsyncDispatchMatchesFilteredIdleList holds the parked-position walk to
// the rule it replaced: filter the idle list through Down, client by
// client, and index the survivors with the same draw. Overlapping events on
// one client, a client down from version 0 and a crash are in the schedule;
// the idle list is churned so parked clients sit at arbitrary positions.
func TestAsyncDispatchMatchesFilteredIdleList(t *testing.T) {
	s := asyncSetup(t, 32)
	cfg := baseAsyncCfg()
	cfg.Faults = mustFaults(t, "blip:0@r1-4,blip:0@r3-6,blip:31@r0-2,crash:7@r5,blip:12@r2-2,blip:13@r2-8,slow:3x5@r0-9")
	e := s.async(t, cfg)
	churn := rng.New(3)
	refused, parkedSeen := 0, 0
	for step := 0; step < 4000; step++ {
		var elig []int
		for p, id := range e.idle {
			if !cfg.Faults.Down(id, e.version) {
				elig = append(elig, p)
			}
		}
		want := -1
		if len(elig) < len(e.idle) {
			parkedSeen++
		}
		if len(elig) == 0 {
			refused++
		} else {
			probe := *e.serverRng // same draw, engine stream untouched
			want = e.idle[elig[probe.Intn(len(elig))]]
		}
		if ok := e.dispatchNew(0); ok != (want >= 0) {
			t.Fatalf("step %d: dispatched=%v with %d eligible", step, ok, len(elig))
		}
		if want >= 0 {
			if ev, _ := e.q.Pop(); ev.Worker != want {
				t.Fatalf("step %d (version %d): dispatched client %d, filtered idle list gives %d", step, e.version, ev.Worker, want)
			}
		}
		for p, id := range e.idle {
			if e.idlePos[id] != p {
				t.Fatalf("step %d: idlePos[%d] = %d, client sits at %d", step, id, e.idlePos[id], p)
			}
		}
		// Return in-flight clients at random so the list keeps moving; every
		// other hundred steps return so few that it drains to the parked.
		rate := 4
		if step/100%2 == 1 {
			rate = 64
		}
		for id := range e.clients {
			if e.idlePos[id] < 0 && churn.Intn(rate) == 0 {
				e.goIdle(id)
			}
		}
		if step%300 == 299 {
			e.version++
		}
	}
	if refused == 0 || parkedSeen < 1000 {
		t.Fatalf("schedule too mild to test anything: %d refusals, %d dispatches past a parked client", refused, parkedSeen)
	}
}

func TestAsyncFaultsValidatedAtConstruction(t *testing.T) {
	s := asyncSetup(t, 4)
	cfg := baseAsyncCfg()
	cfg.Faults = mustFaults(t, "blip:7@r1-2")
	if _, err := NewAsync(s.proto, s.shards, s.train, s.test, s.dm, cfg); err == nil {
		t.Fatal("accepted out-of-range fault worker")
	}
}

// TestAsyncFaultFreeScheduleBitIdentical: the async engine honors the same
// zero-fault bit-identity contract as the lock-step engines.
func TestAsyncFaultFreeScheduleBitIdentical(t *testing.T) {
	run := func(f *faults.Schedule) uint64 {
		s := asyncSetup(t, 8)
		cfg := baseAsyncCfg()
		cfg.Faults = f
		e := s.async(t, cfg)
		e.Run("async")
		return hashParams(e.GlobalParams())
	}
	if run(nil) != run(mustFaults(t, "crash:0@r100000")) {
		t.Fatal("beyond-horizon schedule diverged")
	}
}

// TestAsyncBarrierOutlivesChurn: a K-of-m barrier wider than the surviving
// population waits for the clients that exist. K = N = 8 with one client
// crashed, or three blipped out, used to stall at the fault's first version —
// the round could not fill, dispatch is round-driven, the queue drained and
// Run returned as if finished (and a blip, keyed by the version the stalled
// round would advance, never ended).
func TestAsyncBarrierOutlivesChurn(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		finalK int
	}{
		{"crash:0@r3", 7},
		{"blip:0@r3-6,blip:1@r3-6,blip:2@r3-6", 8}, // K is back once the blip ends
	} {
		s := asyncSetup(t, 8)
		cfg := baseAsyncCfg()
		cfg.Participation, cfg.InFlight = 8, 8
		cfg.Faults = mustFaults(t, tc.spec)
		e := s.async(t, cfg)
		e.Run("barrier")
		if got := e.Stats().Updates; got != cfg.MaxUpdates {
			t.Errorf("%s: %d updates, want %d", tc.spec, got, cfg.MaxUpdates)
		}
		if e.curK != tc.finalK {
			t.Errorf("%s: the last round waited for %d arrivals, want %d", tc.spec, e.curK, tc.finalK)
		}
	}

	// Where the population never falls below K nothing moves: event trace
	// and parameters as captured before the cap existed (the first row is
	// TestAsyncGoldenTrace's run; the second keeps at least 5 of 8 clients up
	// under K = 4).
	for _, tc := range []struct {
		spec               string
		wantEvents, wantPs uint64
	}{
		{"", 0x5fb1b1600e8396cf, 0xe15a4767cb779e27},
		{"blip:0@r5-20,blip:1@r10-30,crash:2@r25,slow:3x5@r5-40,drop:0.15", 0x8705ed8c81b19302, 0x34c5b0310bbe39c},
	} {
		s := asyncSetup(t, 8)
		cfg := baseAsyncCfg()
		cfg.RecordEvents = true
		if tc.spec != "" {
			cfg.Faults = mustFaults(t, tc.spec)
		}
		e := s.async(t, cfg)
		e.Run("unmoved")
		if ev, ps := hashString(e.EventTrace()), hashParams(e.GlobalParams()); ev != tc.wantEvents || ps != tc.wantPs {
			t.Errorf("%q drifted: events %#x want %#x, params %#x want %#x", tc.spec, ev, tc.wantEvents, ps, tc.wantPs)
		}
	}
}
