// Event-driven asynchronous engine: the third execution mode of the
// cluster package, built on internal/events instead of the round barrier.
//
// The lock-step engines advance all m workers together, so the slowest
// link gates every round and every replica must stay materialized. The
// async engine replaces the barrier with a discrete-event schedule over
// per-client virtual clocks:
//
//   - K-of-m partial participation: each synchronization aggregates the
//     FIRST K arrivals (paramserver.ArrivalPolicy — the same rule AdaSync
//     applies on the server side), staleness-weighted by how many global
//     versions elapsed since the contributor pulled its base model.
//     Stragglers' in-flight work overlaps the next round instead of gating
//     it; results more than 64 versions stale are discarded on arrival,
//     which is what bounds the engine's version-history needs to ZERO (see
//     below).
//
//   - Client sharding: the engine simulates a population of N clients with
//     memory proportional to K, not N. An idle client's entire state is a
//     pair of RNG streams (its "seed"); an in-flight client's state is the
//     compressed wire message it will deliver (internal/compress, priced by
//     the delay model via compress.Spec-sized payloads); only ONE replica
//     is ever materialized — the engine's compute slot.
//
// # The materialize/evict lifecycle (and why one compute slot suffices)
//
// A client's local training depends only on the global model at its
// dispatch version and on its own RNG streams — never on events that
// happen between dispatch and arrival. The simulator exploits this by
// running the numerics EAGERLY at dispatch time, inside the serial event
// loop: materialize the client into the compute slot (SetParams from the
// current global), run tau local steps, compress the delta against that
// same base, evict the client back to its compressed message, and schedule
// the Arrival at dispatch-time + pull + compute + push on the client's own
// link and clock. The simulated TIMELINE is fully asynchronous — by the
// time the message arrives the global model has moved on, and the update
// is applied stale, exactly as a real async system would — but no snapshot
// history and no per-client replica is ever needed. Peak materialized
// state is therefore the compute slot plus the evaluation replica plus
// four dim-length aggregation scratch vectors, independent of both N and
// K (comfortably within the "K replicas + aggregation scratch" budget a
// real K-participation server would pay).
//
// Determinism: the event loop is single-goroutine; queue tie-breaking is
// seeded (internal/events), per-client streams are split at construction,
// and client sampling draws from the engine's own stream in event order —
// so a run's event trace and final parameters are a pure function of the
// seed, at any GOMAXPROCS (asserted by the async determinism and golden
// tests).
//
// # What the rest of the repository leans on
//
// Dispatching happens at round boundaries, so Participation == InFlight == N
// is the exact synchronous barrier: a fast client never counts twice toward
// one aggregate. The staleness weight 1/(1+s) and the 64-version expiry are
// constants of the engine; tests reach the expiry path through the
// unexported maxStaleness. Error-feedback compression is rejected at
// construction, because a per-client residual would be Theta(N*dim).
// delaymodel's Jitter gives every client a persistent compute factor (nil is
// the pricing without it, bit for bit). AsyncStats reports the materialized
// memory. The async golden test pins the seeded event trace, the final
// parameters and the metrics trace; `sweep -ablation async` shows K-of-m
// beating the full barrier under a 10x straggler; examples/federated runs
// 1024 non-IID clients at K=32; cmd/adacomm reaches the engine through
// -async, -participation and -clients.
package cluster

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/paramserver"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// AsyncConfig controls the event-driven engine (NewAsync).
type AsyncConfig struct {
	// Participation is K: every synchronization aggregates the first K
	// arrivals. K equal to the client count (with InFlight equal too) is
	// the fully synchronous barrier special case.
	Participation int

	// InFlight is the target number of concurrently active clients. It must
	// be at least Participation — the overhang (InFlight - Participation)
	// is what lets stragglers overlap the next round instead of gating the
	// current one. 0 defaults to min(2*Participation, clients).
	InFlight int

	// Tau is the number of local steps per activation.
	Tau int

	BatchSize int
	LR        float64

	// Opt selects the clients' local update rule (internal/opt). The
	// zero value is plain SGD at LR — bit-identical to the legacy engine.
	// Stateful momentum rules are allowed: the state lives in the engine's
	// single compute-slot optimizer and is activation-scoped (reset at each
	// dispatch — a freshly sampled client has no history). Adaptive rules
	// (Adam) are rejected: meaningful Adam state must persist per client
	// across activations, which is Theta(clients*dim) state — exactly what
	// client sharding exists to avoid.
	Opt opt.Config

	// Stop conditions (at least one must be set): simulated seconds /
	// completed aggregations.
	MaxTime    float64
	MaxUpdates int

	// EvalEvery records a trace point once the aggregated local-iteration
	// count crosses every EvalEvery iterations (default 100), on the global
	// model — the same convention as the lock-step engines.
	EvalEvery  int
	EvalSubset int

	// StragglerFactor optionally slows individual clients' compute (len
	// must equal the client count, each factor finite and > 0; nil = all 1).
	// Composes with the delay model's per-worker Jitter
	// (delaymodel.Model.ComputeScales, shared with the lock-step engine).
	StragglerFactor []float64

	// Compress selects the delta compression clients apply before
	// uploading. Error feedback is rejected: a per-client residual is
	// Theta(N*dim) state, exactly what client sharding exists to avoid.
	Compress compress.Spec

	// LinkAware caps the per-round arrival count at the number of links
	// within 3x of the fastest observed upload, via the shared
	// paramserver.ArrivalPolicy. Off, every round waits for exactly
	// Participation arrivals.
	LinkAware bool

	// RecordEvents retains the textual event trace (EventTrace), used by
	// the determinism and golden tests. Off for large runs — the trace
	// grows with every event.
	RecordEvents bool

	// Faults optionally injects a seeded crash/churn/slow-down schedule
	// (internal/faults), keyed by the GLOBAL VERSION — the async engine's
	// notion of a round. Down clients are parked instead of dispatched, and
	// an in-flight message whose sender is down when it arrives is expired
	// (the same drop-and-redispatch path over-stale arrivals take), so
	// crashed work can never fold into an aggregate. Slow-down episodes and
	// drop-retries multiply the affected client's transfer times. A client
	// recovering from a blip needs no separate reconciliation: every
	// dispatch already begins with a priced dense pull of the current
	// global model, which IS the rejoin delta. When every client is down
	// the event queue drains and Run returns cleanly. nil keeps every
	// trajectory bit-identical to the fault-free engine.
	Faults *faults.Schedule

	Seed uint64
}

func (c AsyncConfig) validate(n int) error {
	if c.BatchSize < 1 {
		return fmt.Errorf("cluster: async batch size %d", c.BatchSize)
	}
	if c.Tau < 1 {
		return fmt.Errorf("cluster: async tau %d < 1", c.Tau)
	}
	if c.Participation < 1 || c.Participation > n {
		return fmt.Errorf("cluster: participation %d out of [1,%d]", c.Participation, n)
	}
	if c.InFlight != 0 && (c.InFlight < c.Participation || c.InFlight > n) {
		return fmt.Errorf("cluster: in-flight %d out of [participation %d, clients %d]",
			c.InFlight, c.Participation, n)
	}
	if c.MaxTime <= 0 && c.MaxUpdates <= 0 {
		return fmt.Errorf("cluster: async run has no stop condition")
	}
	// NaN passes the <= test above, and Time >= NaN or +Inf never stops a run.
	if math.IsNaN(c.MaxTime) || math.IsInf(c.MaxTime, 0) {
		return fmt.Errorf("cluster: async max time %v (want finite)", c.MaxTime)
	}
	if math.IsNaN(c.LR) || math.IsInf(c.LR, 0) || c.LR <= 0 {
		return fmt.Errorf("cluster: async lr %v (want finite > 0)", c.LR)
	}
	if err := c.Opt.Validate(); err != nil {
		return err
	}
	if c.Opt.Adaptive() {
		return fmt.Errorf("cluster: async engine does not support adaptive local rules " +
			"(per-client Adam moments are Theta(clients*dim) state; client sharding exists to avoid it)")
	}
	if c.Compress.Enabled() {
		if err := c.Compress.Validate(); err != nil {
			return err
		}
		if c.Compress.ErrorFeedback {
			return fmt.Errorf("cluster: async engine does not support error feedback " +
				"(a per-client residual is Theta(clients*dim) state; client sharding exists to avoid it)")
		}
	}
	return c.Faults.Validate(n)
}

// asyncClient is one simulated client. Idle, its whole state is the two RNG
// streams; in flight, it additionally holds the compressed wire message it
// will deliver. It never owns a materialized replica.
type asyncClient struct {
	shard  *data.Dataset
	model  *rng.Rand // sampler stream — the idle client's "seed"
	delayR *rng.Rand // compute/transfer-time stream

	inflight bool
	msg      compress.Message
	base     int     // global version pulled at dispatch
	steps    int     // local iterations performed this activation
	upTime   float64 // sampled upload transfer time (link-aware signal)
}

// AsyncStats summarizes a completed async run.
type AsyncStats struct {
	Updates       int     // global aggregations applied
	Applied       int     // arrivals folded into an aggregate
	Expired       int     // arrivals discarded: over-stale, or their sender went down
	MeanStaleness float64 // mean version lag of applied arrivals
	UpBytes       int64   // total client->server wire bytes
	DownBytes     int64   // total server->client wire bytes

	// MaterializedReplicas is the number of persistent replica-sized model
	// buffers the engine owns (the compute slot and the evaluation model);
	// ScratchVectors the dim-length aggregation scratch vectors (global,
	// aggregate, decode, delta). Together they are the engine's entire
	// dense-model footprint — independent of the client count.
	MaterializedReplicas int
	ScratchVectors       int
	PeakInFlight         int // most clients concurrently in flight
}

// AsyncEngine runs event-driven partial-participation training over a
// population of sharded clients.
type AsyncEngine struct {
	cfg      AsyncConfig
	n, dim   int
	inflight int // target concurrently-active clients
	// maxStaleness discards arrivals whose base model is more than this many
	// versions old instead of applying them: the client goes idle and a
	// replacement is dispatched, the drop-and-resample a production federated
	// server performs. A constant of the engine; only tests lower it, to
	// reach the expiry path in a short run.
	maxStaleness int

	global  []float64
	version int

	clients []asyncClient
	idle    []int // idle client ids; sampled uniformly at dispatch

	// Membership, kept with or without a schedule (without one nobody is
	// ever down): where each client sits on the idle list (-1 in flight), the
	// clients down at downVersion, and scratch for their idle-list positions.
	idlePos     []int
	down        []int
	downVersion int
	parkBuf     []int

	q      *events.Queue
	clocks *events.Clocks
	evlog  *events.Trace

	delay     *delaymodel.Model
	slow      []float64
	serverRng *rng.Rand

	com *comm.Communicator
	// comp encodes every upload (shared: compression happens serially at
	// dispatch); the uncompressed wire is the identity scheme, so the dense
	// and compressed paths are one.
	comp compress.Compressor

	computeModel *nn.Network // THE materialized replica slot
	opt          *opt.Optimizer
	deltaBuf     []float64
	decodeBuf    []float64
	aggBuf       []float64
	// pullBuf is the float32 image of global on a WireFloat32 wire (nil
	// otherwise): what every pull downloads. Only applyRound writes global,
	// so refreshPull runs there and at construction, once per version, and
	// the dispatches of a version all read the one image.
	pullBuf []float64
	// sampler is reset onto each dispatched client's shard and stream; nil
	// until the first dispatch (building one draws from a client's stream).
	sampler *data.Sampler
	// freeMsgs recycles delivered and expired wire messages, storage and
	// all, whatever their encoding: a dispatch takes one before it builds
	// any, so no more messages exist than clients were ever in flight at
	// once (AsyncStats.PeakInFlight) and the steady state allocates none.
	freeMsgs []compress.Message

	policy    paramserver.ArrivalPolicy
	curK      int       // arrivals the current round waits for
	arrivals  int       // arrivals accumulated toward the current round
	wsum      float64   // staleness-weight mass of the current round
	aggIters  int       // local iterations in the current round
	linkTimes []float64 // contributors' upload times (current round)
	lastLink  []float64 // previous round's upload times (policy input)

	evalModel *nn.Network
	testSet   *data.Dataset
	evalBatch data.Batch
	testBatch data.Batch

	stats     AsyncStats
	staleSum  int64
	nInFlight int
}

// NewAsync builds an event-driven engine over len(shards) clients. The
// delay model must have one worker per client; its per-worker Links price
// each client's pulls and uploads, and its Jitter (if set) gives every
// client a persistent compute-speed factor so arrival order is not
// degenerate on homogeneous configurations.
func NewAsync(proto *nn.Network, shards []*data.Dataset, trainEval, test *data.Dataset,
	dm *delaymodel.Model, cfg AsyncConfig) (*AsyncEngine, error) {
	n := len(shards)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	if dm.M != n {
		return nil, fmt.Errorf("cluster: delay model has %d workers, got %d shards", dm.M, n)
	}
	if err := checkShards(shards); err != nil {
		return nil, err
	}
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	if err := dm.Check(); err != nil {
		return nil, err
	}
	if dm.EdgeLinks != nil {
		return nil, fmt.Errorf("cluster: per-edge links price gossip graph rounds; the async engine's star exchange uses per-worker Links")
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 100
	}
	if cfg.InFlight == 0 {
		cfg.InFlight = 2 * cfg.Participation
		if cfg.InFlight > n {
			cfg.InFlight = n
		}
	}

	root := rng.New(cfg.Seed)
	e := &AsyncEngine{
		cfg:          cfg,
		n:            n,
		dim:          proto.ParamLen(),
		inflight:     cfg.InFlight,
		maxStaleness: 64,
		global:       append([]float64(nil), proto.Params()...),
		clients:      make([]asyncClient, n),
		q:            events.NewQueue(root.Uint64()),
		clocks:       events.NewClocks(n),
		delay:        dm,
		serverRng:    root.Split(),
		com:          comm.New(comm.AllGather, n),
		computeModel: proto.Clone(),
		opt:          opt.New(cfg.Opt, proto.ParamLen()),
		deltaBuf:     make([]float64, proto.ParamLen()),
		decodeBuf:    make([]float64, proto.ParamLen()),
		aggBuf:       make([]float64, proto.ParamLen()),
		policy:       paramserver.ArrivalPolicy{K: cfg.Participation, LinkAware: cfg.LinkAware},
		evalModel:    proto.Clone(),
		testSet:      test,
	}
	if cfg.RecordEvents {
		e.evlog = &events.Trace{}
	}
	var err error
	if e.slow, err = dm.ComputeScales(cfg.StragglerFactor); err != nil {
		return nil, err
	}
	e.idle = make([]int, n)
	e.idlePos = make([]int, n)
	for i := 0; i < n; i++ {
		e.clients[i] = asyncClient{
			shard:  shards[i],
			model:  root.Split(),
			delayR: root.Split(),
		}
		e.idle[i] = i
		e.idlePos[i] = i // client i starts at position i
	}
	e.downVersion = -1
	if e.comp, err = cfg.Compress.NewWire(root.Split); err != nil {
		return nil, err
	}
	if cfg.Compress.Wire == compress.WireFloat32 {
		e.pullBuf = make([]float64, e.dim)
		e.refreshPull()
	}
	e.evalBatch = data.EvalBatch(trainEval, cfg.EvalSubset, root)
	if test != nil {
		e.testBatch = data.FullBatch(test)
	}
	e.armRound(nil)
	e.stats.MaterializedReplicas = 2 // compute slot + eval model
	e.stats.ScratchVectors = 4       // global, agg, decode, delta
	if e.pullBuf != nil {
		e.stats.ScratchVectors++ // narrowed-pull buffer
	}
	// The local rule's state (momentum buffer, if any) rides the single
	// compute-slot optimizer — activation-scoped, never per-client.
	e.stats.ScratchVectors += len(e.opt.State())
	return e, nil
}

// Dim returns the model parameter count.
func (e *AsyncEngine) Dim() int { return e.dim }

// GlobalParams returns a copy of the current global parameters.
func (e *AsyncEngine) GlobalParams() []float64 {
	return append([]float64(nil), e.global...)
}

// Version returns the number of applied aggregations.
func (e *AsyncEngine) Version() int { return e.version }

// Stats returns the run summary (valid after Run).
func (e *AsyncEngine) Stats() AsyncStats {
	s := e.stats
	if s.Applied > 0 {
		s.MeanStaleness = float64(e.staleSum) / float64(s.Applied)
	}
	return s
}

// EventTrace returns the recorded event log ("" unless
// AsyncConfig.RecordEvents); the golden and determinism tests pin it.
func (e *AsyncEngine) EventTrace() string {
	if e.evlog == nil {
		return ""
	}
	return e.evlog.String()
}

// TrainLoss evaluates the training loss of the global model.
func (e *AsyncEngine) TrainLoss() float64 {
	e.evalModel.SetParams(e.global)
	return e.evalModel.Loss(e.evalBatch)
}

// TestAccuracy evaluates test accuracy of the global model; NaN without a
// test set.
func (e *AsyncEngine) TestAccuracy() float64 {
	if e.testSet == nil {
		return math.NaN()
	}
	e.evalModel.SetParams(e.global)
	return e.evalModel.Accuracy(e.testBatch)
}

// stalenessWeight is the polynomial decay 1/(1+s) a contribution based on a
// model s versions old is weighted by before normalization (Xie et al. 2019's
// rule at exponent 1): fresh contributions (s=0) weigh 1.
func stalenessWeight(s int) float64 {
	if s < 0 {
		panic(fmt.Sprintf("cluster: negative staleness %d", s))
	}
	return 1 / (1 + float64(s))
}

// dispatchNew samples one idle client uniformly (seeded) and schedules its
// Dispatch at time t. Returns false when no client is idle. Clients down at
// the current version are parked: they stay on the idle list and the sample
// covers the active idle clients only — recovery makes them eligible again at
// the next round boundary's refill. Without a schedule nobody is parked and
// the draw covers the whole idle list.
func (e *AsyncEngine) dispatchNew(t float64) bool {
	if len(e.idle) == 0 {
		return false
	}
	// The r-th active position is r stepped past every parked position at or
	// below it. Only the schedule's down events are walked, not the idle
	// population: the draw and the client it lands on are the ones a
	// filtered copy of the idle list would give.
	parked := e.parkedPositions()
	active := len(e.idle) - len(parked)
	if active == 0 {
		return false
	}
	j := e.serverRng.Intn(active)
	for _, p := range parked {
		if p > j {
			break
		}
		j++
	}
	id := e.idle[j]
	last := len(e.idle) - 1
	moved := e.idle[last]
	e.idle[j] = moved
	e.idle = e.idle[:last]
	e.idlePos[moved] = j
	e.idlePos[id] = -1
	// The client is committed (off the idle list) the moment its Dispatch
	// is scheduled — counting here, not at dispatch time, is what keeps the
	// refill loop from over-committing past InFlight.
	e.clients[id].inflight = true
	e.nInFlight++
	if e.nInFlight > e.stats.PeakInFlight {
		e.stats.PeakInFlight = e.nInFlight
	}
	e.q.Push(events.Event{Time: t, Worker: id, Kind: events.Dispatch})
	return true
}

// downNow returns the clients down at the current version. The down set is a
// function of the version alone, so it is rebuilt once per aggregation, not
// per dispatch.
func (e *AsyncEngine) downNow() []int {
	if e.downVersion != e.version {
		e.down = e.cfg.Faults.DownAt(e.version, e.down[:0])
		e.downVersion = e.version
	}
	return e.down
}

// armRound sets how many arrivals the round at the current version waits
// for: the arrival policy's K given the previous round's upload times, and
// no more than the clients that are up. Down clients are parked and
// dispatching happens at round boundaries, so a barrier wider
// than the surviving population could never fill: the queue would drain and
// Run return as if finished — and since the schedule is keyed by the version
// the stalled round would advance, even a blip would never end. (Kas Hanna
// et al. 2022 wait for the K fastest of the workers that exist; the parameter
// server clamps the same way.) With everyone down K stands, and the run
// drains cleanly as documented.
func (e *AsyncEngine) armRound(times []float64) {
	e.curK = e.policy.Effective(times, e.cfg.Participation)
	if up := e.n - len(e.downNow()); up > 0 && up < e.curK {
		e.curK = up
	}
}

// parkedPositions returns the idle-list positions of the clients down at
// the current version, ascending.
func (e *AsyncEngine) parkedPositions() []int {
	e.parkBuf = e.parkBuf[:0]
	for _, id := range e.downNow() {
		if p := e.idlePos[id]; p >= 0 {
			e.parkBuf = append(e.parkBuf, p)
		}
	}
	slices.Sort(e.parkBuf)
	return e.parkBuf
}

// releaseMsg evicts a delivered (or expired) message to the free list.
func (e *AsyncEngine) releaseMsg(c *asyncClient) {
	e.freeMsgs = append(e.freeMsgs, c.msg)
	c.msg = compress.Message{}
}

// dispatch materializes client i into the compute slot, runs its tau local
// steps eagerly (see the package comment — the numerics depend only on the
// dispatch-time global model and the client's own streams), evicts it to a
// compressed delta message, and schedules its Arrival on its own clock.
func (e *AsyncEngine) dispatch(i int, t float64) {
	c := &e.clients[i]

	// Pull: the client downloads the dense global model on its own link. A
	// float32 wire halves the payload and the client trains from the
	// float32-rounded global, pullBuf, narrowed when the version last moved —
	// the download is a priced wire message too.
	downBytes := 8 * e.dim
	pulled := e.global
	if e.pullBuf != nil {
		downBytes = 4 * e.dim
		pulled = e.pullBuf
	}
	e.stats.DownBytes += int64(downBytes)
	downTime := e.delay.SampleTransfer(c.delayR, i, downBytes)

	// Materialize + local work (the only replica ever materialized). The
	// optimizer state is activation-scoped: a freshly sampled client has no
	// history, so any momentum buffer restarts from zero (a no-op for the
	// stateless plain rule).
	e.computeModel.SetParams(pulled)
	if e.sampler == nil {
		e.sampler = data.NewSampler(c.shard, e.cfg.BatchSize, c.model)
	} else {
		e.sampler.Reset(c.shard, c.model)
	}
	e.opt.ResetState()
	e.opt.SetLR(e.cfg.LR)
	for k := 0; k < e.cfg.Tau; k++ {
		b := e.sampler.Next()
		e.computeModel.LossGrad(b, e.deltaBuf)
		e.opt.Step(e.computeModel.Params(), e.deltaBuf)
	}
	compute := 0.0
	for k := 0; k < e.cfg.Tau; k++ {
		compute += e.delay.Y.Sample(c.delayR)
	}
	compute *= e.slow[i]

	// Evict: the client's surviving state is the wire message, encoded into
	// recycled storage when any has come back.
	tensor.Sub(e.deltaBuf, e.computeModel.Params(), e.global)
	if k := len(e.freeMsgs); k > 0 {
		c.msg = e.freeMsgs[k-1]
		e.freeMsgs = e.freeMsgs[:k-1]
	}
	if err := e.comp.CompressInto(e.deltaBuf, &c.msg); err != nil {
		panic(fmt.Sprintf("cluster: client %d compress: %v", i, err))
	}
	c.base = e.version
	c.steps = e.cfg.Tau
	c.upTime = e.delay.SampleTransfer(c.delayR, i, c.msg.Bytes())
	// The fault multiplier (exactly 1 without a schedule) applies to both
	// transfer legs, AFTER the draws, so the client's RNG streams stay
	// aligned with the fault-free run.
	f := e.cfg.Faults.TransferScale(e.cfg.Seed, e.version, i)
	downTime *= f
	c.upTime *= f

	arrival := t + downTime + compute + c.upTime
	e.clocks.AdvanceTo(i, arrival)
	e.q.Push(events.Event{Time: arrival, Worker: i, Kind: events.Arrival})
}

// goIdle returns client i to the idle list.
func (e *AsyncEngine) goIdle(i int) {
	e.clients[i].inflight = false
	e.nInFlight--
	e.idlePos[i] = len(e.idle)
	e.idle = append(e.idle, i)
}

// arrive folds client i's delivered message into the pending aggregate (or
// discards it as expired, immediately dispatching a replacement) and reports
// whether the round completed. Non-expired early arrivals do NOT trigger a
// replacement — dispatching happens at round boundaries, which is what makes
// Participation == InFlight == N the exact synchronous barrier (every client
// contributes exactly once per round) and keeps a fast client from counting
// twice toward one aggregate.
func (e *AsyncEngine) arrive(i int, t float64) (roundDone bool) {
	c := &e.clients[i]
	e.goIdle(i)

	if e.cfg.Faults.Down(i, e.version) {
		// The sender crashed (or blipped out) while its message was in
		// flight: the server expires the work — the existing
		// drop-and-redispatch path — so crashed state never folds into an
		// aggregate.
		e.stats.Expired++
		e.releaseMsg(c)
		e.dispatchNew(t)
		return false
	}

	s := e.version - c.base
	if s > e.maxStaleness {
		e.stats.Expired++
		e.releaseMsg(c)
		e.dispatchNew(t)
		return false
	}
	up, err := e.com.Push(i, c.msg, e.decodeBuf)
	if err != nil {
		panic(fmt.Sprintf("cluster: client %d push: %v", i, err))
	}
	e.stats.UpBytes += int64(up)
	e.releaseMsg(c)

	w := stalenessWeight(s)
	tensor.Axpy(w, e.decodeBuf, e.aggBuf)
	e.wsum += w
	e.arrivals++
	e.aggIters += c.steps
	e.staleSum += int64(s)
	e.stats.Applied++
	e.linkTimes = append(e.linkTimes, c.upTime)
	return e.arrivals >= e.curK
}

// applyRound commits the staleness-weighted aggregate, advances the global
// version, and re-arms the arrival policy with this round's observed upload
// times.
func (e *AsyncEngine) applyRound() (iters int) {
	scale := 1 / e.wsum
	for j, v := range e.aggBuf {
		e.global[j] += scale * v
		e.aggBuf[j] = 0
	}
	e.refreshPull()
	e.version++
	e.stats.Updates++
	iters = e.aggIters

	e.lastLink = append(e.lastLink[:0], e.linkTimes...)
	e.armRound(e.lastLink)
	e.linkTimes = e.linkTimes[:0]
	e.wsum = 0
	e.arrivals = 0
	e.aggIters = 0
	return iters
}

// refreshPull narrows global into pullBuf, when the wire has one.
func (e *AsyncEngine) refreshPull() {
	for j, v := range e.global[:len(e.pullBuf)] {
		e.pullBuf[j] = compress.Narrow32(v)
	}
}

// Run executes the event loop until a stop condition is reached and returns
// the training trace. Deterministic given cfg.Seed.
func (e *AsyncEngine) Run(traceName string) *metrics.Trace {
	trace := metrics.NewTrace(traceName)
	now := 0.0
	totalIters := 0

	record := func() {
		trace.Add(metrics.Point{
			Time: now, Iter: totalIters, Loss: e.TrainLoss(),
			Acc: math.NaN(), Tau: e.cfg.Tau, LR: e.cfg.LR,
		})
	}
	record()
	nextEval := e.cfg.EvalEvery

	for i := 0; i < e.inflight; i++ {
		e.dispatchNew(0)
	}

	for {
		ev, ok := e.q.Pop()
		if !ok {
			break
		}
		if e.cfg.MaxTime > 0 && ev.Time >= e.cfg.MaxTime {
			break
		}
		now = ev.Time
		if e.evlog != nil {
			e.evlog.Record(ev)
		}
		switch ev.Kind {
		case events.Dispatch:
			e.dispatch(ev.Worker, ev.Time)
		case events.Arrival:
			if e.arrive(ev.Worker, ev.Time) {
				totalIters += e.applyRound()
				if totalIters >= nextEval {
					record()
					for nextEval <= totalIters {
						nextEval += e.cfg.EvalEvery
					}
				}
				// Refill the in-flight set from the idle population; the
				// clients that just reported are eligible for resampling.
				for e.nInFlight < e.inflight && e.dispatchNew(ev.Time) {
				}
				if e.cfg.MaxUpdates > 0 && e.version >= e.cfg.MaxUpdates {
					record()
					return trace
				}
			}
		}
	}
	record()
	return trace
}
