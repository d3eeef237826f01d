// Package cluster implements the distributed training substrate of the
// reproduction: periodic-averaging SGD (PASGD, paper eq 3) over m simulated
// workers. Each worker owns a model replica, a shard of the training data,
// and an optimizer; after every tau local steps the replicas are averaged
// (the tau=1 special case is fully synchronous SGD, eq 4).
//
// Wall-clock time is simulated through internal/delaymodel: a round of tau
// local steps costs max-over-workers of the summed per-step compute times,
// plus one broadcast delay. This is exactly the runtime model of the
// paper's Sec 3.1, and it is what places simulated seconds on the x-axis of
// the reproduced figures.
//
// # Compressed averaging
//
// All model exchange — raw or compressed, full averaging, ring gossip, or
// elastic averaging — routes through the unified communication layer in
// internal/comm: workers contribute wire messages (internal/compress), the
// communicator aggregates them by sparse index-merge, and the resulting
// transfer schedule (per-worker wire bytes plus the configured topology's
// hop multipliers) is what delaymodel prices, per worker when the model has
// heterogeneous Links.
//
// When Config.Compress names a compressor (internal/compress), full
// averaging exchanges compressed DELTAS instead of raw parameter vectors:
// each worker i compresses x_i - x_glob (its movement since the last
// synchronization, routed through its private error-feedback residual if
// configured), the communicator index-merges the messages, and the new
// synchronized model x_glob + mean(delta_hat_i) is broadcast back. With the
// zero-value Compress spec and Topology it takes the raw-averaging
// all-gather path and, because an infinite-bandwidth link ignores payload
// size, reproduces pre-compression traces bit for bit (enforced by the
// golden tests). Gossip and elastic averaging have no raw path: their zero
// spec is the identity wire (strategies.go).
//
// The engine (Engine.Run) is deterministic and lock-step, and its
// local-update phase is genuinely concurrent: each round's tau per-worker
// update loops fan out across a bounded goroutine pool
// (Config.ComputeWorkers, default GOMAXPROCS). Workers are independent
// between averaging points — each owns its model replica, sampler RNG
// stream, optimizer, and gradient buffer — and the averaging step always
// reduces contributions in fixed worker order, so the pool width and
// goroutine scheduling cannot change a single bit of the trajectory.
// ComputeWorkers: 1 forces the legacy serial loop; the golden and
// determinism tests pin serial and parallel traces bit-identical.
//
// # One path, whatever is absent
//
// Every engine keeps its membership view with or without a fault schedule
// (without one it is everyone up at transfer scale 1, see internal/faults),
// and the lock-step engine averages the extended vector of parameters plus
// synced optimizer state even when that state is empty (see internal/opt).
// No branch asks whether either exists; the golden tables run each
// fault-free row under nil, empty and beyond-horizon schedules.
package cluster

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

// Config controls a PASGD run.
type Config struct {
	BatchSize int // per-worker mini-batch size

	// Opt is the update rule applied at every worker: any internal/opt rule
	// (plain SGD, momentum, Nesterov, Local Adam, with the
	// synced-second-moment ablation axis). The zero value is plain SGD,
	// bit-identical to every pre-optimizer-layer golden.
	Opt opt.Config

	// GlobalMomentum is the global momentum factor beta_glob applied to the
	// accumulated per-round update at every sync point (the paper's block
	// momentum, eq 24-25, generalized SlowMo-style to ANY strategy): full
	// averaging filters the population displacement through one shared
	// buffer, while gossip and elastic averaging keep one buffer per node,
	// filtering each node's own mixing displacement. When enabled, local
	// momentum buffers are reset at each sync (paper Sec 5.3.1 / CNTK
	// practice). The buffered update is applied whole (the BMUF form: slow
	// learning rate 1). 0 disables.
	GlobalMomentum float64

	// Stop conditions: the run ends when either is reached (zero = unset;
	// at least one must be set).
	MaxIters int
	MaxTime  float64

	// EvalEvery records a trace point every EvalEvery local iterations
	// (the paper records every 100). Evaluation happens at the first
	// averaging point at or after the crossing, on the synchronized model.
	EvalEvery int

	// EvalSubset bounds the number of training examples used for loss
	// evaluation (0 = full training set).
	EvalSubset int

	// AccEverySync evaluates test accuracy every this-many averaging steps
	// (0 = never). Accuracy is evaluated on the synchronized model.
	AccEverySync int

	// StragglerFactor optionally slows individual workers: worker i's
	// compute times are multiplied by StragglerFactor[i], which must be
	// finite and > 0 (delaymodel.Model.ComputeScales). nil = all 1.
	StragglerFactor []float64

	// ComputeWorkers bounds the goroutine pool that executes the simulated
	// workers' local-update phases (Run, StepLocal). 0 defaults to
	// runtime.GOMAXPROCS(0); an effective value of 1 (explicitly, or on a
	// single-core machine) takes the legacy serial path. Workers are
	// independent between averaging points — each owns its replica, sampler
	// stream, and optimizer — and averaging reduces in fixed worker order,
	// so parallel execution is bit-identical to serial (asserted by the
	// golden and determinism tests). Negative values are rejected.
	ComputeWorkers int

	// Strategy selects the mixing rule at synchronization points:
	// FullAveraging (PASGD, the default), RingGossip (decentralized), or
	// ElasticAveraging (EASGD).
	Strategy Strategy

	// GossipGamma is the consensus step size of compressed (CHOCO-SGD)
	// gossip: each node moves gamma of the way toward its neighborhood's
	// estimate average, x_i += gamma * sum_j W_ij (x̂_j - x̂_i), with W the
	// active mixing graph's matrix. The zero value defaults to 1, which
	// makes a lossless wire (uncompressed included) the plain gossip mix
	// bit for bit; aggressive lossy compressors typically want gamma < 1 to
	// damp the estimate noise. Explicit values must lie in (0, 1] and require
	// RingGossip with compression enabled.
	GossipGamma float64

	// AdaptGossipGamma derives the consensus step from each mixing graph's
	// measured spectral gap instead of a hand-picked constant:
	// gamma = sqrt(1 - lambda_2(W)) clamped to [0.05, 1]
	// (graph.AdaptiveGamma) — the same measure-then-scale shape AdaComm
	// applies to tau. Well-connected graphs run full-strength consensus;
	// slow-mixing ones damp it so compressed estimate noise cannot be
	// amplified around the cycle. Requires RingGossip with compression and
	// excludes an explicit GossipGamma; under a time-varying sequence each
	// graph gets its own gamma.
	AdaptGossipGamma bool

	// Compress selects the compressor every worker ships its messages
	// through at averaging points (see the package comment). Full averaging
	// exchanges compressed deltas from the synchronized model, ring gossip
	// CHOCO deltas from each node's own wire estimate, elastic averaging
	// displacements from the center variable. The zero value (compress.None)
	// is the identity wire for gossip and elastic averaging — the same
	// protocol, bit for bit, as an explicit identity spec — while full
	// averaging keeps its raw-vector mean, bit-identical to the
	// pre-compression engine. Ring gossip rejects error feedback: CHOCO's
	// estimates already are the error memory.
	Compress compress.Spec

	// Topology selects either how full averaging's all-reduce is routed, or
	// which mixing graph gossip runs over (internal/comm). A collective
	// topology (ring/tree/star all-reduce schedules) scales the round's
	// communication delay by its transfer schedule without changing the
	// aggregation math, and requires FullAveraging; the zero value
	// (comm.AllGather) is the legacy overlapped all-gather, bit-identical
	// to the pre-comm-layer engine. A GRAPH topology (comm.Topology.IsGraph
	// — "torus:4x4", "regular:4@7", "varying:ring,star@B=5", ...) instead
	// names the gossip mixing graph and requires RingGossip: each node
	// mixes over graph.Neighbors(i) with the graph's doubly stochastic
	// weights, time-varying sequences advance the active graph once per
	// synchronization, and the round keeps gossip's single-overlapped-hop
	// pricing — per ACTIVE EDGE when the delay model sets EdgeLinks. The
	// RingGossip strategy with the zero-value Topology runs the default
	// ring graph, bit-identical to the legacy hard-coded ring.
	Topology comm.Topology

	// Faults optionally injects a seeded crash/churn/slow-down schedule
	// (internal/faults), keyed by the driving loop's round index. Crashed
	// and blipped-out workers skip local updates and synchronization —
	// full and elastic averaging renormalize over the survivors, gossip
	// mixes on the induced active subgraph (down nodes isolated, weights
	// and spectral gap re-derived, AdaptGossipGamma re-adapted) — and a
	// worker rejoining after a blip reconciles first by pulling the
	// current global model as a priced dense delta against its stale
	// replica. Slow-down episodes and drop-retries multiply the affected
	// worker's transfer times in the round schedule. The schedule is a
	// pure function of (Seed, round) and consumes no RNG from any engine
	// stream; nil (or an empty schedule) keeps every trajectory
	// bit-identical to the fault-free engine. Run and the async engine
	// honor it; the manual StepLocal/SyncNow drivers do not advance the
	// schedule.
	Faults *faults.Schedule

	Seed uint64
}

func (c Config) validate() error {
	if c.BatchSize < 1 {
		return fmt.Errorf("cluster: batch size %d", c.BatchSize)
	}
	if c.MaxIters <= 0 && c.MaxTime <= 0 {
		return fmt.Errorf("cluster: no stop condition set")
	}
	// NaN passes the <= test above, and Time >= NaN or +Inf never stops a run.
	if math.IsNaN(c.MaxTime) || math.IsInf(c.MaxTime, 0) {
		return fmt.Errorf("cluster: max time %v (want finite)", c.MaxTime)
	}
	if c.ComputeWorkers < 0 {
		return fmt.Errorf("cluster: compute workers %d < 0", c.ComputeWorkers)
	}
	if err := c.Opt.Validate(); err != nil {
		return err
	}
	if c.Opt.SyncedMoments && c.Strategy == ElasticAveraging {
		// Elastic averaging has no averaging step to ship the moment
		// through: the alpha/beta center pull is not a mean, so a synced
		// second moment would need its own center dynamics. Rejected rather
		// than silently approximated.
		return fmt.Errorf("cluster: synced Adam moments require an averaging strategy (full or gossip); elastic's center pull is not an average")
	}
	if math.IsNaN(c.GlobalMomentum) || c.GlobalMomentum < 0 || c.GlobalMomentum >= 1 {
		return fmt.Errorf("cluster: global momentum %v outside [0,1)", c.GlobalMomentum)
	}
	if c.GossipGamma != 0 {
		if c.Strategy != RingGossip || !c.Compress.Enabled() {
			return fmt.Errorf("cluster: gossip gamma %g requires RingGossip with compression", c.GossipGamma)
		}
		if math.IsNaN(c.GossipGamma) || c.GossipGamma < 0 || c.GossipGamma > 1 {
			return fmt.Errorf("cluster: gossip gamma %v out of (0,1]", c.GossipGamma)
		}
	}
	if c.AdaptGossipGamma {
		if c.Strategy != RingGossip || !c.Compress.Enabled() {
			return fmt.Errorf("cluster: adaptive gossip gamma requires RingGossip with compression")
		}
		if c.GossipGamma != 0 {
			return fmt.Errorf("cluster: adaptive gossip gamma excludes an explicit GossipGamma (%g)", c.GossipGamma)
		}
	}
	if c.Compress.Enabled() {
		if err := c.Compress.Validate(); err != nil {
			return err
		}
	}
	if c.Strategy == RingGossip && c.Compress.ErrorFeedback {
		// x - x̂ is already the residual the wire has not delivered, and the
		// estimates carry it to the next round; a residual memory on top
		// compensates twice, and the run blows up at every gamma.
		return fmt.Errorf("cluster: ring gossip rejects error feedback (%s): CHOCO's estimates already carry what the wire dropped, so +ef compensates twice", c.Compress)
	}
	if c.Topology.IsGraph() {
		if c.Strategy != RingGossip {
			return fmt.Errorf("cluster: gossip graph topology %s requires RingGossip, got %s", c.Topology, c.Strategy)
		}
	} else if c.Topology != comm.AllGather && c.Strategy != FullAveraging {
		return fmt.Errorf("cluster: topology %s requires FullAveraging, got %s", c.Topology, c.Strategy)
	}
	return nil
}

// RoundInfo is the engine state visible to a Controller before each round.
type RoundInfo struct {
	Round    int     // completed averaging rounds
	Iter     int     // completed local iterations (per worker)
	Time     float64 // simulated wall-clock seconds
	Epoch    int     // completed passes over each worker's shard
	LastTau  int     // tau used in the previous round (0 before first)
	LastLR   float64 // learning rate used in the previous round
	LastLoss float64 // most recent evaluated training loss (NaN if none)

	// Observed timing, populated by the engine (all zero before the first
	// round). CommTime and ComputeTime split Time into the cumulative
	// simulated wall-clock spent on synchronization versus local compute;
	// LastCommTime is the previous round's synchronization delay alone.
	// Their ratio is the controller-visible estimate of the paper's runtime
	// term alpha = E[D]/E[Y], which link-aware controllers consume.
	CommTime     float64
	ComputeTime  float64
	LastCommTime float64

	// GradNorm is the l2 norm of worker 0's most recent mini-batch gradient
	// (zero before the first round; under churn it may reflect a frozen
	// worker). Controllers that drive the QSGD bit-width from gradient-norm
	// decay (compress.NormDecayBits) consume it; reading it costs no RNG
	// and does not perturb any trajectory.
	GradNorm float64

	// LinkTimes[i] is worker i's own transfer time in the previous round's
	// schedule (delaymodel.SampleDRound: link latency times the
	// topology's hops plus wire bytes over the link's bandwidth, before the
	// model's scale factor) — which link gated the round and by how much.
	// Under per-edge pricing (delaymodel.Model.EdgeLinks on a gossip graph)
	// it is instead worker i's slowest ACTIVE outgoing edge. The slice is
	// engine-owned and overwritten every round; controllers must not retain
	// or mutate it. Nil before the first round.
	LinkTimes []float64
}

// Controller chooses the communication period and learning rate for the
// next round. evalLoss evaluates the current synchronized model's training
// loss on demand (it is relatively expensive; AdaComm calls it once per
// wall-clock interval).
type Controller interface {
	NextRound(info RoundInfo, evalLoss func() float64) (tau int, lr float64)
	Name() string
}

// RatioController is optionally implemented by controllers that adapt the
// compression keep-ratio jointly with tau (e.g. core.AdaCommCompress). When
// the controller implements it, the engine retunes every adaptive
// compressor to CompressionRatio() before each round.
type RatioController interface {
	Controller
	CompressionRatio() float64
}

// FixedTau is the baseline controller: constant communication period with a
// learning rate drawn from an epoch-indexed schedule. FixedTau{Tau: 1}
// is fully synchronous SGD.
type FixedTau struct {
	Tau      int
	Schedule sgd.Schedule
}

// NextRound implements Controller.
func (f FixedTau) NextRound(info RoundInfo, _ func() float64) (int, float64) {
	return f.Tau, f.Schedule.LR(info.Epoch)
}

// Name implements Controller.
func (f FixedTau) Name() string { return fmt.Sprintf("tau=%d", f.Tau) }

// worker is one simulated node.
type worker struct {
	model   *nn.Network
	sampler *data.Sampler
	opt     *opt.Optimizer
	sync    [][]float64 // the optimizer's SyncAverage vectors (live views)
	grad    []float64
}

// Engine runs PASGD over m workers.
type Engine struct {
	workers []*worker
	m       int
	dim     int
	pool    int // resolved compute-pool width (<=1 means serial)

	global []float64 // synchronized model parameters

	// Optimizer-layer state. optSteps counts the local steps a
	// continuously-active worker has taken (the Adam second-moment clock
	// rejoin reconciliation re-derives). gmom is the shared global-momentum
	// buffer of FullAveraging; gmoms are the per-node buffers of the
	// gossip/elastic strategies.
	optSteps int
	gmom     *opt.Global
	gmoms    []*opt.Global

	// Wire-visible synced optimizer state (Opt.SyncedMoments): every
	// averaged payload is the extended vector of xdim = dim + syncedLen,
	// extGlobal = [global | synced reference] and extWork per-worker
	// extended rows (loadExt/storeExt marshal a worker's params + SyncAverage
	// vectors through them). All averaging scratch (sumBuf, avgBuf, deltaBuf,
	// CHOCO estimates) is sized xdim, so the state rides the same
	// compression, payload accounting, and float32 wire narrowing as the
	// parameters. With nothing synced the extension is empty: xdim == dim,
	// extGlobal IS global, and loadExt hands back the replica's own
	// parameters. ext says whether the extension is non-empty.
	xdim      int
	ext       bool
	extGlobal []float64
	extWork   [][]float64

	delay *delaymodel.Model
	slow  []float64 // per-worker compute slowdown factors
	r     *rng.Rand // delay sampling stream

	// Communication state: every model exchange routes through com
	// (internal/comm), and lastReport is the most recent round's transfer
	// schedule, charged by roundTime in the same round (an all-reduce's
	// Bytes are the communicator's scratch, rewritten by the next one — by
	// which time lastReport has been replaced too). latHops/bytesFactor are
	// the configured topology's schedule multipliers, fixed at construction.
	com         *comm.Communicator
	lastReport  comm.Report
	latHops     float64
	bytesFactor float64
	linkTimes   []float64 // per-worker transfer times of the last round

	// Compression state: comps[i] is worker i's compressor (owning its
	// error-feedback residual and stochastic stream), compress.Identity{}
	// under the zero spec. The engine owns every wire message: msgBuf[i] is
	// worker i's all-reduce slot, recompressed into each round (full
	// averaging's uncompressed mean only borrows the replica as a dense
	// view), and wireMsg is the one slot gossip and elastic exchanges share —
	// each message is decoded before the next worker compresses.
	comps    []compress.Compressor
	deltaBuf []float64
	sumBuf   []float64
	msgBuf   []compress.Message
	wireMsg  compress.Message
	avgBuf   []float64 // averaging / post-mix scratch, reused every round

	// Strategy scratch, engine-owned and reused every sync per the PR-4
	// arena convention (steady-state rounds allocate nothing): meanVecs
	// feeds gossip's evaluation mean under churn, pullBuf accumulates
	// elastic's center displacement, and repBytes backs the strategies'
	// per-sync transfer reports. gossip is the CHOCO-SGD estimate state of
	// ring gossip.
	meanVecs [][]float64
	pullBuf  []float64
	repBytes []int
	gossip   *gossipState

	// Gossip mixing graphs (nil unless Strategy is RingGossip): gseq is the
	// (possibly time-varying) graph sequence — the default ring when
	// Topology is not a graph — syncs counts completed gossip
	// synchronizations (advancing the active graph), activeAdj is the
	// adjacency of the most recent sync's graph (what the per-edge delay
	// pricing charges; nil before the first sync and on non-gossip
	// strategies, delegating to the per-worker path bit-identically),
	// gammas holds the per-graph adaptive consensus steps when
	// AdaptGossipGamma is set.
	gseq      *graph.Sequence
	syncs     int
	activeAdj [][]int
	gammas    []float64

	evalModel *nn.Network // scratch replica for loss/accuracy evaluation
	testSet   *data.Dataset
	evalBatch data.Batch
	testBatch data.Batch

	// Membership view, always present: fault-free it is everyone up at
	// transfer scale 1, and every strategy runs its one path over it.
	// fltActive/fltDown are the round's membership view and its inverse
	// (the delay model's mask convention), fltNActive its size, fltScale
	// the per-worker transfer multipliers (slow-down episodes times drop
	// retries), reconBytes the rejoin-reconcile payloads charged into the
	// round's schedule, fltBytesBuf the schedule-bytes scratch that adds
	// them in, and zeroRep the all-down round's empty transfer report.
	// subGraph caches the induced active subgraph of the current gossip
	// graph (re-derived only when the graph index or membership changes —
	// subForIdx/subActive are the cache key) and subGamma its re-adapted
	// consensus step.
	fltActive   []bool
	fltDown     []bool
	fltNActive  int
	fltScale    []float64
	reconBytes  []int
	fltBytesBuf []int
	zeroRep     comm.Report
	subGraph    *graph.Graph
	subForIdx   int
	subActive   []bool
	subGamma    float64

	// Previous round's membership view of the shared global-momentum
	// buffer (allocated only with faults AND gmom): the buffered
	// dispersion was accumulated over gmomPrev's population, so a
	// membership change renormalizes it by the surviving fraction
	// |A_t ∩ A_prev| / |A_prev| before it is mixed again (beginRound).
	gmomPrev  []bool
	gmomPrevN int

	cfg Config
}

// checkShards rejects a worker with nothing to train on — more workers than
// examples leave the last shards empty, and a sampler over an empty shard
// panics on its first batch.
func checkShards(shards []*data.Dataset) error {
	total := 0
	for _, s := range shards {
		total += s.N()
	}
	for i, s := range shards {
		if s.N() == 0 {
			return fmt.Errorf("cluster: worker %d has no training data (%d workers over %d examples)", i, len(shards), total)
		}
	}
	return nil
}

// New builds an engine: the prototype network is cloned per worker (plus
// one evaluation replica), the training set is the union of the shards
// (used for loss evaluation), and the test set may be nil.
func New(proto *nn.Network, shards []*data.Dataset, trainEval, test *data.Dataset,
	dm *delaymodel.Model, cfg Config) (*Engine, error) {
	m := len(shards)
	if m == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	if dm.M != m {
		return nil, fmt.Errorf("cluster: delay model has %d workers, got %d shards", dm.M, m)
	}
	if err := checkShards(shards); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := dm.Check(); err != nil {
		return nil, err
	}
	if dm.EdgeLinks != nil && cfg.Strategy != RingGossip {
		return nil, fmt.Errorf("cluster: per-edge links price gossip graph rounds and require RingGossip, got %s", cfg.Strategy)
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 100
	}
	if cfg.Strategy == RingGossip && cfg.GossipGamma == 0 && !cfg.AdaptGossipGamma {
		cfg.GossipGamma = 1
	}
	root := rng.New(cfg.Seed)
	e := &Engine{
		m:         m,
		dim:       proto.ParamLen(),
		global:    append([]float64(nil), proto.Params()...),
		delay:     dm,
		r:         root.Split(),
		evalModel: proto.Clone(),
		testSet:   test,
		cfg:       cfg,
	}
	// Straggler factors times the delay model's per-worker jitter (a nil
	// Jitter draws nothing, keeping every legacy trace bit-identical).
	var err error
	if e.slow, err = dm.ComputeScales(cfg.StragglerFactor); err != nil {
		return nil, err
	}
	// Global momentum: FullAveraging keeps one shared buffer on the
	// reference model; gossip and elastic keep one buffer per node. None of
	// this consumes RNG.
	if cfg.GlobalMomentum != 0 {
		if cfg.Strategy == FullAveraging {
			e.gmom = opt.NewGlobal(cfg.GlobalMomentum, e.dim)
		} else {
			e.gmoms = make([]*opt.Global, m)
			for i := range e.gmoms {
				e.gmoms[i] = opt.NewGlobal(cfg.GlobalMomentum, e.dim)
			}
		}
	}
	for i := 0; i < m; i++ {
		w := &worker{
			model:   proto.Clone(),
			sampler: data.NewSampler(shards[i], cfg.BatchSize, root.Split()),
			opt:     opt.New(cfg.Opt, proto.ParamLen()),
			grad:    make([]float64, proto.ParamLen()),
		}
		w.sync = opt.SyncedVecs(w.opt)
		e.workers = append(e.workers, w)
	}
	// Wire-visible synced state extends every averaged payload: xdim is
	// the extended vector length all averaging scratch below is sized to.
	// With nothing synced the extension is empty and extGlobal is global.
	e.xdim = e.dim + opt.SyncedLen(e.workers[0].opt)
	e.extGlobal = e.global
	if e.xdim > e.dim {
		e.ext = true
		e.extGlobal = make([]float64, e.xdim)
		copy(e.extGlobal, e.global)
		e.global = e.extGlobal[:e.dim]
		back := make([]float64, m*e.xdim)
		e.extWork = make([][]float64, m)
		for i := range e.extWork {
			e.extWork[i] = back[i*e.xdim : (i+1)*e.xdim]
		}
	}
	e.evalBatch = data.EvalBatch(trainEval, cfg.EvalSubset, root)
	if test != nil {
		e.testBatch = data.FullBatch(test)
	}
	// Before the first synchronization a round's transfer schedule is the
	// spec's data-independent wire size on every link (the dense model
	// uncompressed; a float32 wire halves it); each averaging overwrites it
	// with the observed payload. The communicator owns no RNG.
	e.com = comm.New(cfg.Topology, m)
	e.latHops = cfg.Topology.LatencyHops(m)
	e.bytesFactor = cfg.Topology.BytesFactor(m)
	e.lastReport = comm.Report{Bytes: make([]int, m), Max: cfg.Compress.WireBytes(e.xdim)}
	for i := range e.lastReport.Bytes {
		e.lastReport.Bytes[i] = e.lastReport.Max
	}
	e.linkTimes = make([]float64, m)
	e.sumBuf = make([]float64, e.xdim)
	e.msgBuf = make([]compress.Message, m)
	e.avgBuf = make([]float64, e.xdim)
	e.pool = cfg.ComputeWorkers
	if e.pool == 0 {
		e.pool = runtime.GOMAXPROCS(0)
	}
	if e.pool > m {
		e.pool = m
	}
	// Compressor construction comes last: the zero spec's Identity{} draws
	// no stream, so an uncompressed engine consumes exactly the legacy RNG.
	e.comps = make([]compress.Compressor, m)
	for i := range e.comps {
		c, err := cfg.Compress.NewWire(root.Split)
		if err != nil {
			return nil, err
		}
		e.comps[i] = c
	}
	e.deltaBuf = make([]float64, e.xdim)
	switch cfg.Strategy {
	case RingGossip:
		// The mixing graph sequence: the default ring graph's rows carry
		// the exact legacy accumulation order ([prev, self, next], summed
		// then divided once), so the zero-value Topology reproduces the
		// hard-coded ring gossip bit for bit.
		if cfg.Topology.IsGraph() {
			seq, err := cfg.Topology.Graphs(m)
			if err != nil {
				return nil, err
			}
			e.gseq = seq
		} else {
			e.gseq = graph.Static(graph.Ring(m))
		}
		if cfg.AdaptGossipGamma {
			e.gammas = make([]float64, e.gseq.Len())
			for i := range e.gammas {
				e.gammas[i] = graph.AdaptiveGamma(e.gseq.Graph(i).SpectralGap())
			}
		}
		// Lossless specs (None or identity, on a float64 wire) let the
		// CHOCO protocol ship the parameters themselves and pin the
		// estimates exactly; see averageRing. A float32 wire is lossy, so
		// it takes the general estimate-delta path.
		e.meanVecs = make([][]float64, m)
		e.repBytes = make([]int, m)
		// CHOCO estimates cover the synced state.
		e.gossip = newGossipState(m, e.extGlobal, cfg.GossipGamma, cfg.Compress.Lossless())
		for i := range e.gossip.nodes {
			e.gossip.nodes[i] = e.workers[i].model
		}
	case ElasticAveraging:
		e.pullBuf = make([]float64, e.dim)
		e.repBytes = make([]int, m)
	}
	// The membership view starts with everyone up at transfer scale 1 and
	// draws nothing: the schedule is a pure function of (Seed, round), so
	// attaching one cannot shift any existing stream. Without a schedule it
	// never changes.
	if err := cfg.Faults.Validate(m); err != nil {
		return nil, err
	}
	e.fltActive = make([]bool, m)
	e.fltDown = make([]bool, m)
	e.fltScale = make([]float64, m)
	for i := range e.fltActive {
		e.fltActive[i] = true
		e.fltScale[i] = 1
	}
	e.fltNActive = m
	e.reconBytes = make([]int, m)
	e.fltBytesBuf = make([]int, m)
	e.zeroRep = comm.Report{Bytes: make([]int, m)}
	e.subForIdx = -1
	e.subActive = make([]bool, m)
	if cfg.Faults.Enabled() && e.gmom != nil {
		e.gmomPrev = make([]bool, m)
		for i := range e.gmomPrev {
			e.gmomPrev[i] = true
		}
		e.gmomPrevN = m
	}
	return e, nil
}

// Dim returns the model parameter count.
func (e *Engine) Dim() int { return e.dim }

// Workers returns the number of workers m.
func (e *Engine) Workers() int { return e.m }

// GlobalParams returns a copy of the current synchronized parameters.
func (e *Engine) GlobalParams() []float64 {
	return append([]float64(nil), e.global...)
}

// TrainLoss evaluates the training loss of the synchronized model on the
// evaluation subset.
func (e *Engine) TrainLoss() float64 {
	e.evalModel.SetParams(e.global)
	return e.evalModel.Loss(e.evalBatch)
}

// TestAccuracy evaluates test accuracy of the synchronized model; NaN when
// no test set was provided.
func (e *Engine) TestAccuracy() float64 {
	if e.testSet == nil {
		return math.NaN()
	}
	e.evalModel.SetParams(e.global)
	return e.evalModel.Accuracy(e.testBatch)
}

// roundTime prices a round of `steps` local iterations followed by one
// synchronization with the delay model's two halves (see internal/delaymodel):
// compute is the slowest up worker's scaled sum of compute draws, comm the
// round's transfer schedule — the communicator's per-worker wire bytes under
// the topology's hop multipliers, over the gossip graph just used
// (e.activeAdj) when per-edge links are set — with the per-worker transfer
// times landing in e.linkTimes for the next RoundInfo.
func (e *Engine) roundTime(steps int) (compute, comm float64) {
	compute = e.delay.SampleCompute(e.r, steps, e.slow, e.fltDown)
	// Rejoin-reconcile payloads ride the round's schedule, down workers ship
	// nothing, and slow-down/drop-retry factors multiply the survivors'
	// transfers. Fault-free the payloads are 0, nobody is down and every
	// factor is 1: the same schedule, priced to the same bit.
	for i, b := range e.lastReport.Bytes {
		e.fltBytesBuf[i] = b + e.reconBytes[i]
	}
	return compute, e.delay.SampleDRound(e.r, e.fltBytesBuf, e.activeAdj, e.latHops, e.bytesFactor, e.fltDown, e.fltScale, e.linkTimes)
}

// CommBytesPerRound returns the per-link payload charged for the most
// recent synchronization (the round's largest message).
func (e *Engine) CommBytesPerRound() int { return e.lastReport.Max }

// setCompressionRatio retunes every adaptive compressor to the given
// keep-ratio (no-op for fixed-rate compressors and the identity).
func (e *Engine) setCompressionRatio(r float64) {
	for _, c := range e.comps {
		if a, ok := c.(compress.Adaptive); ok {
			a.SetRatio(r)
		}
	}
}

// BitsController is optionally implemented by controllers that drive the
// QSGD quantization bit-width from observed gradient-norm decay
// (compress.NormDecayBits). A non-positive QuantBits leaves every
// compressor untouched.
type BitsController interface {
	Controller
	QuantBits() int
}

// setCompressionBits retunes every bit-width-capable compressor (QSGD,
// possibly wrapped in error feedback or a float32 wire) to b bits.
func (e *Engine) setCompressionBits(b int) {
	if b <= 0 {
		return
	}
	for _, c := range e.comps {
		if q, ok := c.(compress.BitSetter); ok {
			q.SetBits(b)
		}
	}
}

// localUpdates advances every worker by `steps` local SGD iterations at lr,
// fanning the per-worker update loops across the bounded compute pool
// (Config.ComputeWorkers). All state a loop touches — replica, sampler
// stream, optimizer, gradient buffer — is owned by its worker, which is what
// makes the fan-out safe AND bit-identical to the serial loop at any pool
// width or scheduling; the averaging that follows always reduces in fixed
// worker order.
func (e *Engine) localUpdates(steps int, lr float64) {
	if e.pool <= 1 {
		// par.ForEach would run the same loop, but its fn parameter escapes
		// into the pool's goroutines, so even the serial call pays for a
		// heap closure every round.
		for i := range e.workers {
			e.workerSteps(i, steps, lr)
		}
		return
	}
	par.ForEach(e.m, e.pool, func(i int) { e.workerSteps(i, steps, lr) })
}

// workerSteps is one worker's share of localUpdates.
func (e *Engine) workerSteps(i, steps int, lr float64) {
	if !e.fltActive[i] {
		return // down workers freeze: no steps, no sampler draws
	}
	w := e.workers[i]
	w.opt.SetLR(lr)
	for k := 0; k < steps; k++ {
		b := w.sampler.Next()
		w.model.LossGrad(b, w.grad)
		w.opt.Step(w.model.Params(), w.grad)
	}
}

// loadExt returns worker i's extended vector: its parameters followed by
// its SyncAverage optimizer vectors, marshalled into the worker's extended
// row. With an empty extension that vector is the replica's own parameters,
// returned as they are.
func (e *Engine) loadExt(i int) []float64 {
	w := e.workers[i]
	if !e.ext {
		return w.model.Params()
	}
	row := e.extWork[i]
	copy(row[:e.dim], w.model.Params())
	off := e.dim
	for _, v := range w.sync {
		copy(row[off:off+len(v)], v)
		off += len(v)
	}
	return row
}

// storeExt unmarshals an extended row back into worker i's replica and
// SyncAverage optimizer vectors: the one way an extended vector reaches a
// worker.
func (e *Engine) storeExt(i int, row []float64) {
	w := e.workers[i]
	w.model.SetParams(row[:e.dim])
	off := e.dim
	for _, v := range w.sync {
		copy(v, row[off:off+len(v)])
		off += len(v)
	}
}

// average synchronizes the replicas according to the configured strategy
// and refreshes e.global (the model that evaluation and AdaComm observe).
func (e *Engine) average() {
	if e.fltNActive == 0 {
		// Every worker is down: nothing is exchanged, the global model and
		// all replicas stand, and the gossip sequence does not advance (no
		// synchronization happened).
		e.lastReport = e.zeroRep
		return
	}
	switch e.cfg.Strategy {
	case RingGossip:
		e.averageRing()
		return
	case ElasticAveraging:
		e.averageElastic()
		return
	}
	e.averageFull()
}

// averageFull is PASGD's simple averaging (paper eq 3): global <- mean of
// worker models (optionally block-momentum filtered), pushed back into
// every replica. With compression active, the mean is computed from
// compressed per-worker deltas instead of raw vectors.
func (e *Engine) averageFull() {
	avg := e.avgBuf
	if e.cfg.Compress.Enabled() {
		e.compressedDeltaMean(avg)
	} else {
		// Uncompressed: each worker contributes its dense extended vector as
		// a lossless wire message; the communicator sums them in worker order,
		// which keeps the arithmetic bit-identical to the pre-comm-layer
		// tensor.Mean. This is one of the two places where uncompressed is
		// not the identity wire: a mean of vectors and the identity's
		// reference plus a mean of deltas round differently, and goldens pin
		// both. Under faults the communicator skips inactive contributions
		// and the mean renormalizes over the survivors.
		for i := range e.workers {
			e.msgBuf[i] = compress.Message{Dim: e.xdim, Enc: compress.EncDense, Dense: e.loadExt(i)}
		}
		rep, err := e.com.AllReduce(e.msgBuf, e.sumBuf)
		if err != nil {
			panic(fmt.Sprintf("cluster: all-reduce: %v", err))
		}
		e.lastReport = rep
		inv := 1 / float64(e.fltNActive)
		for j := range avg {
			avg[j] = e.sumBuf[j] * inv
		}
	}

	if e.gmom != nil {
		// Displacement-form global momentum (paper eq 24-25 / SlowMo):
		// treat the round's aggregate movement as one big gradient step and
		// filter it with the shared buffer. lr is already folded into the
		// displacement, matching eq 25 with the round's eta; only the
		// parameter block is filtered — synced optimizer state is averaged,
		// not momentum-extrapolated.
		e.gmom.Apply(e.global, avg[:e.dim], e.global)
	} else {
		copy(e.global, avg[:e.dim])
	}
	copy(e.extGlobal[e.dim:], avg[e.dim:])

	for i, w := range e.workers {
		if !e.fltActive[i] {
			continue // down replicas keep their stale state until rejoin
		}
		e.storeExt(i, e.extGlobal)
		// Restart local SyncReset state after averaging so the stale local
		// buffer cannot side-track the first post-sync step (Sec 5.3.1).
		w.opt.SyncReset()
	}
}

// compressedDeltaMean runs the compressed all-reduce: each worker's delta
// from the last synchronized model is compressed (through its error-feedback
// residual if configured) and the messages are aggregated by the
// communicator's sparse index-merge — O(k*m) instead of the O(dim*m) a
// decompress-to-dense loop would pay. avg receives x_glob +
// mean(delta_hat_i). Compression happens in fixed worker order on the
// engine's own streams, outside the fanned-out local-update phase, which is
// why the compute pool stays bitwise identical under every compressor.
func (e *Engine) compressedDeltaMean(avg []float64) {
	for i := range e.workers {
		if !e.fltActive[i] {
			// Down workers contribute nothing and their compressor state
			// (error-feedback residual, stochastic stream) freezes with them.
			// The slot keeps its last message, storage and all: the
			// communicator skips inactive workers without reading it.
			continue
		}
		tensor.Sub(e.deltaBuf, e.loadExt(i), e.extGlobal)
		if err := e.comps[i].CompressInto(e.deltaBuf, &e.msgBuf[i]); err != nil {
			panic(fmt.Sprintf("cluster: worker %d compress: %v", i, err))
		}
	}
	rep, err := e.com.AllReduce(e.msgBuf, e.sumBuf)
	if err != nil {
		panic(fmt.Sprintf("cluster: all-reduce: %v", err))
	}
	e.lastReport = rep
	inv, base := 1/float64(e.fltNActive), e.extGlobal
	for j := range avg {
		avg[j] = base[j] + e.sumBuf[j]*inv
	}
}

// Run executes PASGD under the given controller until a stop condition is
// reached and returns the training trace. Deterministic given cfg.Seed.
func (e *Engine) Run(ctrl Controller, traceName string) *metrics.Trace {
	trace := metrics.NewTrace(traceName)
	info := RoundInfo{LastLoss: math.NaN()}
	nextEval := 0 // record once iter crosses this threshold

	evalLoss := func() float64 { return e.TrainLoss() }

	record := func(tau int, lr float64) {
		loss := e.TrainLoss()
		acc := math.NaN()
		if e.cfg.AccEverySync > 0 && e.testSet != nil && info.Round%e.cfg.AccEverySync == 0 {
			acc = e.TestAccuracy()
		}
		info.LastLoss = loss
		trace.Add(metrics.Point{
			Time: info.Time, Iter: info.Iter, Loss: loss, Acc: acc, Tau: tau, LR: lr,
		})
	}

	// Record the starting point.
	record(0, 0)
	nextEval = e.cfg.EvalEvery

	for {
		if e.cfg.MaxIters > 0 && info.Iter >= e.cfg.MaxIters {
			break
		}
		if e.cfg.MaxTime > 0 && info.Time >= e.cfg.MaxTime {
			break
		}
		tau, lr := ctrl.NextRound(info, evalLoss)
		if tau < 1 {
			panic(fmt.Sprintf("cluster: controller %s returned tau=%d", ctrl.Name(), tau))
		}
		if rc, ok := ctrl.(RatioController); ok {
			e.setCompressionRatio(rc.CompressionRatio())
		}
		if bc, ok := ctrl.(BitsController); ok {
			e.setCompressionBits(bc.QuantBits())
		}
		// Trim the round to the iteration budget so runs are comparable.
		steps := tau
		if e.cfg.MaxIters > 0 {
			if rem := e.cfg.MaxIters - info.Iter; rem < steps {
				steps = rem
			}
		}

		e.beginRound(info.Round)
		e.localUpdates(steps, lr)
		e.optSteps += steps
		info.Iter += steps
		info.GradNorm = tensor.Norm2(e.workers[0].grad)
		// Averaging precedes the clock update so roundTime can charge this
		// round's (possibly compressed) broadcast payload. Neither step
		// draws from the other's RNG stream, so the order swap leaves
		// legacy traces untouched.
		e.average()
		// compute + comm is summed first, then added: info.Time's
		// accumulation order predates the split timing fields.
		compute, comm := e.roundTime(steps)
		info.Time += compute + comm
		info.ComputeTime += compute
		info.CommTime += comm
		info.LastCommTime = comm
		info.LinkTimes = e.linkTimes
		info.Round++
		info.Epoch = e.workers[0].sampler.Epoch()
		info.LastTau = tau
		info.LastLR = lr

		if info.Iter >= nextEval {
			record(tau, lr)
			for nextEval <= info.Iter {
				nextEval += e.cfg.EvalEvery
			}
		}
	}
	// Always record the final state.
	record(info.LastTau, info.LastLR)
	return trace
}

// StepLocal advances every worker by k local SGD steps at the given
// learning rate WITHOUT averaging, and returns the number of local
// iterations performed. It is the low-level hook used by experiment
// drivers (e.g. the Fig 14 local-vs-synchronized accuracy probe) that need
// to inspect unsynchronized replicas mid-period. Run does not share state
// with this method's iteration accounting.
func (e *Engine) StepLocal(k int, lr float64) int {
	e.localUpdates(k, lr)
	e.optSteps += k
	return k
}

// SyncNow performs one averaging step (including block momentum if
// configured) immediately. Companion to StepLocal for manual drivers.
func (e *Engine) SyncNow() { e.average() }

// LocalModelParams returns a copy of worker i's current (possibly
// unsynchronized) parameters — used by the Fig 14 experiment that compares
// local-model and synchronized-model accuracy.
func (e *Engine) LocalModelParams(i int) []float64 {
	return append([]float64(nil), e.workers[i].model.Params()...)
}

// EvalParamsAccuracy evaluates test accuracy for an arbitrary parameter
// vector (e.g. a local model mid-round).
func (e *Engine) EvalParamsAccuracy(params []float64) float64 {
	if e.testSet == nil {
		return math.NaN()
	}
	e.evalModel.SetParams(params)
	return e.evalModel.Accuracy(e.testBatch)
}

// EvalParamsLoss evaluates training loss for an arbitrary parameter vector.
func (e *Engine) EvalParamsLoss(params []float64) float64 {
	e.evalModel.SetParams(params)
	return e.evalModel.Loss(e.evalBatch)
}
