// Package paramserver implements the parameter-server counterpart of the
// PASGD engine: K-sync and K-async distributed SGD over a discrete-event
// simulation of worker compute times and push/pull delays.
//
// The AdaComm paper's conclusion singles this framework out as the natural
// next target for adaptive communication ("parameter server-based training
// (e.g., adapting asynchrony)"), citing Dutta et al. 2018 ("Slow and stale
// gradients can win the race") whose K-sync/K-async taxonomy this package
// follows:
//
//   - K-sync SGD: all m workers compute a gradient at the current model;
//     the server waits for the FASTEST K, averages them, updates, and
//     cancels the stragglers (they restart at the new model). K = m is
//     fully synchronous SGD; smaller K trades gradient quality for speed.
//   - K-async SGD: workers never wait. Each computes on the model version
//     it last pulled; the server buffers arriving (possibly stale)
//     gradients and applies an averaged update per K arrivals. K = 1 is
//     classic asynchronous SGD (Hogwild-style staleness).
//
// AdaSync (this package's adaptive controller) is the AdaComm idea
// transplanted: start with small K (fast, noisy/stale updates — the analog
// of large tau) and raise K toward m as the loss decreases (the analog of
// decaying tau), using the same loss-ratio rule and saturation refinement.
//
// All worker<->server exchange routes through a star-topology communicator
// (internal/comm). Gradient pushes may be compressed (Config.Compress); a
// model pull is free or exact, and an exact pull is priced at its dense wire
// size without being built (Config.PullCompress); Config.Links gives workers
// heterogeneous uplinks/downlinks. Every zero-value knob preserves the
// legacy protocol byte for byte (enforced by golden tests).
//
// Both modes are one pop-collect-apply-redispatch loop over the event
// substrate the async cluster engine runs on (internal/events): each
// in-flight worker has one Arrival queued at its gradient's completion
// time, and the modes differ only in who is restarted after an update
// (K-sync cancels the stragglers and restarts everyone, K-async restarts
// the workers that arrived). Arrivals at exactly equal times — reachable
// only with a non-continuous ComputeY — are served by the queue's seeded
// tie-break priority, not by worker index, so a K-of-m round over identical
// workers does not degenerate into "the first K worker ids".
package paramserver

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Mode selects the server's aggregation discipline.
type Mode int

const (
	// KSync waits for the fastest K gradients computed at the CURRENT
	// model, cancels the rest.
	KSync Mode = iota
	// KAsync applies an update per K arrivals without cancelling anyone;
	// gradients may be stale.
	KAsync
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case KSync:
		return "k-sync"
	case KAsync:
		return "k-async"
	}
	return "unknown-mode"
}

// RoundInfo is the server state a Controller sees before each update round —
// the parameter-server analog of cluster.RoundInfo.
type RoundInfo struct {
	Time    float64 // simulated clock
	Version int     // server updates applied so far

	// LinkTimes[i] is the deterministic transfer time of worker i's most
	// recent exchange — its link latency plus the wire payload (gradient
	// push plus any priced pull) over its link's effective bandwidth; the
	// random compute and push-delay draws are excluded, so the entries
	// characterize the LINKS, not the luck. All zeros on free homogeneous
	// links. The slice is server-owned and refreshed in place; controllers
	// must not retain or mutate it.
	LinkTimes []float64
}

// Controller adapts the server's K (and learning rate) over wall-clock
// time. It is the parameter-server analog of cluster.Controller.
type Controller interface {
	// Next returns the K and learning rate to use for the next update
	// round, given the current server state and an on-demand loss probe.
	Next(info RoundInfo, evalLoss func() float64) (k int, lr float64)
	Name() string
}

// FixedK always returns the same K and learning rate.
type FixedK struct {
	K  int
	LR float64
}

// Next implements Controller.
func (f FixedK) Next(RoundInfo, func() float64) (int, float64) { return f.K, f.LR }

// Name implements Controller.
func (f FixedK) Name() string { return fmt.Sprintf("K=%d", f.K) }

// Config parameterizes a parameter-server run.
type Config struct {
	Mode      Mode
	BatchSize int
	// PushDelay is the latency part of the gradient push + model pull round
	// trip added to every worker-server exchange.
	PushDelay rng.Distribution
	// ComputeY is the per-gradient compute-time distribution.
	ComputeY rng.Distribution
	// Bandwidth is the worker<->server link rate in bytes per simulated
	// second, finite and >= 0; 0 = infinite (the legacy size-free push).
	// With a finite bandwidth every exchange additionally costs
	// payload/Bandwidth, where the payload is the (possibly compressed)
	// gradient — the same size-aware cost model internal/cluster charges for
	// broadcasts.
	Bandwidth float64
	// Compress optionally compresses pushed gradients with the
	// internal/compress subsystem. None pushes through the identity, which
	// delivers the gradient bit for bit and prices it at 8 bytes per
	// coordinate, the legacy protocol exactly. Each worker owns a
	// compressor instance, so error feedback accumulates per worker exactly
	// as in the PASGD engine.
	Compress compress.Spec
	// PullCompress prices the model PULL. A pull is free or exact: the zero
	// value keeps the legacy free pull, and a lossless spec (identity) hands
	// the worker the server model exactly and charges its dense wire size
	// against the worker's link. New rejects a lossy spec. This is the one
	// place in this package where uncompressed is not the identity wire,
	// because the identity pull is priced.
	PullCompress compress.Spec
	// Links optionally gives each worker its own uplink/downlink
	// (len(Links) must equal the worker count): every exchange of worker i
	// is charged Links[i].Latency plus payload/Links[i].Bandwidth (falling
	// back to the shared Bandwidth when the link's is 0). nil keeps the
	// homogeneous legacy pricing.
	Links []delaymodel.Link
	// Stop conditions (at least one required).
	MaxUpdates int     // server updates
	MaxTime    float64 // simulated seconds
	// EvalEvery records a trace point every EvalEvery server updates.
	EvalEvery  int
	EvalSubset int
	// Faults optionally injects a seeded crash/churn/slow-down schedule
	// (internal/faults), keyed by the SERVER VERSION. Down workers are
	// parked (not dispatched) and arrivals from workers that went down
	// mid-compute are discarded; a recovered worker is redispatched at the
	// next round, and its dispatch-time model pull — exact, and priced when
	// PullCompress is set — IS the rejoin reconciliation, no extra machinery
	// needed. Slow-down episodes and drop-retries multiply the affected
	// worker's transfer terms. When every worker is down the event queue
	// drains and Run returns cleanly. nil keeps the protocol byte-for-byte
	// identical to the fault-free server.
	Faults *faults.Schedule
	Seed   uint64
}

func (c Config) validate() error {
	if c.BatchSize < 1 {
		return fmt.Errorf("paramserver: batch size %d", c.BatchSize)
	}
	if c.MaxUpdates <= 0 && c.MaxTime <= 0 {
		return fmt.Errorf("paramserver: no stop condition")
	}
	// NaN passes the <= test above, and Time >= NaN or +Inf never stops a run.
	if math.IsNaN(c.MaxTime) || math.IsInf(c.MaxTime, 0) {
		return fmt.Errorf("paramserver: max time %v (want finite)", c.MaxTime)
	}
	if c.ComputeY == nil || c.PushDelay == nil {
		return fmt.Errorf("paramserver: delay distributions required")
	}
	if err := c.Compress.Validate(); err != nil {
		return err
	}
	if !c.PullCompress.Lossless() {
		return fmt.Errorf("paramserver: pull %s is lossy; a pull is free (none) or exact (identity)", c.PullCompress)
	}
	// Faults.Validate needs the worker count, so New performs it.
	return nil
}

// psWorker is one worker in the event simulation.
type psWorker struct {
	model   *nn.Network // holds the pulled parameters it computes on
	sampler *data.Sampler
	grad    []float64
	version int // model version the in-flight gradient is computed at
	r       *rng.Rand
}

// Server simulates a parameter server training run.
type Server struct {
	cfg     Config
	m       int
	workers []*psWorker
	params  []float64
	version int
	clock   float64

	// queue holds one Arrival per in-flight worker (its gradient's
	// completion time); gradSum accumulates a round's arrivals in pop order,
	// redispatch lists the workers to restart after the update, and
	// staleSamples is the current Run's per-arrival staleness (K-async).
	queue        *events.Queue
	gradSum      []float64
	redispatch   []int
	staleSamples []float64

	evalModel *nn.Network
	evalBatch data.Batch

	// delay prices every exchange: Y is the gradient's compute time, D0 the
	// push delay drawn from delayRand, and the link rule the transfer terms.
	delay     *delaymodel.Model
	delayRand *rng.Rand

	// Communication state: all worker<->server exchange routes through com
	// (a star-topology internal/comm communicator). comps[i] is worker i's
	// gradient compressor (compress.Identity{} under the zero spec);
	// pushBytes and pullBytes are the per-exchange uplink and downlink
	// payloads (wire sizes are data-independent, so the scheduler can price
	// an exchange before the gradient exists; a free pull is 0 bytes).
	// pushMsg is the one uplink wire slot every worker compresses into: a
	// message is decoded into decBuf before the next arrival is computed.
	com       *comm.Communicator
	comps     []compress.Compressor
	pushMsg   compress.Message
	decBuf    []float64
	pushBytes int
	pullBytes int
	linkTimes []float64 // per-worker transfer time of the latest dispatch

	// Membership, kept with or without a schedule (without one nobody is
	// ever down): fltDown is the version-keyed down mask and inflight tracks
	// which workers have a queued completion event, so recovered workers can
	// be told apart from busy ones at redispatch time.
	fltDown  []bool
	inflight []bool
}

// New builds a server over m shards of the training set.
func New(proto *nn.Network, shards []*data.Dataset, trainEval *data.Dataset, cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("paramserver: no shards")
	}
	delay := &delaymodel.Model{
		M: len(shards), Y: cfg.ComputeY, D0: cfg.PushDelay, Scale: delaymodel.ConstantScaling{},
		Bandwidth: cfg.Bandwidth, Links: cfg.Links,
	}
	if err := delay.Check(); err != nil {
		return nil, fmt.Errorf("paramserver: %w", err)
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 20
	}
	root := rng.New(cfg.Seed)
	s := &Server{
		cfg:       cfg,
		m:         len(shards),
		params:    append([]float64(nil), proto.Params()...),
		evalModel: proto.Clone(),
		delay:     delay,
		delayRand: root.Split(),
		// Seeded from cfg.Seed directly: a draw from root would shift every
		// stream below it.
		queue:   events.NewQueue(cfg.Seed),
		gradSum: make([]float64, proto.ParamLen()),
		workers: make([]*psWorker, len(shards)),
	}
	for i := range shards {
		s.workers[i] = &psWorker{
			model:   proto.Clone(),
			sampler: data.NewSampler(shards[i], cfg.BatchSize, root.Split()),
			grad:    make([]float64, proto.ParamLen()),
			r:       root.Split(),
		}
	}
	s.evalBatch = data.EvalBatch(trainEval, cfg.EvalSubset, root)
	s.com = comm.New(comm.Star, s.m)
	s.linkTimes = make([]float64, s.m)
	dim := proto.ParamLen()
	s.pushBytes = cfg.Compress.WireBytes(dim)
	s.comps = make([]compress.Compressor, s.m)
	for i := range s.comps {
		c, err := cfg.Compress.NewWire(root.Split)
		if err != nil {
			return nil, err
		}
		s.comps[i] = c
	}
	s.decBuf = make([]float64, dim)
	if cfg.PullCompress.Enabled() {
		s.pullBytes = cfg.PullCompress.WireBytes(dim)
	}
	// Membership last; it consumes no RNG, so attaching a schedule cannot
	// shift any existing stream.
	if err := cfg.Faults.Validate(s.m); err != nil {
		return nil, err
	}
	s.fltDown = make([]bool, s.m)
	s.inflight = make([]bool, s.m)
	return s, nil
}

// PushBytes returns the per-exchange gradient payload in bytes.
func (s *Server) PushBytes() int { return s.pushBytes }

// PullBytes returns the per-exchange model pull payload in bytes (0 with
// PullCompress disabled, whose legacy pull is free).
func (s *Server) PullBytes() int { return s.pullBytes }

// Loss evaluates the server model's training loss.
func (s *Server) Loss() float64 {
	s.evalModel.SetParams(s.params)
	return s.evalModel.Loss(s.evalBatch)
}

// Params returns a copy of the server's parameters.
func (s *Server) Params() []float64 { return append([]float64(nil), s.params...) }

// Version returns the number of server updates applied.
func (s *Server) Version() int { return s.version }

// Clock returns the simulated time.
func (s *Server) Clock() float64 { return s.clock }

// dispatch starts worker i computing a gradient at the current model: the
// worker pulls the model exactly (free on the legacy path, priced at
// pullBytes when PullCompress is set, and never built as a message) and its
// gradient's completion event is scheduled with the size-aware cost of the
// whole exchange on the worker's own link.
func (s *Server) dispatch(i int) {
	w := s.workers[i]
	w.model.SetParams(s.params)
	w.version = s.version
	// The actual gradient computation happens lazily at completion time;
	// only the duration is decided now. Compressed payload sizes are
	// data-independent, so the size-aware transfer term is deterministic.
	// transfer is the deterministic link terms added to dur below; dur
	// itself accumulates in the exact legacy order so event times stay bit
	// for bit.
	dur := s.delay.Y.Sample(w.r) + s.delay.D0.Sample(s.delayRand)
	lat, wire := s.delay.TransferTerms(i, s.pushBytes+s.pullBytes)
	dur += lat
	dur += wire
	transfer := lat + wire
	// The fault multiplier applies to the transfer terms only (compute and
	// push-delay draws already happened, keeping the streams aligned with the
	// fault-free run); without a schedule it is exactly 1.
	if f := s.cfg.Faults.TransferScale(s.cfg.Seed, s.version, i); f != 1 {
		dur += transfer * (f - 1)
		transfer *= f
	}
	s.inflight[i] = true
	s.linkTimes[i] = transfer
	s.queue.Push(events.Event{Time: s.clock + dur, Worker: i, Kind: events.Arrival})
}

// computeGradient materializes worker i's gradient on its next mini-batch
// and pushes it through the worker's compressor (wire round-trip, with
// per-worker error feedback); uncompressed, that is the identity, whose
// decoded gradient is the gradient exactly.
func (s *Server) computeGradient(i int) []float64 {
	w := s.workers[i]
	b := w.sampler.Next()
	w.model.LossGrad(b, w.grad)
	if err := s.comps[i].CompressInto(w.grad, &s.pushMsg); err != nil {
		panic(fmt.Sprintf("paramserver: worker %d compress: %v", i, err))
	}
	if _, err := s.com.Push(i, s.pushMsg, s.decBuf); err != nil {
		panic(fmt.Sprintf("paramserver: worker %d push: %v", i, err))
	}
	return s.decBuf // valid until the next arrival; the caller sums it at once
}

// cancelInflight drops every queued completion event.
func (s *Server) cancelInflight() {
	s.queue.Reset()
	clear(s.inflight)
}

// update performs one server update: ask the controller for (K, lr), collect
// the next K arrivals, apply their mean gradient and restart the workers the
// mode restarts. It reports ok == false, changing nothing but the clock and
// the in-flight bookkeeping, when no surviving worker could contribute.
// Steady state allocates nothing (K-async appends one staleness sample per
// arrival to staleSamples).
func (s *Server) update(ctrl Controller, evalLoss func() float64) (k int, lr float64, ok bool) {
	async := s.cfg.Mode == KAsync
	k, lr = ctrl.Next(RoundInfo{Time: s.clock, Version: s.version, LinkTimes: s.linkTimes}, evalLoss)
	if k < 1 {
		k = 1
	}
	if k > s.m {
		k = s.m
	}

	// Collect the next K arrivals, summing their gradients in pop order.
	// K-sync workers all computed at the current version; K-async
	// arrivals carry whatever version they were dispatched at. Under
	// faults an arrival from a worker that went down mid-compute is
	// discarded (gradient lost, worker stays parked), so K is
	// effectively clamped to the surviving queue. The K-async server
	// waited for a discarded arrival and its clock says so; the K-sync
	// clock is the last contributing arrival's time.
	clear(s.gradSum)
	s.redispatch = s.redispatch[:0]
	for len(s.redispatch) < k {
		ev, ok := s.queue.Pop()
		if !ok {
			break
		}
		s.inflight[ev.Worker] = false
		down := s.fltDown[ev.Worker]
		if async || !down {
			s.clock = ev.Time
		}
		if down {
			continue
		}
		tensor.Axpy(1, s.computeGradient(ev.Worker), s.gradSum)
		if async {
			s.staleSamples = append(s.staleSamples, float64(s.version-s.workers[ev.Worker].version))
		}
		s.redispatch = append(s.redispatch, ev.Worker)
	}
	if len(s.redispatch) == 0 {
		return k, lr, false
	}
	// x -= lr * mean(grads) over the gradients summed into gradSum.
	tensor.Axpy(-lr/float64(len(s.redispatch)), s.gradSum, s.params)
	s.version++
	// K-async restarts the workers that just arrived. K-sync cancels the
	// stragglers and restarts every survivor at the new model.
	if !async {
		s.cancelInflight()
		s.redispatch = s.redispatch[:0]
		for i := range s.workers {
			if !s.fltDown[i] {
				s.redispatch = append(s.redispatch, i)
			}
		}
	}
	for _, i := range s.redispatch {
		s.dispatch(i)
	}
	return k, lr, true
}

// Run executes the configured protocol under the controller and returns the
// loss-vs-time trace plus staleness statistics (K-async only; K-sync
// staleness is identically zero). A Server is single-run, like
// cluster.Engine: model, version and clock carry over, so a second Run
// continues from them — with no work left in flight from the first.
func (s *Server) Run(ctrl Controller, traceName string) (*metrics.Trace, rng.Summary) {
	trace := metrics.NewTrace(traceName)
	evalLoss := func() float64 { return s.Loss() }

	record := func(k int, lr float64) {
		trace.Add(metrics.Point{
			Time: s.clock, Iter: s.version, Loss: s.Loss(),
			Acc: math.NaN(), Tau: k, LR: lr,
		})
	}
	record(0, 0)

	s.staleSamples = s.staleSamples[:0]
	nextEval := s.cfg.EvalEvery
	s.start()

	for {
		if s.cfg.MaxUpdates > 0 && s.version >= s.cfg.MaxUpdates {
			break
		}
		if s.cfg.MaxTime > 0 && s.clock >= s.cfg.MaxTime {
			break
		}
		// Refresh the version-keyed membership view and redispatch recovered
		// idle workers: their dispatch-time model pull is the rejoin
		// reconciliation (priced under PullCompress). Fault-free,
		// every worker is in flight here and nobody is dispatched.
		for i := range s.workers {
			s.fltDown[i] = s.cfg.Faults.Down(i, s.version)
			if !s.fltDown[i] && !s.inflight[i] {
				s.dispatch(i)
			}
		}
		if s.queue.Len() == 0 {
			break // every worker is down: terminate cleanly
		}
		k, lr, ok := s.update(ctrl, evalLoss)
		if !ok {
			break // no survivor can contribute; Run returns cleanly
		}
		if s.version >= nextEval {
			record(k, lr)
			for nextEval <= s.version {
				nextEval += s.cfg.EvalEvery
			}
		}
	}
	record(0, 0)

	if len(s.staleSamples) == 0 {
		return trace, rng.Summarize([]float64{0})
	}
	return trace, rng.Summarize(s.staleSamples)
}

// start drops whatever a previous Run left in flight and dispatches every
// worker that is up at version 0 of the fault schedule.
func (s *Server) start() {
	s.cancelInflight()
	for i := range s.workers {
		if s.cfg.Faults.Down(i, 0) {
			continue // down at start: parked until recovery
		}
		s.dispatch(i)
	}
}

// ExpectedKSyncUpdateTime returns the analytic expected update time of
// K-sync SGD when compute times are Exponential(mean y): the K-th order
// statistic of m exponentials, y*(H_m - H_{m-K}), plus the mean push delay.
func ExpectedKSyncUpdateTime(y float64, m, k int, pushMean float64) float64 {
	if k < 1 || k > m {
		panic("paramserver: need 1 <= K <= m")
	}
	return y*(rng.HarmonicNumber(m)-rng.HarmonicNumber(m-k)) + pushMean
}
