// Command bench runs the repository's hot-path micro-benchmarks at a FIXED
// iteration count and writes the results as JSON, giving every PR a
// machine-readable perf trajectory to compare against.
//
// Usage:
//
//	bench                      # print results to stdout
//	bench -out BENCH_5.json    # write the next PR's record
//	bench -n 200               # iterations per micro-benchmark (default 100)
//	bench -out BENCH_5.json -baseline BENCH_4.json -baseline-commit <sha>
//	                           # embed the previous record as the baseline
//	bench -check BENCH_7.json -tolerance 0.35
//	                           # CI regression gate: re-run and compare
//
// Rewriting an existing -out file preserves its baseline section.
//
// In -check mode the exit status is the verdict: 0 when the current run is
// within tolerance of the committed record, 1 on a regression (pinned-kernel
// ns/op past the tolerance, any allocs/op increase, or a kernel path — the
// blocked Gemm, the QSGD quantizer, the normal fill, the exps, Axpy — losing
// its margin over the scalar reference timed beside it; see gate.go), 2 on
// usage errors — among them a baseline that shares no pinned row with the
// run, so that a mis-pointed file or a renamed row cannot pass by comparing
// nothing.
// CI runs this on every push unless the commit message carries a
// `[bench-skip]` marker.
//
// The convention (see ROADMAP.md): each perf-relevant PR N runs
// `go run ./cmd/bench -out BENCH_<N>.json` on an idle machine and commits
// the file; earlier BENCH_*.json files are the baselines. Fields are
// ns/op, B/op, and allocs/op per benchmark, plus the host shape (cores,
// GOMAXPROCS) that wall-clock numbers depend on. Iteration counts are
// pinned — unlike `go test -bench`, which auto-scales them — so ns/op is
// comparable run to run; each benchmark performs one untimed warmup call,
// which means allocs/op reports the steady state (scratch arenas filled).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/nn"
	optpkg "repro/internal/opt"
	"repro/internal/paramserver"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Result is one benchmark's measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// Baseline embeds a previous commit's numbers, for PRs that claim a
// speedup (populated via -baseline, or carried over from an existing -out
// file on rewrite).
type Baseline struct {
	Commit     string            `json:"commit,omitempty"`
	Harness    string            `json:"harness,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Record is the full BENCH_*.json document.
type Record struct {
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Kernels    string            `json:"kernels"` // tensor.Kernels(): the tier the kernel rows ran on
	Note       string            `json:"note,omitempty"`
	Baseline   *Baseline         `json:"baseline,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// excluded is the time the benchmark in progress spent inside untimed.
var excluded time.Duration

// untimed runs f as part of a benchmark's op but outside its ns/op: work
// that must precede each timed call for the call to cost what it costs in a
// run (its heap traffic is still counted).
func untimed(f func()) {
	start := time.Now()
	f()
	excluded += time.Since(start)
}

// measure times n calls of the closure produced by setup, after one untimed
// warmup call, and reports per-op wall clock and heap traffic.
func measure(n int, setup func() func()) Result {
	step := setup()
	step() // warmup: fill scratch arenas, touch all data
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	excluded = 0
	start := time.Now()
	for i := 0; i < n; i++ {
		step()
	}
	dur := time.Since(start) - excluded
	runtime.ReadMemStats(&m1)
	return Result{
		NsPerOp:     float64(dur.Nanoseconds()) / float64(n),
		BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / int64(n),
		AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / int64(n),
		Iterations:  n,
	}
}

func gemmSetup() func() {
	a := tensor.NewMatrix(64, 64)
	b := tensor.NewMatrix(64, 64)
	c := tensor.NewMatrix(64, 64)
	for i := range a.Data {
		a.Data[i] = float64(i % 7)
		b.Data[i] = float64(i % 5)
	}
	return func() { tensor.Gemm(1, a, b, 0, c) }
}

// gemm256Setup is the kernel acceptance benchmark: a dense (no exact
// zeros, so the naive kernel's zero-skip never fires) 256x256x256 product,
// either through the retained naive reference or the blocked kernel at the
// given worker count. The blocked/naive ratio within one run is asserted
// by the -check gate.
func gemm256Setup(naive bool, workers int) func() {
	const n = 256
	a := tensor.NewMatrix(n, n)
	b := tensor.NewMatrix(n, n)
	c := tensor.NewMatrix(n, n)
	r := rng.New(21)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64() + 2
		b.Data[i] = r.NormFloat64()
	}
	if naive {
		return func() { tensor.GemmNaive(1, a, b, 0, c) }
	}
	return func() {
		old := tensor.SetWorkers(workers)
		tensor.Gemm(1, a, b, 0, c)
		tensor.SetWorkers(old)
	}
}

// The conv rows time the conv training path at the shapes the Fig 9 / Fig 10
// cells run: VGGNano's second conv layer (8x4x4 in, k3 p1, 16 filters,
// batch 16) forward and backward, and one full VGGNano LossGrad on the
// quick-scale 1x8x8 input. Operands carry the exact zeros real training
// has: post-ReLU activations forward, post-pool (75% zero) gradients back.
func zeroLaden(r *rng.Rand, m *tensor.Matrix, zeroFrac float64) *tensor.Matrix {
	for i := range m.Data {
		if m.Data[i] = r.NormFloat64(); r.Float64() < zeroFrac {
			m.Data[i] = 0
		}
	}
	return m
}

func convSetup(backward bool) func() {
	r := rng.New(31)
	c := nn.NewConv2D(8, 4, 4, 3, 1, 1, 16)
	params := make([]float64, c.ParamLen())
	c.Init(params, r.Split())
	in := zeroLaden(r, tensor.NewMatrix(16, c.InDim()), 0.5)
	if !backward {
		return func() { c.Forward(params, in) }
	}
	dOut := zeroLaden(r, tensor.NewMatrix(16, c.OutDim()), 0.75)
	dParams := make([]float64, len(params))
	c.Forward(params, in)
	return func() { c.Backward(params, dOut, dParams) }
}

func classBatch(r *rng.Rand, rows, dim, classes int) data.Batch {
	batch := data.Batch{X: zeroLaden(r, tensor.NewMatrix(rows, dim), 0), Y: make([]int, rows)}
	for i := range batch.Y {
		batch.Y[i] = r.Intn(classes)
	}
	return batch
}

func lossGradSetup(net *nn.Network, classes int) func() {
	r := rng.New(32)
	net.InitParams(r.Split())
	batch := classBatch(r, 16, net.InDim(), classes)
	grad := make([]float64, net.ParamLen())
	return func() { net.LossGrad(batch, grad) }
}

// evalLossSetup times one loss evaluation at the conv workloads' shape (the
// whole 384-example quick-scale training set) the way a run meets it: after
// the 20 local steps of an evaluation interval, which run untimed on a
// sibling clone before every timed call. A hot loop over the evaluation
// alone keeps its buffers cached from one call to the next, which no run
// does — it read the whole-batch evaluation this row replaced at the price
// of the chunked one.
func evalLossSetup(net *nn.Network, classes int) func() {
	r := rng.New(34)
	net.InitParams(r.Split())
	trainer := net.Clone()
	evalBatch, trainBatch := classBatch(r, 384, net.InDim(), classes), classBatch(r, 16, net.InDim(), classes)
	grad := make([]float64, net.ParamLen())
	return func() {
		untimed(func() {
			for i := 0; i < 20; i++ {
				trainer.LossGrad(trainBatch, grad)
			}
		})
		net.Loss(evalBatch)
	}
}

// gemmTBTrunkSetup is a ResNetNano trunk conv's forward for one sample, 8
// filters over 64 positions of 72-long patches: 147k of the net's 152k
// forward multiply-adds per sample go through this shape, in training and in
// evaluation alike.
func gemmTBTrunkSetup() func() {
	r := rng.New(35)
	w := zeroLaden(r, tensor.NewMatrix(8, 72), 0)
	x := zeroLaden(r, tensor.NewMatrix(64, 72), 0.5) // post-ReLU patches
	out := tensor.NewMatrix(8, 64)
	return func() { tensor.GemmTB(1, w, x, 0, out) }
}

// reluSetup is the activation between two trunk convs at batch 16 (8x8x8 per
// sample, 8192 elements): one training forward and its backward.
func reluSetup() func() {
	r := rng.New(36)
	l := nn.NewReLU(512)
	in := zeroLaden(r, tensor.NewMatrix(16, 512), 0)
	dOut := zeroLaden(r, tensor.NewMatrix(16, 512), 0)
	return func() {
		l.Forward(nil, in)
		l.Backward(nil, dOut, nil)
	}
}

// gemmZeroLadenSetup is the per-sample dPatches product of that conv layer
// with a half-zero coefficient matrix: the operand pattern that kept real
// training off the packed kernel before PR 12.
func gemmZeroLadenSetup() func() {
	r := rng.New(33)
	a := zeroLaden(r, tensor.NewMatrix(16, 16), 0.5)
	b := zeroLaden(r, tensor.NewMatrix(16, 72), 0)
	c := tensor.NewMatrix(16, 72)
	return func() { tensor.Gemm(1, a, b, 0, c) }
}

func stepSetup(net *nn.Network, dim int) func() {
	net.InitParams(rng.New(1))
	r := rng.New(2)
	batch := data.Batch{X: tensor.NewMatrix(16, dim), Y: make([]int, 16)}
	for i := 0; i < 16; i++ {
		for j := 0; j < dim; j++ {
			batch.X.Set(i, j, r.NormFloat64())
		}
		batch.Y[i] = r.Intn(4)
	}
	grad := make([]float64, net.ParamLen())
	opt := optpkg.New(optpkg.Config{LR: 0.05}, net.ParamLen())
	return func() {
		net.LossGrad(batch, grad)
		opt.Step(net.Params(), grad)
	}
}

// adamStepSetup times the optimizer layer's hot loop in isolation: one
// Local Adam update (first/second moment EMAs plus the bias-corrected
// step) on a flat 64k-parameter vector. Allocation-free after the arena
// fill, single-threaded, so it joins the pinned ns/op kernels.
func adamStepSetup(dim int) func() {
	params := make([]float64, dim)
	grad := make([]float64, dim)
	r := rng.New(11)
	for i := range params {
		params[i] = r.NormFloat64()
		grad[i] = r.NormFloat64()
	}
	o := optpkg.New(optpkg.Config{Rule: optpkg.RuleAdam, LR: 0.001}, dim)
	return func() { o.Step(params, grad) }
}

// globalMomentumSetup times one full-averaging round with the SlowMo stack
// active: heavy-ball local updates, the shared global-momentum filter at
// the sync point. Steady state must stay allocation-free like the plain
// PASGD round — the filter's buffer is engine-owned.
func globalMomentumSetup() func() {
	w := experiments.BuildWorkload(experiments.ArchLogistic, 4, 4, experiments.ScaleQuick, 3)
	e := w.Engine(cluster.Config{
		BatchSize: 8, MaxIters: 1 << 30, EvalEvery: 1 << 30,
		ComputeWorkers: 1, Seed: 4,
		Opt:            optpkg.Config{Rule: optpkg.RuleMomentum, Momentum: 0.9},
		GlobalMomentum: 0.5,
	})
	return func() {
		e.StepLocal(10, 0.1)
		e.SyncNow()
	}
}

func pasgdSetup(computeWorkers int) func() {
	w := experiments.BuildWorkload(experiments.ArchLogistic, 4, 4, experiments.ScaleQuick, 3)
	e := w.Engine(cluster.Config{
		BatchSize: 8, MaxIters: 1 << 30, EvalEvery: 1 << 30,
		ComputeWorkers: computeWorkers, Seed: 4,
	})
	return func() {
		e.StepLocal(10, 0.1)
		e.SyncNow()
	}
}

// strategySetup times one gossip/elastic round (10 local steps + sync),
// uncompressed (the identity wire; the "raw" rows keep their names so the
// gate still compares them) or compressed; the strategies' per-sync scratch
// is engine-owned, so the steady state must stay allocation-free like the
// full-averaging round.
func strategySetup(strat cluster.Strategy, spec compress.Spec) func() {
	w := experiments.BuildWorkload(experiments.ArchLogistic, 4, 4, experiments.ScaleQuick, 3)
	e := w.Engine(cluster.Config{
		BatchSize: 8, MaxIters: 1 << 30, EvalEvery: 1 << 30,
		ComputeWorkers: 1, Strategy: strat, Compress: spec, Seed: 4,
	})
	return func() {
		e.StepLocal(10, 0.1)
		e.SyncNow()
	}
}

// graphMixSetup times one gossip round (10 local steps + sync) over the
// 4x4 torus — the graph-generic mix path at m = 16 and degree 4, against
// RingGossipRound's m = 4 ring. The per-sync scratch (estimates, active
// adjacency) is engine-owned; the steady-state allocs/op here is the data
// sampler's epoch reshuffle (16 small shards wrap every round), measured
// identical under the legacy ring at the same m — the mix path adds none.
func graphMixSetup() func() {
	topo, err := comm.ParseTopology("torus:4x4")
	if err != nil {
		panic(err)
	}
	w := experiments.BuildWorkload(experiments.ArchLogistic, 4, 16, experiments.ScaleQuick, 3)
	e := w.Engine(cluster.Config{
		BatchSize: 8, MaxIters: 1 << 30, EvalEvery: 1 << 30,
		ComputeWorkers: 1, Strategy: cluster.RingGossip, Topology: topo, Seed: 4,
	})
	return func() {
		e.StepLocal(10, 0.1)
		e.SyncNow()
	}
}

// spectralGapSetup times graph construction including the deflated power
// iteration for 1 - lambda_2. The 64-node ring is the slow case among the
// shipped constructors: its gap is ~1e-3, the deflation ratio is near 1,
// and the iteration runs close to its sweep cap before the tolerance hits.
func spectralGapSetup() func() {
	return func() {
		if g := graph.Ring(64); g.SpectralGap() <= 0 {
			panic("bench: ring(64) spectral gap not positive")
		}
	}
}

// eventQueueSetup times the discrete-event scheduler's raw throughput:
// push 4096 events with colliding times (exercising the seeded tie-break)
// and drain them. Events/sec = 8192 / (ns_per_op * 1e-9).
func eventQueueSetup() func() {
	return func() {
		q := events.NewQueue(9)
		for j := 0; j < 4096; j++ {
			q.Push(events.Event{Time: float64(j % 64), Worker: j & 255, Kind: events.Kind(j & 1)})
		}
		for {
			if _, ok := q.Pop(); !ok {
				break
			}
		}
	}
}

// asyncRunSetup times the event-driven engine end to end: construct and run
// a K-of-m job to a fixed update count, so ns/op tracks scheduler plus
// aggregation overhead per training run.
func asyncRunSetup(clients, k, updates int) func() {
	w := experiments.BuildWorkload(experiments.ArchLogistic, 4, clients, experiments.ScaleQuick, 5)
	cfg := cluster.AsyncConfig{
		Participation: k, Tau: 2, BatchSize: 8, LR: 0.1,
		MaxUpdates: updates, EvalEvery: 1 << 30, Seed: 6,
	}
	return func() {
		e, err := cluster.NewAsync(w.Proto, w.Shards, w.Train, w.Test, w.Delay, cfg)
		if err != nil {
			panic(err)
		}
		e.Run("bench")
	}
}

// asyncPopulationSetup builds a population of IID-sharded blob clients on a
// 64-parameter logistic model and returns an op that constructs and runs
// one event-driven engine over it.
func asyncPopulationSetup(clients int, cfg cluster.AsyncConfig) func() {
	const dim, classes = 16, 4
	r := rng.New(7)
	train := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: classes, Dim: dim, N: 4096, Separation: 4, Noise: 1.5,
	}, r)
	proto := nn.NewLogisticRegression(dim, classes)
	proto.InitParams(r.Split())
	shards := data.ShardIID(train, clients, r.Split())
	dm := delaymodel.FederatedProfile(1, 4096).Model(clients, nil)
	return func() {
		e, err := cluster.NewAsync(proto, shards, train, nil, dm, cfg)
		if err != nil {
			panic(err)
		}
		e.Run("bench")
	}
}

// asyncShardSetup is the client-sharding memory benchmark: 1024 simulated
// clients at K=32. B/op is the evidence for the "memory proportional to K,
// not N" claim — it must stay orders of magnitude below 1024 materialized
// replicas (1024 * dim * 8 bytes per update batch).
func asyncShardSetup() func() {
	return asyncPopulationSetup(1024, cluster.AsyncConfig{
		Participation: 32, Tau: 2, BatchSize: 4, LR: 0.1,
		MaxUpdates: 5, EvalEvery: 1 << 30, Seed: 8,
	})
}

// compressSetup times one compression at a shape the repository benchmark
// serves (16 400 coordinates on wire_mix, 650 on ps_adasync and
// async_fleet). It cycles 64 inputs: a selection fed one fixed vector trains
// the branch predictor on a pattern no run repeats, and the quickselect the
// top-k rows replaced read half its real cost that way. With error feedback
// the residual carries from call to call, as it does in a run. The TopK rows
// build a fresh message per call (Compress); the CompressInto rows recycle
// one the way the engines do, and must stay at 0 allocs/op.
func compressSetup(spec string, dim int, into bool) func() {
	s, err := compress.ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	c, err := s.New(rng.New(42)) // its own stream: the inputs below stay BENCH_14's
	if err != nil {
		panic(err)
	}
	vecs := cycledVectors(dim)
	i := 0
	msg := new(compress.Message) // heap storage: &local would escape per call
	return func() {
		var err error
		if into {
			err = c.CompressInto(vecs[i%len(vecs)], msg)
		} else {
			_, err = c.Compress(vecs[i%len(vecs)])
		}
		if err != nil {
			panic(err)
		}
		i++
	}
}

// cycledVectors is the 64 Gaussian inputs every compress row walks through.
func cycledVectors(dim int) [][]float64 {
	r := rng.New(41)
	vecs := make([][]float64, 64)
	for i := range vecs {
		vecs[i] = make([]float64, dim)
		for j := range vecs[i] {
			vecs[i][j] = r.NormFloat64()
		}
	}
	return vecs
}

// qsgdScalarRefSetup is the bench oracle of CompressInto16400/qsgd: the
// scalar quantizer compress shipped before internal/tensor's kernels, one
// Float64 call per coordinate, over the same cycled inputs and the same
// stream. It exists for the -check ratio (gate.go): the kernel path must beat
// it in the same run, on any host, with no baseline to drift.
func qsgdScalarRefSetup(dim, bits int) func() {
	r := rng.New(42)
	vecs := cycledVectors(dim)
	levels := make([]int16, dim)
	s := float64(int(1)<<bits - 1)
	i := 0
	return func() {
		vec := vecs[i%len(vecs)]
		i++
		norm := 0.0
		for _, v := range vec {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		for j, v := range vec {
			a := math.Abs(v) / norm * s
			l := math.Floor(a)
			if r.Float64() < a-l {
				l++
			}
			lv := int16(l)
			if v < 0 {
				lv = -lv
			}
			levels[j] = lv
		}
	}
}

// normSetup draws 1 024 standard normals into one buffer: through
// FillNormFloat64, or by the NormFloat64 calls it replaces in the generators
// and initialisers — the -check ratio's reference (gate.go), the same stream
// either way.
func normSetup(fill bool) func() {
	r := rng.New(61)
	dst := make([]float64, 1024)
	if fill {
		return func() { r.FillNormFloat64(dst) }
	}
	return func() {
		for i := range dst {
			dst[i] = r.NormFloat64()
		}
	}
}

// expSetup takes the exps of one softmax block at the logistic workloads'
// shape — four rows of ten classes, each logit less its row's maximum —
// through ExpInto, or by the math.Exp calls it replaces (the -check ratio's
// reference, gate.go).
func expSetup(into bool) func() {
	r := rng.New(63)
	src, dst := make([]float64, 40), make([]float64, 40)
	for i := range src {
		src[i] = -math.Abs(r.NormFloat64() * 4)
	}
	if into {
		return func() { tensor.ExpInto(dst, src) }
	}
	return func() {
		for i, v := range src {
			dst[i] = math.Exp(v)
		}
	}
}

// axpySetup is plain SGD's step and the async aggregate at the logistic
// workloads' 650 parameters: through Axpy, or by the scalar loop it replaces
// (the -check ratio's reference).
func axpySetup(kernel bool) func() {
	r := rng.New(64)
	x, y := make([]float64, 650), make([]float64, 650)
	for i := range x {
		x[i], y[i] = r.NormFloat64(), r.NormFloat64()
	}
	const alpha = -1e-3
	if kernel {
		return func() { tensor.Axpy(alpha, x, y) }
	}
	return func() {
		for i, v := range x {
			y[i] += alpha * v
		}
	}
}

// blobsSetup generates wire_mix's dataset, the largest set-up any shipped
// workload pays: 2 304 rows of 1 024 Gaussian features, label noise on.
func blobsSetup() func() {
	return func() {
		data.GaussianBlobs(data.GaussianBlobsConfig{
			Classes: 16, Dim: 1024, N: 2304, Separation: 4, Noise: 1.5, LabelNoise: 0.1,
		}, rng.New(62))
	}
}

// psUpdateSetup times the parameter server at ps_adasync's wire — top-k with
// error feedback up, a priced identity pull down, 650 parameters, m = 64 —
// as one K-async run of 256 updates at K = 8 on a fresh server. allocs/op is
// therefore construction plus the trace and staleness log; an allocation
// inside an update shows as +256.
func psUpdateSetup() func() {
	const dim, classes, m = 64, 10, 64
	r := rng.New(51)
	train := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: classes, Dim: dim, N: 4096, Separation: 4, Noise: 1.5,
	}, r)
	proto := nn.NewLogisticRegression(dim, classes)
	proto.InitParams(r.Split())
	shards := data.ShardIID(train, m, r.Split())
	cfg := paramserver.Config{
		Mode: paramserver.KAsync, BatchSize: 4,
		ComputeY:     rng.Exponential{MeanVal: 1},
		PushDelay:    rng.Constant{Value: 0.1},
		Bandwidth:    1 << 16,
		Compress:     compress.Spec{Kind: compress.KindTopK, Ratio: 0.1, ErrorFeedback: true},
		PullCompress: compress.Spec{Kind: compress.KindIdentity},
		MaxUpdates:   256, EvalEvery: 1 << 30, EvalSubset: 256, Seed: 9,
	}
	return func() {
		s, err := paramserver.New(proto, shards, train, cfg)
		if err != nil {
			panic(err)
		}
		s.Run(paramserver.FixedK{K: 8, LR: 0.05}, "bench")
	}
}

// asyncDispatchParkedSetup times the event-driven engine where dispatch is
// the work: 2048 clients, one local step each, under a schedule that keeps
// clients parked at every version, so each of the ~6400 dispatches samples
// the idle list around them.
func asyncDispatchParkedSetup() func() {
	sched, err := faults.Parse("blip:5@r0-150,blip:900@r20-400,crash:1500@r1,slow:9x4@r10-100")
	if err != nil {
		panic(err)
	}
	return asyncPopulationSetup(2048, cluster.AsyncConfig{
		Participation: 32, Tau: 1, BatchSize: 2, LR: 0.1,
		MaxUpdates: 200, EvalEvery: 1 << 30, Faults: sched, Seed: 8,
	})
}

func main() {
	out := flag.String("out", "", "write JSON here (default stdout)")
	n := flag.Int("n", 100, "iterations per micro-benchmark")
	note := flag.String("note", "", "free-form note recorded in the JSON")
	baselineFile := flag.String("baseline", "",
		"embed this BENCH_*.json's benchmarks as the baseline of the new record")
	baselineCommit := flag.String("baseline-commit", "",
		"commit label recorded alongside -baseline")
	check := flag.String("check", "",
		"regression gate: compare this run against the named BENCH_*.json and exit 1 on regression")
	runFilter := flag.String("run", "",
		"only run benchmarks whose name contains this substring (local iteration; CI runs all)")
	tolerance := flag.Float64("tolerance", 0.35,
		"fractional ns/op slowdown allowed on pinned kernels in -check mode")
	flag.Parse()
	if *tolerance < 0 {
		fmt.Fprintln(os.Stderr, "bench: -tolerance must be non-negative")
		os.Exit(2)
	}

	shape := data.ImageShape{Channels: 3, Height: 8, Width: 8}
	gray := data.ImageShape{Channels: 1, Height: 8, Width: 8} // the conv workloads' quick-scale input
	benches := []struct {
		name string
		n    int // 0 = the -n default
		fn   func() func()
	}{
		// 64^3 is ~30 us now: 100 iterations would be a 3 ms sample.
		{"Gemm64", 2000, gemmSetup},
		{"Gemm256/naive", 30, func() func() { return gemm256Setup(true, 1) }},
		{"Gemm256/blocked", 30, func() func() { return gemm256Setup(false, 1) }},
		// The parallel variant only separates from /blocked on multi-core
		// hosts; on a 1-core recorder it documents the dispatch overhead.
		{"Gemm256/blocked-par4", 30, func() func() { return gemm256Setup(false, 4) }},
		{"Gemm16x16x72/zero-laden", 20000, gemmZeroLadenSetup},
		{"GemmTB8x64x72", 20000, gemmTBTrunkSetup},
		{"ReLU/fwd+bwd-8192", 20000, reluSetup},
		{"ConvFwd/vgg2", 2000, func() func() { return convSetup(false) }},
		{"ConvBwd/vgg2", 2000, func() func() { return convSetup(true) }},
		{"LossGrad/VGGNano-b16", 500, func() func() { return lossGradSetup(nn.NewVGGNano(gray, 10), 10) }},
		{"EvalLoss/VGGNano-384", 200, func() func() { return evalLossSetup(nn.NewVGGNano(gray, 10), 10) }},
		{"EvalLoss/ResNetNano-384", 50, func() func() { return evalLossSetup(nn.NewResNetNano(gray, 10), 10) }},
		{"StepVGGNano", 0, func() func() { return stepSetup(nn.NewVGGNano(shape, 4), shape.Len()) }},
		{"StepResNetNano", 0, func() func() { return stepSetup(nn.NewResNetNano(shape, 4), shape.Len()) }},
		{"AdamStep/64k", 0, func() func() { return adamStepSetup(1 << 16) }},
		{"TopK16400/r0.25", 2000, func() func() { return compressSetup("topk:0.25", 16400, false) }},
		{"TopKEF650/r0.1", 20000, func() func() { return compressSetup("topk:0.1+ef", 650, false) }},
		{"CompressInto650/topk-ef", 20000, func() func() { return compressSetup("topk:0.1+ef", 650, true) }},
		{"CompressInto16400/qsgd", 2000, func() func() { return compressSetup("qsgd:4", 16400, true) }},
		{"QSGDScalarRef16400", 2000, func() func() { return qsgdScalarRefSetup(16400, 4) }},
		{"FillNormFloat641024", 5000, func() func() { return normSetup(true) }},
		{"NormFloat64Ref1024", 5000, func() func() { return normSetup(false) }},
		{"ExpInto40", 50000, func() func() { return expSetup(true) }},
		{"ExpRef40", 50000, func() func() { return expSetup(false) }},
		{"Axpy650", 50000, func() func() { return axpySetup(true) }},
		{"AxpyRef650", 50000, func() func() { return axpySetup(false) }},
		{"GaussianBlobs2304x1024", 20, blobsSetup},
		{"PASGDRound/serial", 0, func() func() { return pasgdSetup(1) }},
		{"PASGDRound/pool4", 0, func() func() { return pasgdSetup(4) }},
		{"GlobalMomentumRound", 0, func() func() { return globalMomentumSetup() }},
		{"RingGossipRound/raw", 0, func() func() {
			return strategySetup(cluster.RingGossip, compress.Spec{})
		}},
		{"RingGossipRound/choco", 0, func() func() {
			return strategySetup(cluster.RingGossip, compress.Spec{Kind: compress.KindTopK, Ratio: 0.25})
		}},
		{"ElasticRound/raw", 0, func() func() {
			return strategySetup(cluster.ElasticAveraging, compress.Spec{})
		}},
		{"ElasticRound/compressed", 0, func() func() {
			return strategySetup(cluster.ElasticAveraging,
				compress.Spec{Kind: compress.KindTopK, Ratio: 0.25, ErrorFeedback: true})
		}},
		{"GraphMixRound", 0, func() func() { return graphMixSetup() }},
		{"SpectralGap/64", 0, func() func() { return spectralGapSetup() }},
		{"EventQueue/4096", 0, func() func() { return eventQueueSetup() }},
		{"AsyncRun/8of64", 20, func() func() { return asyncRunSetup(64, 8, 10) }},
		{"AsyncShard/1024", 10, func() func() { return asyncShardSetup() }},
		{"AsyncDispatchParked/2048", 10, asyncDispatchParkedSetup},
		{"PSUpdate/kasync", 20, psUpdateSetup},
	}

	rec := Record{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernels:    tensor.Kernels(),
		Note:       *note,
		Benchmarks: map[string]Result{},
	}
	fmt.Fprintf(os.Stderr, "bench: %s/%s, %d CPUs, GOMAXPROCS %d, %s kernels\n",
		rec.GOOS, rec.GOARCH, rec.NumCPU, rec.GOMAXPROCS, rec.Kernels)
	for _, bench := range benches {
		if *runFilter != "" && !strings.Contains(bench.name, *runFilter) {
			continue
		}
		iters := bench.n
		if iters == 0 {
			iters = *n
		}
		res := measure(iters, bench.fn)
		rec.Benchmarks[bench.name] = res
		fmt.Fprintf(os.Stderr, "%-20s %14.0f ns/op %12d B/op %8d allocs/op (n=%d)\n",
			bench.name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.Iterations)
	}

	if *check != "" {
		var base Record
		raw, err := os.ReadFile(*check)
		if err == nil {
			err = json.Unmarshal(raw, &base)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: -check: %v\n", err)
			os.Exit(2)
		}
		violations, nsRows, allocRows := checkRegression(rec.Benchmarks, base.Benchmarks, pinnedKernels, *tolerance)
		fmt.Fprintf(os.Stderr, "bench: compared %d pinned ns/op rows and %d allocs/op rows against %s\n",
			nsRows, allocRows, *check)
		if nsRows == 0 {
			fmt.Fprintf(os.Stderr, "bench: -check: %s and this run (%d rows) share no pinned row: nothing was gated\n",
				*check, len(rec.Benchmarks))
			os.Exit(2)
		}
		violations = append(violations, checkRatios(rec.Benchmarks, rec.Kernels)...)
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "bench: regression: %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: gate ok against %s (tolerance %.0f%%)\n",
			*check, *tolerance*100)
		return
	}

	if *baselineFile != "" {
		var prev Record
		raw, err := os.ReadFile(*baselineFile)
		if err == nil {
			err = json.Unmarshal(raw, &prev)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: -baseline: %v\n", err)
			os.Exit(1)
		}
		rec.Baseline = &Baseline{
			Commit:     *baselineCommit,
			Harness:    "cmd/bench",
			Benchmarks: prev.Benchmarks,
		}
	} else if *out != "" {
		// Rewriting an existing record must not silently drop its baseline.
		if raw, err := os.ReadFile(*out); err == nil {
			var prev Record
			if json.Unmarshal(raw, &prev) == nil && prev.Baseline != nil {
				rec.Baseline = prev.Baseline
			}
		}
	}

	enc, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}
