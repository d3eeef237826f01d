package core_test

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/paramserver"
	"repro/internal/rng"
	"repro/internal/sgd"
)

// TestUnitsLaw: simulated time has no preferred unit. Scaling every duration
// the engines are given — compute Y, latency D0, link latencies, MaxTime and
// the controller intervals — by c, and every bandwidth by 1/c, must replay
// the same run on a clock c times as fast or slow: every trace point's loss,
// accuracy, iteration, tau (K for the server) and LR bit-equal, and every
// time exactly c times the base. c is a power of two, so the scaling is exact
// in floating point; a constant in seconds anywhere in an engine, a pricer or
// a controller breaks the law.
//
// The cases cover the three lock-step strategies, a tree all-reduce, the
// async engine and both server modes, over per-worker and per-edge links,
// jitter, blip/slow/drop faults, top-k with and without error feedback,
// qsgd and randk wires, and link-aware AdaComm and AdaSync.
func TestUnitsLaw(t *testing.T) {
	train := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: 4, Dim: 10, N: 640, Separation: 4, Noise: 1.2, LabelNoise: 0.05,
	}, rng.New(900))
	proto := nn.NewLogisticRegression(10, 4)
	proto.InitParams(rng.New(901))
	const m = 4
	shards := data.ShardIID(train, m, rng.New(902))

	// model is the delay model at scale c: every latency times c, every
	// bandwidth over c, the jitter (a dimensionless speed factor) as is.
	model := func(c float64) *delaymodel.Model {
		dm := delaymodel.New(m, rng.Exponential{MeanVal: c},
			rng.ShiftedExponential{Shift: 0.5 * c, Scale: 0.25 * c}, delaymodel.ConstantScaling{})
		dm.Bandwidth = 4096 / c
		dm.Links = []delaymodel.Link{{}, {Latency: 0.75 * c}, {Bandwidth: 512 / c}, {Latency: 0.25 * c, Bandwidth: 1024 / c}}
		dm.Jitter = rng.Pareto{Xm: 1, Alpha: 3}
		dm.JitterSeed = 903
		return dm
	}
	edgeModel := func(c float64) *delaymodel.Model {
		dm := model(c)
		dm.EdgeLinks = map[delaymodel.Edge]delaymodel.Link{
			{From: 0, To: 1}: {Latency: 2 * c, Bandwidth: 256 / c},
			{From: 3, To: 2}: {Bandwidth: 2048 / c},
		}
		return dm
	}
	schedule := func(t *testing.T, spec string) *faults.Schedule {
		t.Helper()
		s, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	wire := func(t *testing.T, spec string) compress.Spec {
		t.Helper()
		s, err := compress.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	adaComm := func(c float64) cluster.Controller {
		return core.NewAdaComm(core.Config{
			Tau0: 8, Interval: 15 * c, Gamma: 0.5, Schedule: sgd.Const{Eta: 0.1}, LinkAware: true,
		})
	}
	lockstep := func(dm func(float64) *delaymodel.Model, cfg func(*testing.T) cluster.Config,
		ctrl func(float64) cluster.Controller) func(*testing.T, float64) *metrics.Trace {
		return func(t *testing.T, c float64) *metrics.Trace {
			k := cfg(t)
			k.BatchSize, k.EvalEvery, k.Seed = 16, 5, 904
			k.MaxTime = 400 * c
			e, err := cluster.New(proto, shards, train, nil, dm(c), k)
			if err != nil {
				t.Fatal(err)
			}
			return e.Run(ctrl(c), "units")
		}
	}
	server := func(mode paramserver.Mode) func(*testing.T, float64) *metrics.Trace {
		return func(t *testing.T, c float64) *metrics.Trace {
			s, err := paramserver.New(proto, shards, train, paramserver.Config{
				Mode: mode, BatchSize: 16,
				PushDelay: rng.ShiftedExponential{Shift: 0.1 * c, Scale: 0.1 * c},
				ComputeY:  rng.Exponential{MeanVal: c},
				Bandwidth: 4096 / c,
				Links:     []delaymodel.Link{{}, {Latency: 0.5 * c}, {Bandwidth: 256 / c}, {}},
				Compress:  wire(t, "randk:0.5"),
				MaxTime:   200 * c, MaxUpdates: 800, EvalEvery: 10, EvalSubset: 300,
				Faults: schedule(t, "blip:1@r10-20,slow:2x3@r5-40,drop:0.1"),
				Seed:   905,
			})
			if err != nil {
				t.Fatal(err)
			}
			ada := paramserver.NewAdaSync(paramserver.AdaSyncConfig{K0: 1, M: m, Interval: 10 * c, LR: 0.1, LinkAware: true})
			tr, _ := s.Run(ada, "units")
			return tr
		}
	}

	cases := []struct {
		name string
		run  func(*testing.T, float64) *metrics.Trace
	}{
		{"full/topk+ef/adacomm", lockstep(model, func(t *testing.T) cluster.Config {
			return cluster.Config{
				Compress: wire(t, "topk:0.25+ef"),
				Faults:   schedule(t, "blip:1@r3-5,slow:2x4@r2-8,drop:0.2"),
			}
		}, adaComm)},
		{"full/tree/topk", lockstep(model, func(t *testing.T) cluster.Config {
			return cluster.Config{Compress: wire(t, "topk:0.25"), Topology: comm.Tree,
				Faults: schedule(t, "crash:3@r6,drop:0.1")}
		}, adaComm)},
		{"ring/qsgd/edges", lockstep(edgeModel, func(t *testing.T) cluster.Config {
			return cluster.Config{Strategy: cluster.RingGossip, Compress: wire(t, "qsgd:4"), AdaptGossipGamma: true,
				Faults: schedule(t, "blip:2@r2-4,slow:0x3@r1-6,drop:0.1")}
		}, adaComm)},
		{"elastic/randk", lockstep(model, func(t *testing.T) cluster.Config {
			return cluster.Config{Strategy: cluster.ElasticAveraging, Compress: wire(t, "randk:0.5"),
				Faults: schedule(t, "blip:0@r4-6,drop:0.1")}
		}, func(float64) cluster.Controller { return cluster.FixedTau{Tau: 4, Schedule: sgd.Const{Eta: 0.1}} })},
		{"async/topk", func(t *testing.T, c float64) *metrics.Trace {
			e, err := cluster.NewAsync(proto, shards, train, nil, model(c), cluster.AsyncConfig{
				Participation: 2, InFlight: 3, Tau: 4, BatchSize: 16, LR: 0.1,
				MaxTime: 200 * c, MaxUpdates: 600, EvalEvery: 20, EvalSubset: 300,
				Compress: wire(t, "topk:0.25"), LinkAware: true,
				Faults: schedule(t, "blip:1@r10-30,slow:3x2@r5-50,drop:0.1"),
				Seed:   906,
			})
			if err != nil {
				t.Fatal(err)
			}
			return e.Run("units")
		}},
		{"server/k-sync", server(paramserver.KSync)},
		{"server/k-async", server(paramserver.KAsync)},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.run(t, 1)
			if len(base.Points) < 3 || base.Points[len(base.Points)-1].Time == 0 {
				t.Fatalf("the base run recorded %d points: too short to test", len(base.Points))
			}
			for _, c := range []float64{2, 0.5} {
				got := tc.run(t, c)
				if len(got.Points) != len(base.Points) {
					t.Fatalf("c=%v: %d points, base %d", c, len(got.Points), len(base.Points))
				}
				for i, p := range got.Points {
					q := base.Points[i]
					if !same(p.Loss, q.Loss) || !same(p.Acc, q.Acc) || p.Iter != q.Iter || p.Tau != q.Tau || !same(p.LR, q.LR) {
						t.Fatalf("c=%v point %d: %+v, base %+v (only the time may change)", c, i, p, q)
					}
					if p.Time != c*q.Time {
						t.Fatalf("c=%v point %d: time %v, want exactly %v", c, i, p.Time, c*q.Time)
					}
				}
			}
		})
	}
}

// TestCompleteGossipIsFullAveraging: on the complete graph every node's
// Metropolis row is the uniform 1/m mean, so uncompressed gossip (the
// identity wire, which pins every estimate to its replica) is full
// averaging. Fault-free and under churn (the active subgraph of a complete
// graph is complete on the active nodes), on finite links, every trace
// point's time and iteration must be bit-equal and its loss equal up to the
// summation order of the mean.
func TestCompleteGossipIsFullAveraging(t *testing.T) {
	train := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: 4, Dim: 10, N: 640, Separation: 4, Noise: 1.2, LabelNoise: 0.05,
	}, rng.New(910))
	proto := nn.NewLogisticRegression(10, 4)
	proto.InitParams(rng.New(911))
	const m = 4
	shards := data.ShardIID(train, m, rng.New(912))
	complete, err := comm.ParseTopology("complete")
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, cfg cluster.Config) *metrics.Trace {
		dm := delaymodel.New(m, rng.Exponential{MeanVal: 1},
			rng.ShiftedExponential{Shift: 0.5, Scale: 0.25}, delaymodel.ConstantScaling{})
		dm.Bandwidth = 4096
		cfg.BatchSize, cfg.EvalEvery, cfg.Seed, cfg.MaxTime = 16, 5, 913, 300
		e, err := cluster.New(proto, shards, train, nil, dm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run(cluster.FixedTau{Tau: 4, Schedule: sgd.Const{Eta: 0.1}}, "complete")
	}
	for _, spec := range []string{"", "blip:1@r3-6,slow:2x3@r2-9,drop:0.1"} {
		t.Run("faults="+spec, func(t *testing.T) {
			sched, err := faults.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			full := run(t, cluster.Config{Faults: sched})
			gossip := run(t, cluster.Config{Strategy: cluster.RingGossip, Topology: complete, Faults: sched})
			if len(full.Points) < 3 || len(gossip.Points) != len(full.Points) {
				t.Fatalf("gossip recorded %d points, full averaging %d", len(gossip.Points), len(full.Points))
			}
			for i, p := range gossip.Points {
				q := full.Points[i]
				if p.Time != q.Time || p.Iter != q.Iter {
					t.Fatalf("point %d: gossip at t=%v iter %d, full averaging at t=%v iter %d", i, p.Time, p.Iter, q.Time, q.Iter)
				}
				if d := math.Abs(p.Loss-q.Loss) / math.Abs(q.Loss); !(d <= 1e-12) {
					t.Fatalf("point %d: gossip loss %v, full averaging %v (relative %.3g)", i, p.Loss, q.Loss, d)
				}
			}
		})
	}
}

// TestSynchronousEnginesCoincide: with full-shard batches (every step's
// gradient is its shard's, so only the summation order can differ) and
// plain SGD, three engines run the same synchronous algorithm, x <- x - lr *
// mean_i grad_i(x): the lock-step engine at tau = 1 with full averaging, the
// K-sync parameter server at K = m, and the async engine at Participation =
// InFlight = N with Tau = 1 (its exact barrier). The loss after every update
// must agree to a relative 1e-12. Times are not compared: the three clocks
// price a round differently.
func TestSynchronousEnginesCoincide(t *testing.T) {
	train := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: 4, Dim: 10, N: 640, Separation: 4, Noise: 1.2, LabelNoise: 0.05,
	}, rng.New(920))
	proto := nn.NewLogisticRegression(10, 4)
	proto.InitParams(rng.New(921))
	const m, updates, lr = 4, 60, 0.1
	shards := data.ShardIID(train, m, rng.New(922))
	batch := shards[0].N() // every shard holds 160 examples
	model := func() *delaymodel.Model {
		return delaymodel.New(m, rng.Exponential{MeanVal: 1}, rng.Constant{Value: 0.5}, delaymodel.ConstantScaling{})
	}

	// losses maps a trace to its loss after each update: the starting point,
	// then one point per update (every engine records each update here and
	// repeats its last point as the final state).
	losses := func(t *testing.T, tr *metrics.Trace, itersPerUpdate int) []float64 {
		t.Helper()
		if len(tr.Points) != updates+2 {
			t.Fatalf("%s: %d points, want %d", tr.Name, len(tr.Points), updates+2)
		}
		var l []float64
		for u, p := range tr.Points[:updates+1] {
			if p.Iter != u*itersPerUpdate {
				t.Fatalf("%s: point %d at iteration %d, want %d", tr.Name, u, p.Iter, u*itersPerUpdate)
			}
			l = append(l, p.Loss)
		}
		return l
	}

	e, err := cluster.New(proto, shards, train, nil, model(), cluster.Config{
		BatchSize: batch, MaxIters: updates, EvalEvery: 1, Seed: 923,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := losses(t, e.Run(cluster.FixedTau{Tau: 1, Schedule: sgd.Const{Eta: lr}}, "lock-step"), 1)

	s, err := paramserver.New(proto, shards, train, paramserver.Config{
		Mode: paramserver.KSync, BatchSize: batch, ComputeY: rng.Exponential{MeanVal: 1},
		PushDelay: rng.Constant{Value: 0.5}, MaxUpdates: updates, EvalEvery: 1, Seed: 924,
	})
	if err != nil {
		t.Fatal(err)
	}
	server, _ := s.Run(paramserver.FixedK{K: m, LR: lr}, "k-sync")

	a, err := cluster.NewAsync(proto, shards, train, nil, model(), cluster.AsyncConfig{
		Participation: m, InFlight: m, Tau: 1, BatchSize: batch, LR: lr,
		MaxUpdates: updates, EvalEvery: m, Seed: 925,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		got  []float64
	}{
		{"k-sync server", losses(t, server, 1)},
		{"async barrier", losses(t, a.Run("async"), m)},
	} {
		worst := 0.0
		for u, l := range c.got {
			d := math.Abs(l-want[u]) / math.Abs(want[u])
			if !(d <= 1e-12) {
				t.Fatalf("%s: update %d loss %v, lock-step %v (relative %.3g)", c.name, u, l, want[u], d)
			}
			worst = max(worst, d)
		}
		t.Logf("%s: worst relative loss difference %.3g over %d updates", c.name, worst, updates)
	}
}
