// Command adacomm runs one PASGD training job — fixed-tau or AdaComm — on a
// chosen workload and delay profile, printing the loss-versus-simulated-time
// trace as CSV to stdout.
//
// Examples:
//
//	adacomm -arch vgg -method adacomm -tau0 20 -budget 300
//	adacomm -arch resnet -method fixed -tau 5 -budget 240
//	adacomm -arch logistic -method fixed -tau 1 -workers 8 -lr 0.1
//	adacomm -arch logistic -method fixed -tau 5 -compress topk:0.25+ef -bandwidth 128
//	adacomm -arch logistic -method fixed -tau 5 -compress none+f32 -bandwidth 128
//	adacomm -arch vgg -method adacomm -compress topk:0.05 -bandwidth 4096 -adapt-compression
//	adacomm -arch logistic -method adacomm -bandwidth 256 -topology tree
//	adacomm -arch logistic -method adacomm -bandwidth 256 -links "0:,0:,0:,0:25.6"
//	adacomm -arch logistic -method adacomm -bandwidth 256 -links "0:,0:,0:,0:25.6" -link-aware
//	adacomm -arch logistic -method fixed -tau 5 -strategy ring -compress topk:0.1 -gossip-gamma 0.5
//	adacomm -arch logistic -method fixed -tau 5 -strategy ring -workers 16 -topology torus:4x4
//	adacomm -arch logistic -method fixed -tau 5 -strategy ring -workers 16 -topology "varying:ring,star@B=5" -compress topk:0.25 -adapt-gossip-gamma
//	adacomm -arch logistic -method fixed -tau 5 -strategy ring -workers 16 -topology torus:4x4 -edge-links "3-4:10:"
//	adacomm -arch logistic -method fixed -async -clients 1024 -participation 32 -tau 4 -batch 1
//	adacomm -arch logistic -method fixed -async -participation 6 -workers 8 -link-aware
//	adacomm -arch logistic -method adacomm -faults "blip:1@r10-20,crash:2@r40,drop:0.05"
//	adacomm -arch logistic -method fixed -async -participation 6 -workers 8 -faults "slow:3x4@r10-30"
//	adacomm -arch logistic -method fixed -tau 5 -optimizer adam -adam-beta2 0.99
//	adacomm -arch logistic -method fixed -tau 5 -optimizer adam+synced -strategy ring -compress identity+f32
//	adacomm -arch logistic -method fixed -tau 5 -optimizer momentum:0.9 -global-momentum 0.1
//	adacomm -arch logistic -method fixed -async -participation 6 -workers 8 -optimizer momentum:0.9
//
// Exit status: 0 when the run finished with a finite final loss; 1 when the
// CSV could not be written; 2 for a bad flag value (one "adacomm: ..." line,
// nothing ran); 3 when the run diverged — its final loss is NaN or infinite,
// or finite but more than ten times the loss it started from: the CSV and
// the summary line are written as usual and one "adacomm: diverged: ..."
// line follows.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/delaymodel"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/sgd"
)

// fail and check are the exit-2 contract (internal/cli): one "adacomm: ..."
// line, before any workload is built.
func fail(format string, a ...any) { cli.Fatalf("adacomm", format, a...) }
func check(err error)              { cli.Check("adacomm", err) }

func main() {
	arch := flag.String("arch", "vgg", "workload: vgg | resnet | logistic")
	classes := flag.Int("classes", 10, "number of classes (the paper's 10 or 100; anything from 2 to the workload's example count runs)")
	workers := flag.Int("workers", 4, "number of workers m")
	method := flag.String("method", "adacomm", "method: adacomm | fixed")
	tau := flag.Int("tau", 1, "communication period for -method fixed")
	tau0 := flag.Int("tau0", 20, "initial period for -method adacomm")
	interval := flag.Float64("interval", 30, "AdaComm interval T0 (sim seconds) for -method adacomm")
	budget := flag.Float64("budget", 300, "simulated-time budget (seconds)")
	lr := flag.Float64("lr", 0.08, "base learning rate")
	variableLR := flag.Bool("variable-lr", false, "10x decay at epoch milestones 15/30/45")
	batch := flag.Int("batch", 16, "per-worker mini-batch size")
	optimizerFlag := flag.String("optimizer", "",
		"local update rule (internal/opt); forms: "+opt.Forms()+"; empty = plain SGD")
	adamBeta2 := flag.Float64("adam-beta2", 0,
		"second-moment decay beta2 for the adam forms of -optimizer (0 = default 0.999)")
	globalMomentum := flag.Float64("global-momentum", 0,
		"SlowMo-style slow momentum (the paper's block momentum) filtering every sync point under any strategy (0 = off)")
	seed := flag.Uint64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "use reduced workload sizes")
	compressFlag := flag.String("compress", "none",
		"delta compression: none | identity | topk:0.01 | randk:0.05 | qsgd:4 (append +ef for error feedback, +f32 for a float32 wire)")
	bandwidth := flag.Float64("bandwidth", 0,
		"per-link bandwidth in bytes per simulated second (0 = infinite, size-free broadcasts)")
	adaptCompression := flag.Bool("adapt-compression", false,
		"with -method adacomm: jointly adapt (tau, compression ratio) per interval")
	topologyFlag := flag.String("topology", "allgather",
		"all-reduce routing (allgather | ring | tree | star; pricing only) or, with -strategy ring, "+
			"a gossip mixing graph: complete | expander | torus:RxC | regular:D[@SEED] | graph:ring | "+
			"graph:star | varying:SPEC,SPEC,...[@B=N]")
	linksFlag := flag.String("links", "",
		"per-worker heterogeneous links as comma-separated latency:bandwidth pairs, one per worker "+
			"(empty part = inherit; e.g. \"0:,0:,0:,0:25.6\" makes the last worker's link slow)")
	edgeLinksFlag := flag.String("edge-links", "",
		"per-edge link overrides for gossip graph rounds as comma-separated I-J:latency:bandwidth "+
			"entries, priced in both directions (empty part = inherit; e.g. \"3-4:10:\" makes edge 3-4 slow)")
	linkAware := flag.Bool("link-aware", false,
		"with -method adacomm: scale tau by the observed comm/compute ratio (slow links hold tau higher); "+
			"with -async: wait each round only for the previous round's contributors whose upload was within 3x "+
			"of the fastest (this cap can only fall: a passing slow-down lowers K for the rest of the run)")
	strategyFlag := flag.String("strategy", "full",
		"synchronization strategy: full | ring | elastic (ring runs CHOCO-SGD gossip, which rejects +ef)")
	gossipGamma := flag.Float64("gossip-gamma", 0,
		"CHOCO consensus step size in (0,1] for -strategy ring with -compress (0 = default 1)")
	adaptGossipGamma := flag.Bool("adapt-gossip-gamma", false,
		"with -strategy ring and -compress: set the consensus step from the mixing graph's "+
			"spectral gap (sqrt(gap), clamped; excludes -gossip-gamma)")
	async := flag.Bool("async", false,
		"run the event-driven engine (K-of-m partial participation) instead of the round-barrier PASGD engine")
	participation := flag.Int("participation", 0,
		"with -async: aggregate the first K arrivals per update (0 = all clients, the barrier special case)")
	clients := flag.Int("clients", 0,
		"with -async: simulated client population N; memory stays proportional to -participation (0 = -workers)")
	faultsFlag := flag.String("faults", "",
		"fault injection schedule, comma-separated events ("+faults.Forms+"); empty = fault-free")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run, set-up included, to this file")
	flag.Parse()

	spec, err := compress.ParseSpec(*compressFlag)
	check(err)
	fsched, err := faults.Parse(*faultsFlag)
	check(err)
	optCfg, err := opt.Parse(*optimizerFlag)
	if err != nil {
		// opt.Parse errors already enumerate the valid forms.
		fail("-optimizer: %v", err)
	}
	if *adamBeta2 != 0 {
		if !optCfg.Adaptive() {
			fail("-adam-beta2 tunes the second-moment decay; it needs an adam -optimizer")
		}
		check(cli.OpenUnit("-adam-beta2", *adamBeta2))
		optCfg.Beta2 = *adamBeta2
	}
	if !(*bandwidth >= 0) {
		fail("-bandwidth %g must be >= 0 (0 = infinite)", *bandwidth)
	}
	// Sizes and rates the builders below would panic on, or train to NaN
	// with, or never stop on.
	switch experiments.Arch(*arch) {
	case experiments.ArchVGG, experiments.ArchResNet, experiments.ArchLogistic:
	default:
		fail("unknown -arch %q (want vgg | resnet | logistic)", *arch)
	}
	if *workers < 1 {
		fail("-workers %d must be >= 1", *workers)
	}
	// The generators place every class at least once.
	train, test := experiments.Examples(experiments.Arch(*arch), cli.Scale(*quick))
	if *classes < 2 || *classes > train+test {
		fail("-classes %d must be between 2 and the %d examples this workload generates", *classes, train+test)
	}
	finitePositive := func(flag string, v float64) {
		if !(v > 0) || math.IsInf(v, 1) {
			fail("%s %g must be finite and > 0", flag, v)
		}
	}
	finitePositive("-lr", *lr)
	finitePositive("-budget", *budget)
	// Each method reads its own period flags; one given to the other method
	// would be silently ignored.
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	switch {
	case *method == "adacomm":
		if given["tau"] && !*async {
			fail("-tau is -method fixed's period; -method adacomm starts from -tau0")
		}
		if *tau0 < 1 {
			fail("-tau0 %d must be >= 1", *tau0)
		}
		finitePositive("-interval", *interval)
	case *method != "fixed":
		fail("unknown -method %q (want adacomm | fixed)", *method)
	case given["tau0"] || given["interval"]:
		fail("-tau0 and -interval tune -method adacomm's controller; -method fixed runs -tau")
	case *tau < 1:
		fail("-tau %d must be >= 1", *tau)
	}
	if *adaptCompression {
		switch spec.Kind {
		case compress.KindTopK, compress.KindRandK, compress.KindQSGD:
		default:
			fail("-adapt-compression needs an adaptive -compress scheme (topk/randk/qsgd), got %s", spec)
		}
	}
	if *adaptCompression && *method != "adacomm" {
		fail("-adapt-compression requires -method adacomm")
	}
	if *linkAware && *method != "adacomm" && !*async {
		fail("-link-aware requires -method adacomm or -async")
	}

	// The event-driven engine has no tau controller, runs the full-averaging
	// strategy only, and prices point-to-point links directly — flags that
	// configure the barrier engine's controllers or routing are rejected
	// rather than silently ignored.
	if !*async {
		if *participation != 0 {
			fail("-participation requires -async")
		}
		if *clients != 0 {
			fail("-clients requires -async")
		}
	} else {
		switch {
		case *method == "adacomm":
			fail("-async runs without a tau controller; use -method fixed -tau")
		case *adaptCompression:
			fail("-adapt-compression needs the AdaComm controller; not available with -async")
		case *strategyFlag != "full":
			fail("-async supports only -strategy full (K-of-m averaging)")
		case *topologyFlag != "allgather":
			fail("-async prices point-to-point links; -topology does not apply")
		case *edgeLinksFlag != "":
			fail("-edge-links prices gossip graph rounds; not available with -async")
		case *gossipGamma != 0:
			fail("-gossip-gamma needs -strategy ring; not available with -async")
		case *adaptGossipGamma:
			fail("-adapt-gossip-gamma needs -strategy ring; not available with -async")
		case *globalMomentum != 0:
			fail("-async has no sync barrier for block/global momentum to filter")
		case *variableLR:
			fail("-async uses a constant learning rate; -variable-lr does not apply")
		case *clients < 0:
			fail("-clients %d must be >= 0", *clients)
		case *participation < 0:
			fail("-participation %d must be >= 0", *participation)
		}
	}

	topology, err := comm.ParseTopology(*topologyFlag)
	check(err)
	strategy, err := cluster.ParseStrategy(*strategyFlag)
	check(err)

	stopProfile := cli.StartCPUProfile("adacomm", *cpuProfile)

	// n simulated nodes: -workers, or the -clients population under -async.
	n := *workers
	if *clients != 0 {
		n = *clients
	}
	w := experiments.BuildWorkload(experiments.Arch(*arch), *classes, n, cli.Scale(*quick), *seed)
	if *bandwidth > 0 {
		w.Delay.Bandwidth = *bandwidth
	}
	w.Delay.Links, err = delaymodel.ParseLinks(*linksFlag, n)
	check(err)
	w.Delay.EdgeLinks, err = delaymodel.ParseEdgeLinks(*edgeLinksFlag, n)
	check(err)

	// The engines clamp a batch to the shard it is drawn from; a command line
	// that asks for more is told, not served something else. (An empty shard
	// is the constructors' error.)
	smallest := w.Shards[0].N()
	for _, sh := range w.Shards {
		smallest = min(smallest, sh.N())
	}
	if smallest > 0 && *batch > smallest {
		fail("-batch %d exceeds the smallest worker shard (%d examples)", *batch, smallest)
	}

	if *async {
		// Aggregate the first k arrivals per update (default: all n, the
		// barrier expressed as events).
		k := *participation
		if k == 0 {
			k = n
		}
		engine, err := cluster.NewAsync(w.Proto, w.Shards, w.Train, w.Test, w.Delay, cluster.AsyncConfig{
			Participation: k,
			Tau:           *tau,
			BatchSize:     *batch,
			LR:            *lr,
			Opt:           optCfg,
			MaxTime:       *budget,
			EvalEvery:     100,
			EvalSubset:    512,
			Compress:      spec,
			LinkAware:     *linkAware,
			Seed:          *seed + 1,
			Faults:        fsched,
		})
		check(err)
		emit(engine.Run(fmt.Sprintf("async K=%d/%d", k, n)), engine.TestAccuracy(), stopProfile)
		st := engine.Stats()
		fmt.Fprintf(os.Stderr,
			"async: %d updates, %d applied (%d expired), mean staleness %.2f, peak in-flight %d, %d replicas + %d scratch vectors\n",
			st.Updates, st.Applied, st.Expired, st.MeanStaleness, st.PeakInFlight,
			st.MaterializedReplicas, st.ScratchVectors)
		return
	}

	var sched sgd.Schedule = sgd.Const{Eta: *lr}
	if *variableLR {
		sched = sgd.MultiStep{Eta: *lr, Milestones: []int{15, 30, 45}}
	}

	cfg := cluster.Config{
		BatchSize:        *batch,
		Opt:              optCfg,
		GlobalMomentum:   *globalMomentum,
		MaxTime:          *budget,
		EvalEvery:        100,
		EvalSubset:       512,
		AccEverySync:     5,
		Strategy:         strategy,
		GossipGamma:      *gossipGamma,
		AdaptGossipGamma: *adaptGossipGamma,
		Compress:         spec,
		Topology:         topology,
		Seed:             *seed + 1,
		Faults:           fsched,
	}
	// Construct directly (not via experiments.Workload.Engine, which
	// panics): invalid flag combinations — a gossip gamma without a ring,
	// a collective topology with a non-full strategy — surface as
	// cluster validation errors and must exit like any other bad flag.
	engine, err := cluster.New(w.Proto, w.Shards, w.Train, w.Test, w.Delay, cfg)
	check(err)

	var ctrl cluster.Controller = cluster.FixedTau{Tau: *tau, Schedule: sched}
	if *method == "adacomm" {
		coreCfg := core.Config{
			Tau0:         *tau0,
			Interval:     *interval,
			Gamma:        0.5,
			Schedule:     sched,
			Coupling:     couplingFlag(*variableLR),
			DeferLRDecay: *variableLR,
			LinkAware:    *linkAware,
		}
		if *adaptCompression {
			ctrl = core.NewAdaCommCompress(coreCfg,
				core.CompressSchedule{Ratio0: spec.InitialRatio()})
		} else {
			ctrl = core.NewAdaComm(coreCfg)
		}
	}

	emit(engine.Run(ctrl, ctrl.Name()), engine.TestAccuracy(), stopProfile)
}

// blowUpFactor is the multiple of the trace's first loss past which a finite
// final loss is reported as diverged: no run that trains ends ten times worse
// than the initialization it started from.
const blowUpFactor = 10

// emit writes the trace as CSV to stdout and the one-line summary to stderr,
// then exits 3 if the run diverged: a final loss that is not finite, or is
// more than blowUpFactor times the first point's, is a result a script must
// be able to tell from a finished run, and the CSV up to it is still the
// record of how it got there. The run is over when emit is called, so the
// -cpuprofile ends here, ahead of every exit.
func emit(trace *metrics.Trace, testAccuracy float64, stopProfile func()) {
	stopProfile()
	if err := metrics.WriteCSV(os.Stdout, trace); err != nil {
		fmt.Fprintf(os.Stderr, "adacomm: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "final loss %.5f, min loss %.5f, test acc %.2f%%, %d iters in %.1f sim-s\n",
		trace.FinalLoss(), trace.MinLoss(), 100*testAccuracy,
		trace.Last().Iter, trace.Last().Time)
	if loss := trace.FinalLoss(); math.IsNaN(loss) || math.IsInf(loss, 0) {
		fmt.Fprintf(os.Stderr, "adacomm: diverged: final loss %v after %d iters\n", loss, trace.Last().Iter)
		os.Exit(3)
	} else if first := trace.Points[0].Loss; loss > blowUpFactor*first {
		fmt.Fprintf(os.Stderr, "adacomm: diverged: final loss %.5f is %.1fx the initial %.5f after %d iters\n",
			loss, loss/first, first, trace.Last().Iter)
		os.Exit(3)
	}
}

func couplingFlag(variable bool) core.Coupling {
	if variable {
		return core.SqrtCoupling
	}
	return core.NoCoupling
}
