// Package repro is a from-scratch Go reproduction of "Adaptive
// Communication Strategies to Achieve the Best Error-Runtime Trade-off in
// Local-Update SGD" (Wang & Joshi, MLSYS 2019).
//
// The implementation lives under internal/: the ADACOMM controller in
// internal/core, the PASGD engine in internal/cluster, the runtime model in
// internal/delaymodel, the theory in internal/bound, and the hand-rolled
// training stack in internal/{tensor,nn,sgd,data,rng}. Executables are
// under cmd/, runnable examples under examples/, and every figure and table
// of the paper's evaluation regenerates via cmd/figures or the benchmark
// harness in bench_test.go at this directory. An ablation is a row of the
// registry in internal/experiments/registry.go and nothing else: its driver,
// printer and sizing are unexported, and cmd/sweep -ablation NAME (sweep -h
// lists them), BenchmarkAblations and examples heterogeneous, paramserver and
// stragglers select rows by name (stragglers and momentum print Figs 5 and 11
// through cmd/figures' drivers: no table has a second copy); the three
// commands share their exit-2 contract for bad flag values through
// internal/cli. Simulated time has ONE pricer, internal/delaymodel:
// a round's compute half is SampleCompute (the slowest up worker's scaled
// sum of compute draws), its broadcast half SampleDRound (one D0 draw, the
// slowest active transfer gates), both over the engines' one membership mask
// (active[i] while worker i is up; nil masks mean everyone up at scale 1),
// and one link rule resolves every transfer's bandwidth, for both engines,
// the parameter server and the runtime figures alike.
//
// Beyond the paper, internal/compress models the communication-VOLUME axis
// of the trade-off: gradient/delta compression (top-k, random-k, QSGD-style
// quantization, with optional error feedback and a float32 wire) as one
// concrete compress.Compressor built from a compress.Spec — the sibling of
// internal/opt's one Optimizer, its ratio and width retuned by plain
// SetRatio/SetBits calls — a size-aware broadcast cost
// D = (latency + bytes/bandwidth) * s(m) in internal/delaymodel, compressed
// delta-averaging in internal/cluster, a compressed parameter-server push
// in internal/paramserver, and a joint (tau, compression-ratio) adaptive
// controller in internal/core. See examples/compression and the wire
// ablation (cmd/sweep -ablation wire) for the error-runtime payoff on
// bandwidth-constrained links. QSGD's three per-coordinate loops (round,
// decode, accumulate) run on the same AVX2 tier as the matmul kernels, bit
// for bit the Go loops; its package comment states the draw-order contract.
// So do normal draws in bulk (rng.FillNormFloat64 behind every generator and
// initialiser; the rule is in internal/rng's package comment), and datasets
// are immutable once built: an engine's evaluation batch is a view of one.
//
// Compressed decentralized training is CHOCO-SGD (Koloskova et al. 2019):
// under ring gossip, every node keeps estimate vectors x̂_j of itself and
// its ring neighbors, updated ONLY by the compressed messages
// q_j = C(x_j - x̂_j) that cross the wire, and mixes toward the
// neighborhood estimate average with consensus step
// cluster.Config.GossipGamma — no node ever reads state it could not have
// reconstructed from its own traffic (an invariant test hides the replicas
// behind an interface that panics on out-of-band reads). Uncompressed ring
// gossip is this protocol on the identity wire: a lossless message ships
// x_i itself, so the mix is the plain gossip average bit for bit. The
// gossip-compression ablation (cmd/sweep -ablation gossip) quantifies
// CHOCO against the shared-reference centralized baseline at several ring
// sizes and keep-ratios.
//
// Gossip is graph-native: internal/graph supplies a first-class Graph
// (ring, torus, random-regular, expander, star, complete, plus seeded
// time-varying B-connected sequences) that comm.Topology adapts and both
// gossip paths consume uniformly via Neighbors/MixOrder/MixWeights. The
// mixing matrix W is Metropolis-Hastings — symmetric, doubly stochastic,
// W_ii > 0 on every connected graph — and rows that are structurally
// uniform return nil weights and MUST be mixed as (ordered sum)/count,
// one division, which is how ring-over-graph reproduces the legacy ring
// arithmetic bit for bit. Each Graph carries its spectral gap 1-lambda_2
// (deflated power iteration at construction); Config.AdaptGossipGamma
// sets the CHOCO consensus step per active graph as
// clamp(sqrt(gap), 0.05, 1) — fast mixers take near-full steps, slow
// mixers damp toward CHOCO's small-gamma regime — the same
// measure-then-adapt move AdaComm makes for tau. On the runtime side,
// delaymodel.Model.EdgeLinks prices individual links so the slowest
// ACTIVE edge gates each gossip round (unset: bit-identical to the
// per-worker path), which is what lets a sparse graph genuinely win
// wall-clock: the topology ablation (cmd/sweep -ablation topology) shows a 4x4 torus beating BOTH the ring and full
// averaging on time-to-loss under a single 10x edge, because it routes
// around the slow link while mixing with an O(1/n) spectral gap. Parse
// specs: "graph:ring", "torus:4x4", "regular:4@seed", "expander",
// "varying:ring,star@B=5" (cmd/adacomm -topology, -edge-links,
// -adapt-gossip-gamma).
//
// The lock-step engine's collectives run through internal/comm: a
// Communicator (AllReduce for full averaging, PushMulti for gossip, over the
// engine's membership view) whose aggregation hot path index-merges sparse
// messages in O(k*m) instead of O(dim*m), plus routing topologies
// (all-gather, ring, tree, star) whose transfer schedules the delay model
// prices. A single upload — elastic averaging's push, an async client's, a
// parameter-server gradient — is a compress.Decode (or AddDecoded) on the
// receiving side, priced at Message.Bytes on the sender's own link.
// internal/delaymodel supports per-worker heterogeneous Link{Latency,
// Bandwidth} — stragglers slow in bytes/s, not compute — with the slowest
// link gating each round. A model pull is free or exact, and an exact pull is
// priced at its wire size, never built. See examples/heterogeneous and
// cmd/adacomm's -topology / -links flags.
//
// The adaptive controllers are heterogeneity-aware end to end: the engines
// report observed timing back to the controllers — cluster.RoundInfo carries
// the cumulative communication/compute wall-clock split, which is all
// AdaComm reads, and paramserver.RoundInfo the per-worker exchange transfer
// times AdaSync's cap reads. With
// core.Config.LinkAware, AdaComm (and the joint AdaCommCompress) scales its
// proposed tau by sqrt of the measured comm/compute ratio alpha, so slow
// links hold tau higher, per Theorem 2's tau* ~ sqrt(D) scaling; with
// paramserver.AdaSyncConfig.LinkAware, AdaSync caps K at the number of links
// within a cutoff of the fastest (waiting only for the K fastest links, the
// Kas Hanna et al. 2022 direction). Every LinkAware-off trajectory is pinned
// bit-identical to the static rules by golden tests; the link-aware ablations
// (cmd/sweep -ablation linkaware, linkaware-ps) quantify the win on a 10x
// bandwidth straggler.
// See cmd/adacomm's -link-aware flag and cmd/figures' -bytes/-bandwidth
// flags for the size-aware Fig 5/7/8 Monte-Carlo variants.
//
// Beyond the lock-step engines, internal/events + cluster.NewAsync form an
// event-driven execution mode: a deterministic discrete-event scheduler
// (priority queue over per-client virtual clocks, seeded tie-breaking, so
// the event trace is a pure function of the seed at any GOMAXPROCS)
// replaces the round barrier. Each update aggregates the FIRST K arrivals
// (with LinkAware capped by delaymodel.FastLinkCap, the cap AdaSync's
// link-aware mode uses), staleness-weighted by 1/(1+s) with arrivals more
// than 64 versions stale discarded; stragglers overlap later rounds instead
// of gating them. Client sharding makes the population a memory non-issue:
// idle clients are a pair of RNG streams, in-flight clients a compressed
// wire message (internal/compress, priced at dispatch via the size-aware
// delay model), and only one compute replica is ever materialized — local
// numerics run eagerly at dispatch (they depend only on the dispatch-time
// global model and the client's own streams) while delivery is
// event-scheduled, giving true stale-update semantics with memory
// proportional to K, not N. examples/federated runs 1024 non-IID clients
// at K=32 in one replica plus four scratch vectors; the async ablation
// (cmd/sweep -ablation async, cmd/adacomm -async
// -participation -clients) shows K-of-m beating the full barrier on
// simulated wall-clock under a 10x straggler. delaymodel.Model.Jitter
// gives every worker a persistent seeded compute-speed factor so arrival
// order is non-degenerate on homogeneous configurations (nil = every
// legacy trace bit-identical).
//
// The training hot path is deterministic-parallel at three layers. (1) The
// lock-step engine fans each round's local-update loops across a bounded
// goroutine pool (cluster.Config.ComputeWorkers, default GOMAXPROCS), one
// network, gradient buffer and mini-batch buffer per compute slot: slot s
// steps workers s, s+width, ... at their own parameter vectors
// (nn.Network.LossGradAt, data.Sampler.NextInto), so a worker is its
// parameters, sampler and optimizer, and m workers cost ComputeWorkers sets
// of activations, gradients and batches, not m. Workers are independent
// between averaging points, a slot's scratch carries nothing from one step
// to the next, and the reduce
// always runs in fixed worker order, so pool width cannot change a bit of
// any trajectory (pinned by golden and determinism tests at several worker
// counts and widths). (2) The nn layers are allocation-free in steady
// state: every layer owns a scratch arena — the matrices it returns from
// Forward/Backward, reused across steps — so a training step performs zero
// heap allocations once buffers are warm; the arena rule is one arena per
// layer, layers belong to one Network, and a Network is never shared across
// goroutines (each compute slot owns one; the parameter server and the
// async engine run on one). (3) Experiment grids (figure baselines,
// ablations, compression cells, link-aware configs) run their independent
// configurations concurrently on internal/experiments' pool (-workers on
// cmd/figures and cmd/sweep), with byte-identical output at any width.
//
// The tensor matmul kernels (Gemm/GemmTA/GemmTB) are
// cache-blocked and register-tiled under a bit-exactness contract: every
// output element starts from its beta-scaled destination and accumulates
// its reduction terms in ascending index order, one separately-rounded
// multiply and add per term — the exact arithmetic of the naive triple
// loop, which ships alongside as the parity oracle (GemmNaive etc.,
// internal/tensor/parity_test.go). Within that contract the blocked
// kernels reorder only the loop NEST (C rows x kc-panels); the axpy-form
// kernels (Gemm, GemmTA) compress each row's non-zero coefficients into a
// list once and issue only those terms, so the exact zeros ReLU and
// pooling leave in conv gradients cost nothing; and on an amd64 whose CPUID
// reports AVX2 the inner loops of Gemm, GemmTA and GemmTB, the coefficient
// compression and the ReLU masks are one tier of packed kernels
// (gemm_amd64.s; tensor.Kernels says which tier runs, -tags purego builds
// without them, and every other machine runs the Go loops they are tested
// against) whose vector lanes hold independent C elements — four
// multiply-adds retired per instruction instead of one, with FMA
// deliberately off the table (fused rounding would change bits). nn.Conv2D
// lowers one sample at a time through a zero-bordered copy of its image
// (tensor.Lower: runs of the padded image; on the AVX2 tier only shapes the
// direct conv kernels decline lower at all), keeps its input rather than the
// lowered patches for the backward
// pass, and multiplies without transposing anything
// (internal/tensor/naive.go explains why that is exact).
// tensor.SetWorkers(n) optionally fans output-row panels
// across goroutines; panels never share output rows, so results are
// bit-identical at every worker count (raced in CI). Separately,
// compress.Spec gained a wire format (WireFloat32, spec modifier "+f32" on
// cmd/adacomm's -compress, -wire float32 on cmd/sweep, which has no
// -compress): payload values are narrowed to float32 on
// the wire — halving every byte-priced message — while model state stays
// float64; the wire ablation (cmd/sweep -ablation wire) quantifies the
// loss-vs-runtime payoff on a bandwidth-constrained link.
//
// Robustness is a first-class axis: internal/faults defines a seeded,
// declarative fault schedule (faults.Parse — "crash:W@rR", "blip:W@rR1-R2",
// "slow:WxF@rR1-R2", "drop:P") injecting permanent crashes, crash-recover
// blips, slow-down episodes, and retried message drops into EVERY engine: the
// lock-step cluster (serial and pooled), the event-driven engine, and the
// parameter server (-faults on cmd/adacomm and cmd/sweep). Membership is
// dynamic end to end — the lock-step engine installs its active set into
// comm.Communicator (SetActive; AllReduce skips inactive contributions,
// PushMulti rejects inactive endpoints), full and elastic averaging
// renormalize over survivors, gossip mixes over the induced active subgraph
// (graph.Subgraph re-derives Metropolis weights and the spectral gap on the
// active block, so AdaptGossipGamma re-adapts; a disconnected survivor set
// damps gamma to its floor), and the async engine expires in-flight work from
// crashed clients. A rejoining worker reconciles by an exact pull, priced at
// the dense vector's wire size, snapping to the shared state (CHOCO estimates
// re-pin so its next wire message is a delta from common ground); in the
// event-driven and parameter-server modes the dispatch-time pull IS the
// reconcile. The schedule is a pure function of (spec, seed, round) and
// consumes no RNG from the delay/jitter streams, so every zero-fault config
// stays bit-identical to its golden; the churn ablation (cmd/sweep -ablation
// churn) pins that under 20% mid-run crash-recover churn plus drops every
// strategy completes without deadlock and degrades gracefully on
// time-to-loss.
//
// Local update rules are a first-class layer: internal/opt defines the
// Optimizer type (Step, and SyncReset, which the lock-step engine calls at
// every averaging point and rejoin and the async engine at every dispatch)
// with plain SGD, heavy-ball and Nesterov momentum, and Local Adam; both
// cluster engines — lock-step and event-driven — step through it
// (cluster.Config.Opt, AsyncConfig.Opt, -optimizer on the cmds; zero values
// stay bit-identical to every pre-optimizer golden).
// Adam's second moments are an ablation axis: worker-local, or SYNCED
// through the averaging fabric (Opt.SyncedMoments) — the synced v extends
// every averaged payload from dim to 2*dim, riding the SAME compressed,
// narrowed, byte-priced CHOCO gossip messages the parameters do, and
// rejoin reconciliation restores it so a recovered worker matches a
// never-crashed one bit for bit, step clocks included. At sync points,
// cluster.Config.GlobalMomentum generalizes block momentum to every strategy
// (SlowMo-style slow momentum: one shared buffer under full averaging,
// per-node buffers under gossip/elastic, renormalized over the surviving
// active set under churn); the async engine runs stateless or momentum
// local rules only (per-client adaptive state is rejected as
// Theta(clients*dim)). AdaComm's eta-coupled tau rules compare eta_0/eta_l,
// which heavy-ball momentum leaves unchanged (both effective rates scale by
// 1/(1-beta)), and the norm-decay width rule (compress.NormDecayBits, driven
// by AdaCommCompress) grows a QSGD quantizer one bit per halving of the
// observed gradient norm. The
// optimizer ablation (cmd/sweep -ablation optimizer, tuned by
// -adam-beta2/-global-momentum) puts every rule on one
// error-runtime table, including a wire-synced-Adam row through CHOCO over
// a float32 wire.
//
// End-to-end speed is measured by the benchmark module (benchmark/), and
// steady-state allocation is gated by each package's AllocsPerRun tests.
// `go run ./cmd/bench` checks the AVX2 kernels within one run: each must
// beat the scalar code it replaced by its pair's floor (a pair first found
// under it is sampled again before its verdict), or the command exits 1
// naming the kernel tier that ran.
package repro
