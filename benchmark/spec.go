package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// The benchmark's declared metrics. BENCHMARK.json at the repository root is
// generated from these tables (`go run . -spec`), and bench_test.go fails
// when the two drift apart.

// runSeconds is how long one untraced run measures.
const runSeconds = 15

// endMetric is one end-to-end metric: what a user of the simulator waits
// for or pays. bound is the share of the parent's median by which it may
// get worse before a change counts as a regression. exact marks a pure
// function of the seed: the bound covers runs of different seeds, and two
// runs of one seed must agree on it to the last bit.
type endMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	exact  bool
}

var endToEndSpec = []endMetric{
	{"setup_s", "s", "lower", 0.25, false},
	{"wall_s", "s", "lower", 0.25, false},
	{"alloc_mb", "MB", "lower", 0.05, false},
	{"wire_mb", "MB", "lower", 0.10, true},
	{"sim_s_per_kiter", "s", "lower", 0.10, true},
}

// layerMetric is one per-layer metric. Layer is the module it belongs to;
// moves names the end-to-end metric and the workloads it should move, which
// is what a later claim is judged against. Neither goes into
// BENCHMARK.json, whose entries carry exactly name, unit and better.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	layer  string
	moves  string
}

const (
	convWall   = "wall_s on conv_pasgd, conv_pooled"
	wireWall   = "wall_s on wire_mix"
	fleetWall  = "wall_s on async_fleet"
	psWall     = "wall_s on ps_adasync"
	eventWall  = "wall_s on async_fleet, ps_adasync"
	squeezed   = "wall_s on wire_mix, ps_adasync, async_fleet"
	simSide    = "sim_s_per_kiter, wire_mb on every workload"
	noEndToEnd = "none: a record"
)

var perLayerSpec = []layerMetric{
	{"cluster.local_update_s", "s", "lower", "cluster", "wall_s on conv_pasgd, conv_pooled, wire_mix"},
	{"cluster.sync_s", "s", "lower", "cluster", wireWall},
	{"cluster.eval_s", "s", "lower", "cluster", "wall_s on conv_pasgd, wire_mix"},
	{"cluster.unreplayed_round_s", "s", "lower", "cluster", wireWall},
	{"cluster.other_s", "s", "lower", "cluster", "wall_s on conv_pasgd, wire_mix"},
	{"cluster.rounds", "count", "lower", "cluster", simSide},
	{"cluster.local_steps", "count", "higher", "cluster", simSide},
	{"cluster.replay_parity", "count", "higher", "cluster", noEndToEnd},
	{"cluster.sim_comm_share", "ratio", "lower", "cluster", simSide},
	{"cluster.churn_overhead_s", "s", "lower", "cluster", wireWall},
	{"cluster.async_run_s", "s", "lower", "cluster", fleetWall},
	{"cluster.async_us_per_arrival", "us", "lower", "cluster", fleetWall},
	{"cluster.async_updates", "count", "higher", "cluster", simSide},
	{"cluster.async_applied", "count", "higher", "cluster", simSide},
	{"cluster.async_expired", "count", "lower", "cluster", simSide},
	{"cluster.async_mean_staleness", "count", "lower", "cluster", simSide},
	{"cluster.async_peak_inflight", "count", "lower", "cluster", "alloc_mb on async_fleet"},

	{"core.controller_s", "s", "lower", "core", "wall_s on conv_pasgd, wire_mix"},
	{"core.controller_calls", "count", "lower", "core", simSide},
	{"core.adacomm_tau_changes", "count", "higher", "core", simSide},
	{"core.adacomm_final_tau", "count", "lower", "core", simSide},

	{"paramserver.kasync_run_s", "s", "lower", "paramserver", psWall},
	{"paramserver.ksync_run_s", "s", "lower", "paramserver", psWall},
	{"paramserver.us_per_update", "us", "lower", "paramserver", psWall},
	{"paramserver.mean_staleness", "count", "lower", "paramserver", simSide},
	{"paramserver.final_k", "count", "higher", "paramserver", simSide},

	{"metrics.time_to_target_s", "s", "lower", "metrics", noEndToEnd},
	{"metrics.final_loss", "loss", "lower", "metrics", noEndToEnd},
	{"metrics.baseline_final_loss", "loss", "lower", "metrics", noEndToEnd},
	{"metrics.target_loss", "loss", "lower", "metrics", noEndToEnd},

	{"nn.lossgrad_us.vgg", "us", "lower", "nn", convWall},
	{"nn.lossgrad_us.resnet", "us", "lower", "nn", convWall},
	{"nn.lossgrad_us.wide", "us", "lower", "nn", wireWall},
	{"nn.lossgrad_us.small", "us", "lower", "nn", eventWall},
	{"nn.forward_us.vgg", "us", "lower", "nn", convWall},
	{"nn.conv_fwd_us", "us", "lower", "nn", convWall},
	{"nn.conv_bwd_us", "us", "lower", "nn", convWall},
	{"nn.relu_us", "us", "lower", "nn", convWall},
	{"nn.maxpool_us", "us", "lower", "nn", convWall},
	{"nn.est_share", "ratio", "lower", "nn", "wall_s on every workload"},

	{"tensor.gemm_dense_us", "us", "lower", "tensor", convWall},
	{"tensor.gemm_zero_laden_us", "us", "lower", "tensor", convWall},
	{"tensor.gemmtb_us", "us", "lower", "tensor", convWall},
	{"tensor.gemmta_us", "us", "lower", "tensor", convWall},
	{"tensor.im2col_us", "us", "lower", "tensor", convWall},
	{"tensor.col2im_us", "us", "lower", "tensor", convWall},
	{"tensor.lossgrad_ops_us.vgg", "us", "lower", "tensor", convWall},
	{"tensor.gemm_par_speedup", "x", "higher", "tensor", "none: no workload sets kernel workers above 1"},
	{"tensor.est_share", "ratio", "lower", "tensor", convWall},

	{"opt.step_us.conv", "us", "lower", "opt", convWall},
	{"opt.step_us.wide", "us", "lower", "opt", wireWall},
	{"data.sampler_next_us", "us", "lower", "data", convWall},

	{"compress.topk_us", "us", "lower", "compress", wireWall},
	{"compress.topk_ef_us", "us", "lower", "compress", wireWall},
	{"compress.qsgd_us", "us", "lower", "compress", wireWall},
	{"compress.topk_ef_small_us", "us", "lower", "compress", psWall},
	{"compress.qsgd_small_us", "us", "lower", "compress", fleetWall},
	{"compress.decode_us", "us", "lower", "compress", wireWall},
	{"compress.bytes_ratio", "ratio", "lower", "compress", "wire_mb on wire_mix"},
	{"compress.est_share", "ratio", "lower", "compress", squeezed},

	{"comm.allreduce_dense_us", "us", "lower", "comm", wireWall},
	{"comm.allreduce_sparse_us", "us", "lower", "comm", wireWall},
	{"comm.pushmulti_us", "us", "lower", "comm", wireWall},
	{"graph.torus_build_us", "us", "lower", "graph", "setup_s on wire_mix"},
	{"graph.subgraph_us", "us", "lower", "graph", wireWall},
	{"delaymodel.schedule_us", "us", "lower", "delaymodel", wireWall},
	{"delaymodel.edge_schedule_us", "us", "lower", "delaymodel", wireWall},
	{"delaymodel.transfer_us", "us", "lower", "delaymodel", fleetWall},
	{"events.pushpop_ns", "ns", "lower", "events", fleetWall},
	{"events.count", "count", "lower", "events", fleetWall},
	{"faults.query_ns", "ns", "lower", "faults", eventWall},

	{"par.pool_width", "count", "higher", "par", "wall_s on conv_pooled"},
	{"par.pool_speedup", "x", "higher", "par", "wall_s on conv_pooled"},
	{"experiments.fig_wall_s", "s", "lower", "experiments", "wall_s on conv_pooled"},
	{"bench.trace_overhead_pct", "%", "lower", "bench", noEndToEnd},
	{"bench.repeat_spread_pct", "%", "lower", "bench", noEndToEnd},
}

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []endMetric   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndSpec,
		PerLayer:   perLayerSpec,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

// checkBenchmarkJSON fails unless the repository's BENCHMARK.json is what
// spec.go generates. The benchmark runs from its own directory, so the file
// is one level up.
func checkBenchmarkJSON() error {
	want, err := benchmarkJSON()
	if err != nil {
		return err
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("BENCHMARK.json differs from spec.go; regenerate it with `go run -C benchmark . -spec > BENCHMARK.json`")
	}
	return nil
}
