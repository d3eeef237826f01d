package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/delaymodel"
	"repro/internal/metrics"
	"repro/internal/sgd"
)

// The topology ablation quantifies the graph layer's claim: under per-edge
// delay pricing, the best mixing topology is neither the sparsest nor the
// densest. A single slow edge gates every round of a graph that activates it
// — the ring (it is a ring edge) and the complete graph (it contains every
// edge, and complete-graph gossip IS full averaging) both pay it every sync
// — while a sparse graph that routes around the edge (the 4x4 torus, a
// random-regular draw) pays only its good links AND mixes far faster than
// the ring (spectral gap O(1/n) vs O(1/n^2)). Time-to-loss therefore orders
// torus/expander ahead of both endpoints of the density spectrum.

// The topology cluster: 16 nodes, and one slow edge — topoEdgeFrom-topoEdgeTo
// gets topoEdgeLatency seconds of latency in BOTH directions on top of the
// constant D0 = 1 round base. (3,4) is a ring edge at m = 16 that the 4x4
// torus does not contain.
const (
	topoWorkers     = 16
	topoEdgeFrom    = 3
	topoEdgeTo      = 4
	topoEdgeLatency = 10.0
)

// topologyRow is one cell's outcome.
type topologyRow struct {
	Topology     string
	Method       string // "raw" or "choco"
	SpectralGap  float64
	RoundComm    float64 // simulated seconds of one sync under the edge table
	FinalLoss    float64
	MinLoss      float64
	TimeToTarget float64
}

// topologyGrid races the ring and the complete graph (the two density
// endpoints, both containing the slow edge) against the 4x4 torus and a
// random-regular draw (both routing around it), each raw and as a CHOCO cell
// at top-k 0.25 with the spectral-gap-adapted consensus step. Returns the
// shared target loss and one row per cell. Cells are independent engines,
// so the grid fans out across the experiment pool; rows are written by index
// and the result is identical at any pool width.
func topologyGrid(scale Scale) (float64, []topologyRow) {
	const seed = 160
	budget := 1500.0
	if scale == ScaleQuick {
		budget = 500
	}
	type cellSpec struct {
		topoStr string
		topo    comm.Topology
		method  string
		cs      compress.Spec
		adapt   bool
	}
	var cells []cellSpec
	for _, s := range []string{"graph:ring", "torus:4x4", "regular:4@11", "complete"} {
		topo, err := comm.ParseTopology(s)
		if err != nil {
			panic(fmt.Sprintf("experiments: topology grid: %v", err))
		}
		cells = append(cells,
			cellSpec{topoStr: s, topo: topo, method: "raw"},
			cellSpec{
				topoStr: s, topo: topo, method: "choco",
				cs:    compress.Spec{Kind: compress.KindTopK, Ratio: 0.25},
				adapt: true,
			})
	}
	rows := make([]topologyRow, len(cells))
	traces := make([]*metrics.Trace, len(cells))
	forEach(len(cells), func(i int) {
		c := cells[i]
		w := BuildWorkload(ArchLogistic, 4, topoWorkers, scale, seed)
		w.Delay.EdgeLinks = map[delaymodel.Edge]delaymodel.Link{
			{From: topoEdgeFrom, To: topoEdgeTo}: {Latency: topoEdgeLatency},
			{From: topoEdgeTo, To: topoEdgeFrom}: {Latency: topoEdgeLatency},
		}
		cfg := cluster.Config{
			BatchSize:        4,
			MaxTime:          budget,
			EvalEvery:        50,
			EvalSubset:       256,
			Strategy:         cluster.RingGossip,
			Topology:         c.topo,
			Compress:         c.cs,
			AdaptGossipGamma: c.adapt,
			Seed:             seed + 1,
		}
		e := w.Engine(cfg)
		name := fmt.Sprintf("%s/%s", c.topoStr, c.method)
		tr := e.Run(cluster.FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, name)
		seq, err := c.topo.Graphs(topoWorkers)
		if err != nil {
			panic(fmt.Sprintf("experiments: topology grid: %v", err))
		}
		g := seq.Graph(0)
		// One sync's communication charge: D0 = 1 plus the slow edge's
		// latency iff the graph activates it.
		roundComm := 1.0
		for _, nb := range g.Neighbors(topoEdgeFrom) {
			if nb == topoEdgeTo {
				roundComm += topoEdgeLatency
				break
			}
		}
		rows[i] = topologyRow{
			Topology:    c.topoStr,
			Method:      c.method,
			SpectralGap: g.SpectralGap(),
			RoundComm:   roundComm,
			FinalLoss:   tr.FinalLoss(),
			MinLoss:     tr.MinLoss(),
		}
		traces[i] = tr
	})
	target := reachableTarget(traces, 0.01)
	for i := range rows {
		rows[i].TimeToTarget = traces[i].TimeToLoss(target)
	}
	return target, rows
}

// printTopologyGrid renders the ablation as a table.
func printTopologyGrid(w io.Writer, target float64, rows []topologyRow) {
	fmt.Fprintf(w, "== Mixing topology under a %gx slow edge (%d-%d), m=%d (time to loss %.5f) ==\n",
		topoEdgeLatency, topoEdgeFrom, topoEdgeTo, topoWorkers, target)
	fmt.Fprintf(w, "%-16s %-6s %9s %10s %12s %12s %11s\n",
		"topology", "method", "gap", "comm/sync", "final loss", "min loss", "t(target)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-6s %9.4f %10.1f %12.5f %12.5f %11.1f\n",
			r.Topology, r.Method, r.SpectralGap, r.RoundComm, r.FinalLoss, r.MinLoss, r.TimeToTarget)
	}
}
