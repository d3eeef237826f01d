package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/sgd"
)

// The gossip-compression ablation quantifies what decentralizing the
// compression reference costs. The pre-CHOCO compressed ring referenced the
// exact replica mean — state only a centralized algorithm can hold, and
// exactly what compressed FULL averaging maintains legitimately. The grid
// therefore pits, at several ring sizes and keep-ratios, CHOCO ring gossip
// (per-node estimates, everything wire-derivable) against that
// shared-reference full-averaging baseline and against uncompressed ring
// gossip, on a bandwidth-constrained link where the payload saving buys
// simulated wall-clock.

// The grid's CHOCO consensus step and its link, in bytes per simulated
// second on every worker.
const (
	gossipGamma     = 0.5
	gossipBandwidth = 128.0
)

// gossipGridRow is one cell of the sweep.
type gossipGridRow struct {
	M             int
	Method        string // "ring raw", "ring choco", or "full shared-ref"
	Compressor    string
	BytesPerRound int
	FinalLoss     float64
	MinLoss       float64
}

// gossipGrid trains every cell: rings of 4 and 8 logistic workers, each with
// an uncompressed ring row and, per top-k keep-ratio in {0.25, 0.1}, a CHOCO
// ring row and a shared-reference full-averaging row. wire is the value
// precision of the compressed cells; the "ring raw" baseline always runs
// lossless float64, so the grid keeps its reference. Cells are independent
// configurations (each owns its engine, estimate state, and compressor
// streams), so the grid fans out across the experiment pool; rows are
// written by index and the result is identical at any pool width.
func gossipGrid(scale Scale, wire compress.WireFormat) []gossipGridRow {
	const seed = 150
	budget := 2400.0
	if scale == ScaleQuick {
		budget = 800
	}
	type cellSpec struct {
		w      *Workload
		method string
		strat  cluster.Strategy
		cs     compress.Spec
		gamma  float64
	}
	var cells []cellSpec
	for _, m := range []int{4, 8} {
		w := BuildWorkload(ArchLogistic, 4, m, scale, seed)
		w.Delay.Bandwidth = gossipBandwidth
		cells = append(cells, cellSpec{w: w, method: "ring raw", strat: cluster.RingGossip})
		for _, ratio := range []float64{0.25, 0.1} {
			cs := compress.Spec{Kind: compress.KindTopK, Ratio: ratio, Wire: wire}
			cells = append(cells,
				cellSpec{w: w, method: "ring choco", strat: cluster.RingGossip, cs: cs, gamma: gossipGamma},
				cellSpec{w: w, method: "full shared-ref", strat: cluster.FullAveraging, cs: cs})
		}
	}
	rows := make([]gossipGridRow, len(cells))
	forEach(len(cells), func(i int) {
		c := cells[i]
		e := c.w.Engine(cluster.Config{
			BatchSize:   4,
			MaxTime:     budget,
			EvalEvery:   100,
			EvalSubset:  256,
			Strategy:    c.strat,
			Compress:    c.cs,
			GossipGamma: c.gamma,
			Seed:        seed + 1,
		})
		name := fmt.Sprintf("m=%d/%s/%s", c.w.M, c.method, c.cs)
		tr := e.Run(cluster.FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, name)
		rows[i] = gossipGridRow{
			M:             c.w.M,
			Method:        c.method,
			Compressor:    c.cs.String(),
			BytesPerRound: e.CommBytesPerRound(),
			FinalLoss:     tr.FinalLoss(),
			MinLoss:       tr.MinLoss(),
		}
	})
	return rows
}

// printGossipGrid renders the sweep as a table.
func printGossipGrid(w io.Writer, rows []gossipGridRow) {
	fmt.Fprintf(w, "== Gossip compression: CHOCO ring vs shared-reference averaging (gamma %g, bandwidth %g B/s) ==\n",
		gossipGamma, gossipBandwidth)
	fmt.Fprintf(w, "%-4s %-16s %-12s %10s %12s %12s\n",
		"m", "method", "compressor", "B/round", "final loss", "min loss")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4d %-16s %-12s %10d %12.5f %12.5f\n",
			r.M, r.Method, r.Compressor, r.BytesPerRound, r.FinalLoss, r.MinLoss)
	}
}
