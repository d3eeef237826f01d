// Heterogeneous links: one worker's uplink is 10x worse than the rest, so
// every synchronization is gated by the slow link's transfer time — the
// straggler is slow in bytes per second, not compute (the regime of
// Spiridonoff et al. 2020 and Kas Hanna et al. 2022). Fixed tau = 1 pays
// the slow link every iteration; a large fixed tau amortizes it but keeps
// the high error floor; AdaComm starts large and decays tau, getting the
// runtime of the former early and the error floor of frequent averaging
// late.
//
// The per-worker links come from delaymodel.Model.Links, and the round's
// communication delay is computed from the topology's actual transfer
// schedule (internal/comm), with the slowest link gating each round.
//
// The second half runs the link-AWARE controllers: AdaComm consuming the
// observed per-round comm/compute ratio from cluster.RoundInfo (holding tau
// higher by sqrt(alpha) while the slow link dominates), and the parameter
// server's AdaSync capping K at the fast-link count so the straggling uplink
// never gates an update (the Kas Hanna et al. 2022 direction).
//
// The last section moves the straggler from a worker to a single EDGE:
// delaymodel.Model.EdgeLinks prices one gossip link at 10x latency, and the
// slowest ACTIVE edge gates each round. A topology that contains the edge
// (the ring; full averaging, whose complete graph contains every edge) pays
// it every sync; the 4x4 torus routes around it and also mixes ~8x faster
// than the ring (spectral gap 0.40 vs 0.05), so it reaches the target loss
// in the least simulated time — communication ROUTING, not just frequency,
// sets the error-runtime frontier.
//
// Each table is a row of the ablation registry, run at full size:
// `go run ./cmd/sweep -ablation slowlink` (then linkaware, linkaware-ps,
// topology) prints the same four tables without the commentary.
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	run("slowlink")
	fmt.Println()
	fmt.Println("tau=1 is gated by the slow link every iteration; tau=16 amortizes it")
	fmt.Println("16x but keeps averaging rarely even once communication is cheap to")
	fmt.Println("buy; adacomm starts at tau0=16 and decays tau as the loss falls,")
	fmt.Println("reaching the lowest loss in the same simulated budget.")
	fmt.Println()

	run("linkaware")
	fmt.Println()
	fmt.Println("the static rule decays tau obliviously and ends up paying the slow")
	fmt.Println("link every few steps; the link-aware mode measures alpha from the")
	fmt.Println("round timings and holds tau ~sqrt(alpha) higher, reaching the target")
	fmt.Println("loss sooner and fitting more iterations into the same budget.")
	fmt.Println()

	run("linkaware-ps")
	fmt.Println()
	fmt.Println("static AdaSync grows K to m and every late update waits on the slow")
	fmt.Println("uplink; the link-aware cap stops at the fast-link count, keeping the")
	fmt.Println("update cadence high without giving back the low-noise floor.")
	fmt.Println()

	run("topology")
	fmt.Println()
	fmt.Println("here the straggler is one EDGE, not a worker: EdgeLinks prices link")
	fmt.Println("3-4 at 10x and the slowest active edge gates each gossip round. The")
	fmt.Println("ring contains the edge and pays it every sync, and so does full")
	fmt.Println("averaging — the complete graph contains every edge. The 4x4 torus")
	fmt.Println("routes around it and still mixes ~8x faster than the ring (spectral")
	fmt.Println("gap 0.40 vs 0.05), so it reaches the shared target loss first: how")
	fmt.Println("communication is routed matters, not just how often it happens.")
}

// run prints one row of the ablation registry (cmd/sweep -ablation NAME) at
// full size.
func run(name string) {
	sel, err := experiments.SelectAblations(name)
	if err == nil {
		err = sel[0].Run(os.Stdout, experiments.AblationOptions{Scale: experiments.ScaleFull})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterogeneous:", err)
		os.Exit(1)
	}
}
