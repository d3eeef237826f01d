package cluster

import (
	"slices"

	"repro/internal/graph"
)

// This file is the engine side of fault injection (internal/faults): the
// per-round membership refresh, the rejoin reconciliation, and the induced
// active-subgraph cache gossip mixes on. The membership view always exists;
// without a schedule it stays everyone-up at transfer scale 1, and nothing
// here consumes RNG, so a fault-free run is the fault path with nobody down.

// beginRound refreshes the round's membership view from the fault schedule:
// the active set (installed into the communicator), the per-worker
// transfer multipliers roundTime charges, and the reconciliation
// pulls of workers rejoining after a blip. Run calls it at the top of every
// round; the manual StepLocal/SyncNow drivers do not. Without a schedule the
// view cannot change, so the refresh is skipped outright: the per-worker
// queries, and a dim-wide x1 renormalise of the shared momentum buffer.
func (e *Engine) beginRound(round int) {
	if !e.cfg.Faults.Enabled() {
		return
	}
	e.fltNActive = e.cfg.Faults.ActiveInto(round, e.fltActive)
	e.com.SetActive(e.fltActive)
	for i := range e.fltScale {
		e.fltScale[i] = e.cfg.Faults.TransferScale(e.cfg.Seed, round, i)
		e.reconBytes[i] = 0
	}
	if e.gmom != nil {
		// Shared global-momentum buffer under churn: the buffer is a running
		// sum of displacement contributions from the previous round's active
		// set, so when workers drop out it renormalizes by the surviving
		// fraction |A_t ∩ A_{t-1}| / |A_{t-1}|. Unchanged membership and
		// pure-rejoin rounds give factor 1 (a bitwise no-op); crash rounds
		// shrink the buffer so departed workers' stale contributions do not
		// keep steering the global model.
		inter, prev := 0, 0
		for i, was := range e.gmomPrev {
			if was {
				prev++
				if e.fltActive[i] {
					inter++
				}
			}
		}
		if prev > 0 {
			e.gmom.Renormalize(float64(inter) / float64(prev))
		}
		copy(e.gmomPrev, e.fltActive)
	}
	for i := range e.workers {
		if e.fltActive[i] && e.cfg.Faults.Rejoins(i, round) {
			e.reconcile(i)
		}
	}
}

// reconcile brings a rejoining worker back into the cluster: it snaps its
// replica to the global reference exactly and charges this round's transfer
// schedule (via reconBytes) the dense float64 wire size of the pulled vector
// — the parameter server's exact-pull rule: a pull is priced, never built.
// The pull covers the full extended vector when synced optimizer state is
// wire-visible, so a rejoined worker's Adam second moment matches a
// never-crashed worker's bit for bit: both end the round with params ==
// global, first moment zeroed by the sync reset, second moment == the synced
// reference, and the bias-correction clock re-aligned to the engine's step
// count. Per-node global-momentum buffers restart from zero (the node's
// displacement history died with it), and under gossip the worker's CHOCO
// estimate and projection re-pin to the pulled vector so its next wire
// message is a delta from shared state, not from a pre-crash ghost.
func (e *Engine) reconcile(i int) {
	w := e.workers[i]
	e.reconBytes[i] = 8 * e.xdim
	copy(w.ext, e.extGlobal)
	w.opt.SyncReset()
	if e.cfg.Opt.Adaptive() {
		w.opt.AlignSteps(e.optSteps)
	}
	if e.gmoms != nil {
		e.gmoms[i].Reset()
	}
	if e.gossip != nil {
		copy(e.gossip.hat[i], e.extGlobal)
		copy(e.gossip.proj[i], e.extGlobal)
	}
}

// activeGossipGraph returns the mixing graph for the synchronization being
// executed: the sequence's graph itself when every worker is up (the legacy
// arithmetic, bit for bit), or the induced subgraph over the active set —
// down nodes isolated, Metropolis weights and spectral gap re-derived
// (graph.Subgraph) — when membership shrank. The subgraph is cached on
// (sequence index, active set) so steady churn rebuilds nothing. The
// published adjacency (per-edge delay pricing) always matches the graph
// actually mixed on.
func (e *Engine) activeGossipGraph() *graph.Graph {
	g, idx := e.nextGossipGraph()
	if e.fltNActive == e.m {
		return g
	}
	if idx != e.subForIdx || !slices.Equal(e.subActive, e.fltActive) {
		e.subGraph = g.Subgraph(e.fltActive)
		e.subForIdx = idx
		copy(e.subActive, e.fltActive)
	}
	e.activeAdj = e.subGraph.Adjacency()
	return e.subGraph
}
