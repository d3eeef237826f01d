package main

import (
	"fmt"
	"os"

	"repro/internal/metrics"
)

// tracedPass produces every per-layer metric for one workload, outside in:
// replay spans around the lock-step cells' public calls, engine statistics
// read after Run, and unit probes multiplied by the cells' call counts. A
// metric the workload does not exercise reads 0. The second result counts
// replays whose parameters did not hash equal to the run's.
func tracedPass(w *workload, m measured, sz sizes, tr *tracer) (map[string]float64, int) {
	out := map[string]float64{}
	for _, lm := range perLayerSpec {
		out[lm.Name] = 0
	}
	last := m.last()
	wall := m.endToEnd()["wall_s"]
	from := len(tr.spans)

	// Replay every cell the manual drivers can reproduce.
	lockWall, replayedWall, unreplayed, mismatches := 0.0, 0.0, 0.0, 0
	for _, c := range m.cells {
		o, ok := last.byCell(c.name)
		if !ok || o.rec == nil {
			continue
		}
		lockWall += last.cellWall[c.name]
		out["cluster.rounds"] += float64(len(o.rec.rounds))
		out["cluster.local_steps"] += float64(o.rec.steps())
		out["core.controller_calls"] += float64(len(o.rec.rounds))
		out["core.controller_s"] += o.rec.ctrl.Seconds()
		if c.replay == nil {
			unreplayed += last.cellWall[c.name]
			continue
		}
		root := tr.begin("replay", c.name, 0)
		hash, err := c.replay(o, tr, root)
		tr.end(root)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "benchmark: %s/%s replay: %v\n", w.name, c.name, err)
			mismatches++
		case hash != o.hash:
			fmt.Fprintf(os.Stderr, "benchmark: %s/%s replay ended at %016x, the run at %016x\n",
				w.name, c.name, hash, o.hash)
			mismatches++
		default:
			out["cluster.replay_parity"]++
		}
		// The controller ran during Run but not during the replay.
		replayedWall += last.cellWall[c.name] - o.rec.ctrl.Seconds()
	}
	local := tr.total("cluster.local_update", from)
	sync := tr.total("cluster.sync", from)
	eval := tr.total("cluster.eval", from)
	out["cluster.local_update_s"] = local
	out["cluster.sync_s"] = sync
	out["cluster.eval_s"] = eval
	out["cluster.unreplayed_round_s"] = unreplayed
	if lockWall > 0 {
		out["cluster.other_s"] = lockWall - local - sync - eval - unreplayed - out["core.controller_s"]
	}
	if replayedWall > 0 {
		out["bench.trace_overhead_pct"] = 100 * (local + sync + eval - replayedWall) / replayedWall
	}

	// Engine statistics, then what only this workload can derive from them.
	for _, o := range last.outs {
		for k, v := range o.layer {
			out[k] = v
		}
	}
	out["par.pool_width"] = 1
	if w.derive != nil {
		w.derive(m, out)
	}

	// The simulated side of the headline cell, recorded rather than bounded.
	if h, ok := last.byCell(w.headline); ok {
		target := w.targetLoss(sz, h.trace)
		out["metrics.time_to_target_s"] = h.trace.TimeToLoss(target)
		out["metrics.final_loss"] = h.trace.FinalLoss()
		out["metrics.target_loss"] = target
		out["core.adacomm_tau_changes"], out["core.adacomm_final_tau"] = tauSchedule(h.trace)
		if h.rec != nil {
			out["cluster.sim_comm_share"] = h.rec.commShare
		}
	}
	if b, ok := last.byCell(w.baseline); ok {
		out["metrics.baseline_final_loss"] = b.trace.FinalLoss()
	}

	// Unit probes, then each layer's estimated share of this workload's wall.
	if tr.probes == nil {
		tr.probes = runProbes(sz)
	}
	for k, v := range tr.probes {
		out[k] = v
	}
	for _, o := range last.outs {
		for _, c := range o.costs {
			out[c.share] += out[c.probe] * 1e-6 * float64(c.calls) / last.wallS
		}
	}

	out["bench.repeat_spread_pct"] = 100 * (wall.Max - wall.Min) / wall.Value
	return out, mismatches
}

// tauSchedule reads the period schedule off a trace: how often tau changed
// between recorded points, and the last period in effect.
func tauSchedule(tr *metrics.Trace) (changes, final float64) {
	prev := 0
	for _, p := range tr.Points {
		if p.Tau == 0 {
			continue
		}
		if prev != 0 && p.Tau != prev {
			changes++
		}
		prev = p.Tau
	}
	return changes, float64(prev)
}
