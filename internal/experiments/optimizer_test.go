package experiments

import (
	"math"
	"testing"
)

// TestOptimizerAblationQuick is the optimizer layer's acceptance anchor: at
// quick scale with the default seed, every rule finishes the budget with a
// finite loss, the wire-visible-state row (synced Adam moments through
// compressed CHOCO gossip + float32 wire) runs end to end, and the
// momentum/slowmo rows reach the shared target loss no later than plain SGD
// — the classical acceleration, surviving the distributed barrier.
func TestOptimizerAblationQuick(t *testing.T) {
	target, rows := optimizerAblation(ScaleQuick, 0, 0)
	if !(target > 0) || math.IsInf(target, 0) {
		t.Fatalf("degenerate shared target %v", target)
	}
	byName := map[string]linkAwareRow{}
	for _, r := range rows {
		if math.IsNaN(r.FinalLoss) || math.IsInf(r.FinalLoss, 0) {
			t.Fatalf("method %s final loss %v", r.Method, r.FinalLoss)
		}
		if math.IsNaN(r.TimeToTarget) {
			t.Fatalf("method %s never reached the shared target", r.Method)
		}
		byName[r.Method] = r
	}
	for _, name := range []string{"sgd", "momentum", "nesterov", "adam",
		"adam+synced choco", "slowmo", "qsgd norm-bits"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("missing ablation row %q", name)
		}
	}
	sgdRow := byName["sgd"]
	for _, name := range []string{"momentum", "slowmo"} {
		if r := byName[name]; r.TimeToTarget > sgdRow.TimeToTarget {
			t.Fatalf("%s reached the target at t=%.1f, later than plain SGD's t=%.1f",
				name, r.TimeToTarget, sgdRow.TimeToTarget)
		}
	}
}
