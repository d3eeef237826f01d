package experiments

import (
	"strings"
	"testing"
)

// TestAsyncAblation is the acceptance check for the event-driven engine's
// headline claim: under a 10x compute straggler, K-of-m partial
// participation reaches the shared target loss in less simulated wall-clock
// than the full-barrier sync run.
func TestAsyncAblation(t *testing.T) {
	target, rows := asyncAblation(ScaleQuick)
	if target <= 0 {
		t.Fatalf("degenerate target %v", target)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	byName := map[string]linkAwareRow{}
	for _, r := range rows {
		if r.MinLoss > target {
			t.Errorf("%s never reached the shared target %v (min %v)", r.Method, target, r.MinLoss)
		}
		if r.TimeToTarget <= 0 {
			t.Errorf("%s has no time-to-target", r.Method)
		}
		byName[r.Method] = r
	}
	sync, ok := byName["sync tau=4"]
	if !ok {
		t.Fatalf("missing sync row in %v", rows)
	}
	var partial linkAwareRow
	found := false
	for name, r := range byName {
		if strings.HasPrefix(name, "async K=6") {
			partial, found = r, true
		}
	}
	if !found {
		t.Fatalf("missing partial-participation row in %v", rows)
	}
	if partial.TimeToTarget >= sync.TimeToTarget {
		t.Fatalf("K-of-m (t=%v) did not beat the full barrier (t=%v) under the 10x straggler",
			partial.TimeToTarget, sync.TimeToTarget)
	}
}

// TestAsyncAblationDeterministic guards the grid-parallel fan-out: the
// rows must be identical however the pool schedules the methods.
func TestAsyncAblationDeterministic(t *testing.T) {
	t1, r1 := asyncAblation(ScaleQuick)
	t2, r2 := asyncAblation(ScaleQuick)
	if t1 != t2 {
		t.Fatalf("targets differ: %v vs %v", t1, t2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("row counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}
