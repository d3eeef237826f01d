package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/faults"
)

// TestChurnAblation is the acceptance pin for the fault subsystem: under 20%
// mid-run crash-recover churn plus drops, every strategy (barrier, gossip,
// elastic, event-driven, parameter server) completes its budget with a finite
// loss and a defined time-to-target — no deadlocks, no stalls on the
// departed. Paired fault-free rows bound the degradation.
func TestChurnAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("churn ablation runs every strategy twice")
	}
	sched, err := faults.Parse(churnFaults)
	if err != nil {
		t.Fatal(err)
	}
	target, rows := churnAblation(ScaleQuick, sched)
	if !(target > 0) {
		t.Fatalf("target %v", target)
	}
	if len(rows) != 14 {
		t.Fatalf("%d rows, want 14 (7 methods x clean/churn)", len(rows))
	}
	const budget = 240 // ScaleQuick's
	byName := map[string]linkAwareRow{}
	for _, r := range rows {
		if math.IsNaN(r.FinalLoss) || math.IsInf(r.FinalLoss, 0) {
			t.Errorf("%s: final loss %v", r.Method, r.FinalLoss)
		}
		if math.IsNaN(r.TimeToTarget) || r.TimeToTarget < 0 {
			t.Errorf("%s: time-to-target %v undefined", r.Method, r.TimeToTarget)
		}
		byName[r.Method] = r
	}
	// Every churned method has its clean twin, and churn can only slow the
	// march to target, never corrupt it: the churned row still reaches the
	// shared loss level within the budget.
	for name, r := range byName {
		if strings.HasSuffix(name, "+churn") {
			if _, ok := byName[strings.TrimSuffix(name, "+churn")]; !ok {
				t.Errorf("%s has no fault-free twin", name)
			}
			if r.TimeToTarget > budget {
				t.Errorf("%s: time-to-target %v exceeds budget %v", name, r.TimeToTarget, budget)
			}
		}
	}
}

// A -faults schedule the churn cluster cannot run — malformed, or naming a
// worker it does not have — is refused before anything prints, by Run as by
// Validate: the driver itself only ever sees a parsed, range-checked one.
func TestChurnAblationRejectsBadSpec(t *testing.T) {
	churn, err := SelectAblations("churn")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"crash:bogus", "crash:10@r1", "blip:0@r3-2"} {
		o := AblationOptions{Scale: ScaleQuick, Faults: spec}
		if err := o.Validate(churn); err == nil {
			t.Errorf("Validate accepted -faults %s", spec)
		}
		var out bytes.Buffer
		if err := churn[0].Run(&out, o); err == nil || out.Len() != 0 {
			t.Errorf("Run with -faults %s: error %v, %d bytes printed", spec, err, out.Len())
		}
	}
}
