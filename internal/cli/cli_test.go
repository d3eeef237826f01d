package cli

import (
	"math"
	"testing"

	"repro/internal/experiments"
)

func TestChecks(t *testing.T) {
	if Scale(true) != experiments.ScaleQuick || Scale(false) != experiments.ScaleFull {
		t.Error("Scale does not map -quick")
	}
	for _, v := range []float64{0, 0.5, 1e-9, 0.999} {
		if err := OpenUnit("-x", v); err != nil {
			t.Errorf("OpenUnit(%v): %v", v, err)
		}
	}
	for _, v := range []float64{1, -0.1, 7, math.NaN(), math.Inf(1)} {
		if err := OpenUnit("-x", v); err == nil {
			t.Errorf("OpenUnit(%v) accepted", v)
		}
	}

	defer experiments.SetWorkers(experiments.Workers())
	if PoolWorkers(-3) == nil {
		t.Error("PoolWorkers accepted a negative width")
	}
	experiments.SetWorkers(5)
	if err := PoolWorkers(0); err != nil || experiments.Workers() != 5 {
		t.Errorf("PoolWorkers(0) must keep the default: %v, width %d", err, experiments.Workers())
	}
	if err := PoolWorkers(2); err != nil || experiments.Workers() != 2 {
		t.Errorf("PoolWorkers(2): %v, width %d", err, experiments.Workers())
	}
}
