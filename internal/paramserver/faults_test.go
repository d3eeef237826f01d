package paramserver

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/faults"
)

func mustFaults(t *testing.T, spec string) *faults.Schedule {
	t.Helper()
	s, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// faultFreeSchedules are the three ways to attach no fault: no schedule, an
// empty one, and one whose every event lies beyond any test's horizon.
func faultFreeSchedules(t *testing.T) []namedSchedule {
	return []namedSchedule{
		{"nil", nil},
		{"empty", mustFaults(t, "  ")},
		{"beyond", mustFaults(t, "crash:0@r100000,slow:1x4@r100000-100010,drop:0")},
	}
}

type namedSchedule struct {
	name  string
	sched *faults.Schedule
}

func psHashParams(p []float64) uint64 {
	const prime64 = 1099511628211
	var sum uint64 = 14695981039346656037
	for _, v := range p {
		u := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			sum ^= uint64(byte(u >> (8 * i)))
			sum *= prime64
		}
	}
	return sum
}

// TestPSFaultFreeScheduleBitIdentical: attaching a schedule whose first
// event lies beyond the run's horizon leaves the server's trajectory
// bit-identical — the fault machinery consumes no RNG.
func TestPSFaultFreeScheduleBitIdentical(t *testing.T) {
	for _, mode := range []Mode{KSync, KAsync} {
		run := func(f *faults.Schedule) uint64 {
			proto, shards, train := psSetup(t, 4)
			cfg := psConfig(mode)
			cfg.Faults = f
			s, err := New(proto, shards, train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Run(FixedK{K: 2, LR: 0.1}, "ps")
			return psHashParams(s.Params())
		}
		if run(nil) != run(mustFaults(t, "crash:0@r100000,drop:0")) {
			t.Fatalf("%s: beyond-horizon schedule diverged", mode)
		}
	}
}

// TestPSChurnCompletes: both server modes survive crash-recover churn plus
// slow-down and drops with a finite loss and applied updates.
func TestPSChurnCompletes(t *testing.T) {
	for _, mode := range []Mode{KSync, KAsync} {
		proto, shards, train := psSetup(t, 5)
		cfg := psConfig(mode)
		cfg.MaxUpdates = 120
		cfg.Faults = mustFaults(t, "blip:0@r10-40,blip:1@r30-60,crash:2@r80,slow:3x4@r20-70,drop:0.1")
		s, err := New(proto, shards, train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		trace, _ := s.Run(FixedK{K: 3, LR: 0.1}, "ps-churn")
		if loss := trace.FinalLoss(); math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("%s: final loss %v under churn", mode, loss)
		}
		if s.Version() == 0 {
			t.Fatalf("%s: no updates applied under churn", mode)
		}
	}
}

// TestPSAllDownTerminates: when every worker crashes, the event queue
// drains and Run returns cleanly instead of spinning.
func TestPSAllDownTerminates(t *testing.T) {
	for _, mode := range []Mode{KSync, KAsync} {
		proto, shards, train := psSetup(t, 3)
		cfg := psConfig(mode)
		cfg.MaxUpdates = 1000
		cfg.Faults = mustFaults(t, "crash:0@r5,crash:1@r5,crash:2@r5")
		s, err := New(proto, shards, train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		trace, _ := s.Run(FixedK{K: 2, LR: 0.1}, "ps-all-down")
		if trace.Len() == 0 {
			t.Fatalf("%s: no trace", mode)
		}
		if s.Version() >= 1000 {
			t.Fatalf("%s: did not stop at the crash wall", mode)
		}
	}
}

func TestPSFaultsValidatedAtConstruction(t *testing.T) {
	proto, shards, train := psSetup(t, 3)
	cfg := psConfig(KSync)
	cfg.Faults = mustFaults(t, "crash:5@r1")
	if _, err := New(proto, shards, train, cfg); err == nil {
		t.Fatal("accepted out-of-range fault worker")
	}
}

// TestServerLeavesDatasetsUntouched: the server's evaluation batch is a view
// of the training set (data.FullBatch; no EvalSubset here, so it is the set
// the shards were cut from), so a K-async run under churn may write none of
// it.
func TestServerLeavesDatasetsUntouched(t *testing.T) {
	proto, shards, train := psSetup(t, 5)
	hash := func() uint64 {
		var sum uint64
		for _, ds := range append([]*data.Dataset{train}, shards...) {
			sum ^= psHashParams(ds.X.Data)
			for _, y := range ds.Y {
				sum = sum*1099511628211 + uint64(y)
			}
		}
		return sum
	}
	before := hash()
	cfg := psConfig(KAsync)
	cfg.MaxUpdates, cfg.EvalSubset = 120, 0
	cfg.Faults = mustFaults(t, "blip:0@r5-20,crash:2@r25,slow:3x5@r5-40,drop:0.15")
	s, err := New(proto, shards, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(FixedK{K: 2, LR: 0.1}, "ps")
	if after := hash(); after != before {
		t.Fatalf("the run wrote to a dataset: hash %#x before, %#x after", before, after)
	}
}
