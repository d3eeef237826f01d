package delaymodel

import (
	"testing"

	"repro/internal/rng"
)

func TestSampleDScheduleFaultyNilMasksDelegate(t *testing.T) {
	links := []Link{{Latency: 0.1, Bandwidth: 1e6}, {Latency: 0.3, Bandwidth: 2e6}, {Latency: 0.2, Bandwidth: 5e5}}
	dm := &Model{M: 3, D0: rng.Constant{Value: 0.5}, Scale: ConstantScaling{}, Links: links}
	bytes := []int{800, 1600, 2400}
	legacy := make([]float64, 3)
	faulty := make([]float64, 3)

	want := dm.SampleDScheduleInto(rng.New(1), bytes, 1, 1, legacy)
	got := dm.SampleDRound(rng.New(1), bytes, nil, 1, 1, nil, nil, faulty)
	if got != want {
		t.Fatalf("nil/nil delegation: %v != %v", got, want)
	}
	for i := range legacy {
		if faulty[i] != legacy[i] {
			t.Fatalf("times[%d]: %v != %v", i, faulty[i], legacy[i])
		}
	}

	// All-up masks with unit scales reproduce the legacy schedule exactly.
	got = dm.SampleDRound(rng.New(1), bytes, nil, 1, 1,
		[]bool{true, true, true}, []float64{1, 1, 1}, faulty)
	if got != want {
		t.Fatalf("all-up masks: %v != %v", got, want)
	}
}

func TestSampleDScheduleFaultyExcludesDownAndScales(t *testing.T) {
	links := []Link{{Latency: 0.1, Bandwidth: 1000}, {Latency: 10, Bandwidth: 1000}, {Latency: 0.1, Bandwidth: 1000}}
	dm := &Model{M: 3, D0: rng.Constant{Value: 0}, Scale: ConstantScaling{}, Links: links}
	bytes := []int{1000, 1000, 1000}
	times := make([]float64, 3)

	// Worker 1 owns the slow link; taking it down hands the round to the
	// survivors and zeroes its schedule entry.
	d := dm.SampleDRound(rng.New(1), bytes, nil, 1, 1,
		[]bool{true, false, true}, nil, times)
	if times[1] != 0 {
		t.Fatalf("down worker time %v, want 0", times[1])
	}
	want := 0.1 + 1.0 // latency + 1000B/1000Bps on the surviving links
	if d != want {
		t.Fatalf("survivor-gated round %v, want %v", d, want)
	}

	// A 3x slow-down episode on worker 0 triples its transfer time.
	d = dm.SampleDRound(rng.New(1), bytes, nil, 1, 1,
		[]bool{true, false, true}, []float64{3, 1, 1}, times)
	if times[0] != 3*want {
		t.Fatalf("scaled time %v, want %v", times[0], 3*want)
	}
	if d != 3*want {
		t.Fatalf("scaled round %v, want %v", d, 3*want)
	}
}

func TestSampleDEdgeScheduleFaultyDeactivatesEdgesOfDownNodes(t *testing.T) {
	dm := &Model{
		M: 3, D0: rng.Constant{Value: 0}, Scale: ConstantScaling{},
		EdgeLinks: map[Edge]Link{
			{From: 0, To: 1}: {Latency: 5},
			{From: 1, To: 0}: {Latency: 5},
			{From: 0, To: 2}: {Latency: 1},
			{From: 2, To: 0}: {Latency: 1},
		},
	}
	adj := [][]int{{1, 2}, {0}, {0}}
	bytes := []int{100, 100, 100}
	times := make([]float64, 3)

	// With everyone up the slow 0<->1 edge gates the round.
	d := dm.SampleDRound(rng.New(1), bytes, adj, 1, 1,
		[]bool{true, true, true}, nil, times)
	if d != 5 {
		t.Fatalf("all-up edge round %v, want 5", d)
	}
	// Node 1 down: every edge touching it deactivates, the 0<->2 edge
	// gates, and node 1's entry zeroes.
	d = dm.SampleDRound(rng.New(1), bytes, adj, 1, 1,
		[]bool{true, false, true}, nil, times)
	if d != 1 || times[1] != 0 {
		t.Fatalf("down-endpoint round %v times %v, want 1 / times[1]=0", d, times)
	}
}

func TestScheduleWidthPanics(t *testing.T) {
	dm := &Model{M: 3, D0: rng.Constant{Value: 0}, Scale: ConstantScaling{},
		Links: []Link{{Latency: 1}}}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("short Links accepted by SampleDScheduleInto")
			}
		}()
		dm.SampleDScheduleInto(rng.New(1), []int{1, 1, 1}, 1, 1, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range worker accepted by SampleTransfer")
			}
		}()
		dm.SampleTransfer(rng.New(1), 2, 100)
	}()
	dmE := &Model{M: 3, D0: rng.Constant{Value: 0}, Scale: ConstantScaling{},
		EdgeLinks: map[Edge]Link{{From: 0, To: 1}: {Latency: 1}, {From: 1, To: 0}: {Latency: 1}}}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("short adjacency accepted by SampleDEdgeScheduleInto")
			}
		}()
		dmE.SampleDEdgeScheduleInto(rng.New(1), []int{1, 1, 1}, [][]int{{1}, {0}}, 1, 1, nil)
	}()
}
