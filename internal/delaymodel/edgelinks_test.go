package delaymodel

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestEdgeScheduleNilFallsBackBitIdentical is the per-edge fallback
// contract: with EdgeLinks == nil, SampleDEdgeScheduleInto must reproduce
// SampleDScheduleInto exactly — same value, same RNG consumption, same
// recorded per-worker times — on every mixing topology and on the
// collective hop multipliers, with and without per-worker Links.
func TestEdgeScheduleNilFallsBackBitIdentical(t *testing.T) {
	const m = 16
	graphs := map[string][][]int{
		"nil-adj":  nil,
		"ring":     graph.Ring(m).Adjacency(),
		"torus":    graph.Torus(4, 4).Adjacency(),
		"star":     graph.Star(m).Adjacency(),
		"complete": graph.Complete(m).Adjacency(),
		"expander": graph.Expander(m).Adjacency(),
	}
	links := make([]Link, m)
	links[3] = Link{Latency: 2, Bandwidth: 64}
	bytes := make([]int, m)
	for i := range bytes {
		bytes[i] = 128 * (i + 1)
	}
	for _, withLinks := range []bool{false, true} {
		dm := New(m, rng.Constant{Value: 1}, rng.Exponential{MeanVal: 0.5}, ConstantScaling{})
		dm.Bandwidth = 512
		if withLinks {
			dm.Links = links
		}
		for name, adj := range graphs {
			for _, mult := range []struct{ hops, bf float64 }{{1, 1}, {14, 1.75}, {2, 2}} {
				ra, rb := rng.New(99), rng.New(99)
				ta, tb := make([]float64, m), make([]float64, m)
				want := dm.SampleDScheduleInto(ra, bytes, mult.hops, mult.bf, ta)
				got := dm.SampleDEdgeScheduleInto(rb, bytes, adj, mult.hops, mult.bf, tb)
				if got != want {
					t.Fatalf("%s links=%v hops=%g: edge path %v != per-worker %v", name, withLinks, mult.hops, got, want)
				}
				for i := range ta {
					if ta[i] != tb[i] {
						t.Fatalf("%s links=%v: times[%d] %v != %v", name, withLinks, i, tb[i], ta[i])
					}
				}
				// RNG streams stayed in lockstep (one D0 draw each).
				if ra.Uint64() != rb.Uint64() {
					t.Fatalf("%s links=%v: RNG consumption diverged", name, withLinks)
				}
			}
		}
	}
}

// TestEdgeScheduleSlowestActiveEdgeGates pins the tentpole semantics: a
// slow edge gates rounds on graphs that activate it and costs nothing on
// graphs that route around it.
func TestEdgeScheduleSlowestActiveEdgeGates(t *testing.T) {
	const m = 16
	dm := New(m, rng.Constant{Value: 1}, rng.Constant{Value: 1}, ConstantScaling{})
	dm.EdgeLinks = map[Edge]Link{
		{From: 3, To: 4}: {Latency: 10},
		{From: 4, To: 3}: {Latency: 10},
	}
	if err := dm.Check(); err != nil {
		t.Fatal(err)
	}
	bytes := make([]int, m)
	times := make([]float64, m)

	// Ring 3-4 is an active edge: the round pays D0 + 10.
	ring := graph.Ring(m).Adjacency()
	if got := dm.SampleDEdgeScheduleInto(rng.New(1), bytes, ring, 1, 1, times); got != 11 {
		t.Fatalf("ring round %v, want 11", got)
	}
	if times[3] != 10 || times[4] != 10 || times[0] != 0 {
		t.Fatalf("ring per-worker times %v", times)
	}

	// The 4x4 torus does not contain edge (3,4) — node 3 = (0,3) and node
	// 4 = (1,0) are not grid neighbors — so the same table costs nothing.
	torus := graph.Torus(4, 4).Adjacency()
	for _, nb := range torus[3] {
		if nb == 4 {
			t.Fatal("test premise broken: torus contains edge (3,4)")
		}
	}
	if got := dm.SampleDEdgeScheduleInto(rng.New(1), bytes, torus, 1, 1, times); got != 1 {
		t.Fatalf("torus round %v, want 1 (slow edge inactive)", got)
	}

	// The complete graph contains every edge, so it is gated like the ring.
	if got := dm.SampleDEdgeScheduleInto(rng.New(1), bytes, graph.Complete(m).Adjacency(), 1, 1, times); got != 11 {
		t.Fatalf("complete round %v, want 11", got)
	}
}

// TestEdgeScheduleBandwidthFallbackChain: an edge entry's zero bandwidth
// inherits the sender's worker link, then the shared bandwidth; an edge
// entry's bandwidth overrides both.
func TestEdgeScheduleBandwidthFallbackChain(t *testing.T) {
	const m = 2
	adj := graph.Ring(m).Adjacency()
	bytes := []int{800, 0}
	dm := New(m, rng.Constant{Value: 1}, rng.Constant{Value: 0}, ConstantScaling{})
	dm.Bandwidth = 400
	dm.EdgeLinks = map[Edge]Link{{From: 0, To: 1}: {}}
	// Transparent edge entry: bytes priced on the shared bandwidth.
	if got := dm.SampleDEdgeScheduleInto(rng.New(1), bytes, adj, 1, 1, nil); got != 2 {
		t.Fatalf("shared-bandwidth fallback %v, want 2", got)
	}
	// Worker link takes precedence over the shared bandwidth.
	dm.Links = []Link{{Bandwidth: 100}, {}}
	if got := dm.SampleDEdgeScheduleInto(rng.New(1), bytes, adj, 1, 1, nil); got != 8 {
		t.Fatalf("worker-link fallback %v, want 8", got)
	}
	// An explicit edge bandwidth overrides the worker link.
	dm.EdgeLinks[Edge{From: 0, To: 1}] = Link{Bandwidth: 200}
	if got := dm.SampleDEdgeScheduleInto(rng.New(1), bytes, adj, 1, 1, nil); got != 4 {
		t.Fatalf("edge bandwidth override %v, want 4", got)
	}
}

func TestCheckEdgeLinksRejectsDegenerateEntries(t *testing.T) {
	cases := []struct {
		name  string
		edges map[Edge]Link
	}{
		{"nan latency", map[Edge]Link{{From: 0, To: 1}: {Latency: math.NaN()}}},
		{"inf latency", map[Edge]Link{{From: 0, To: 1}: {Latency: math.Inf(1)}}},
		{"negative latency", map[Edge]Link{{From: 0, To: 1}: {Latency: -1}}},
		{"nan bandwidth", map[Edge]Link{{From: 0, To: 1}: {Bandwidth: math.NaN()}}},
		{"negative bandwidth", map[Edge]Link{{From: 0, To: 1}: {Bandwidth: -5}}},
		{"self-loop", map[Edge]Link{{From: 1, To: 1}: {}}},
		{"out of range", map[Edge]Link{{From: 0, To: 4}: {}}},
		{"negative node", map[Edge]Link{{From: -1, To: 0}: {}}},
	}
	for _, tc := range cases {
		dm := New(4, rng.Constant{Value: 1}, rng.Constant{Value: 1}, ConstantScaling{})
		dm.EdgeLinks = tc.edges
		if err := dm.Check(); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
	dm := New(4, rng.Constant{Value: 1}, rng.Constant{Value: 1}, ConstantScaling{})
	if err := dm.Check(); err != nil {
		t.Fatalf("nil table rejected: %v", err)
	}
	dm.EdgeLinks = map[Edge]Link{{From: 0, To: 2}: {Latency: 1, Bandwidth: 64}}
	if err := dm.Check(); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
}

func TestParseEdgeLinks(t *testing.T) {
	table, err := ParseEdgeLinks("3-4:10:,0-2::64", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 4 {
		t.Fatalf("got %d directed entries, want 4", len(table))
	}
	// One entry prices both directions.
	if l := table[Edge{From: 3, To: 4}]; l.Latency != 10 || l.Bandwidth != 0 {
		t.Fatalf("edge 3-4 %+v", l)
	}
	if l := table[Edge{From: 4, To: 3}]; l.Latency != 10 {
		t.Fatalf("edge 4-3 %+v", l)
	}
	if l := table[Edge{From: 2, To: 0}]; l.Bandwidth != 64 {
		t.Fatalf("edge 2-0 %+v", l)
	}
	if nilTable, err := ParseEdgeLinks("", 8); err != nil || nilTable != nil {
		t.Fatalf("empty spec: %v %v", nilTable, err)
	}
	bad := []string{
		"3-4",             // no link parts
		"3-4:10",          // missing bandwidth part
		"3:10:",           // no node pair
		"a-b:10:",         // non-numeric nodes
		"3-9:10:",         // node out of range
		"3-3:10:",         // self-loop
		"3-4:-1:",         // negative latency
		"3-4::0",          // explicit zero bandwidth
		"3-4::nan",        // NaN bandwidth
		"3-4:10:,4-3:10:", // duplicate pair (reverse direction)
		"3-4:10:,3-4:5:",  // duplicate pair
	}
	for _, s := range bad {
		if _, err := ParseEdgeLinks(s, 8); err == nil {
			t.Fatalf("ParseEdgeLinks(%q) accepted", s)
		}
	}
}
