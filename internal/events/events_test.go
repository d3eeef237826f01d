package events

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

func drain(q *Queue) []Event {
	var out []Event
	for {
		e, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func TestPopOrderedByTime(t *testing.T) {
	q := NewQueue(1)
	times := []float64{5, 1, 3, 2, 4, 0, 2.5}
	for i, tm := range times {
		q.Push(Event{Time: tm, Worker: i, Kind: Arrival})
	}
	got := drain(q)
	if len(got) != len(times) {
		t.Fatalf("popped %d events, want %d", len(got), len(times))
	}
	want := append([]float64(nil), times...)
	sort.Float64s(want)
	for i, e := range got {
		if e.Time != want[i] {
			t.Fatalf("pop %d: time %v, want %v", i, e.Time, want[i])
		}
	}
}

func TestTieBreakIsSeededNotIndexOrder(t *testing.T) {
	// All events at the same time: pop order must be a seeded shuffle, not
	// worker-index order (a degenerate order would bias every K-of-m
	// aggregation toward low worker ids on homogeneous links).
	const n = 64
	pops := func(seed uint64) []int {
		q := NewQueue(seed)
		for i := 0; i < n; i++ {
			q.Push(Event{Time: 1, Worker: i, Kind: Arrival})
		}
		var order []int
		for _, e := range drain(q) {
			order = append(order, e.Worker)
		}
		return order
	}
	a, b, a2 := pops(7), pops(8), pops(7)
	inIndexOrder := true
	for i := range a {
		if a[i] != i {
			inIndexOrder = false
		}
		if a[i] != a2[i] {
			t.Fatalf("same seed diverged at pop %d: %d vs %d", i, a[i], a2[i])
		}
	}
	if inIndexOrder {
		t.Fatalf("seed 7 tie-break degenerated to index order")
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("seeds 7 and 8 produced identical tie-break orders")
	}
}

func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func() []Event {
		q := NewQueue(42)
		src := rand.New(rand.NewSource(99))
		for i := 0; i < 500; i++ {
			q.Push(Event{
				Time:   math.Floor(src.Float64()*10) / 2, // many exact ties
				Worker: i % 17,
				Kind:   Kind(i % 2),
			})
		}
		return drain(q)
	}
	old := runtime.GOMAXPROCS(1)
	a := run()
	runtime.GOMAXPROCS(8)
	b := run()
	runtime.GOMAXPROCS(old)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pop %d differs across GOMAXPROCS: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestInterleavedPushPop(t *testing.T) {
	// Heap stays ordered under interleaving: pop mid-stream never returns
	// an event later than a queued earlier one.
	q := NewQueue(3)
	q.Push(Event{Time: 10, Worker: 0})
	q.Push(Event{Time: 5, Worker: 1})
	if e, _ := q.Pop(); e.Worker != 1 {
		t.Fatalf("expected worker 1 first, got %d", e.Worker)
	}
	q.Push(Event{Time: 1, Worker: 2})
	q.Push(Event{Time: 20, Worker: 3})
	if e, _ := q.Pop(); e.Worker != 2 {
		t.Fatalf("expected worker 2, got %d", e.Worker)
	}
	if e, _ := q.Pop(); e.Worker != 0 {
		t.Fatalf("expected worker 0, got %d", e.Worker)
	}
	if e, _ := q.Pop(); e.Worker != 3 {
		t.Fatalf("expected worker 3, got %d", e.Worker)
	}
	if _, ok := q.Pop(); ok {
		t.Fatalf("queue should be empty")
	}
}

func TestResetEmptiesQueueAndKeepsTieBreakStream(t *testing.T) {
	// tied pushes 32 same-time events and returns the order they pop in.
	tied := func(q *Queue, pop bool) (order []int) {
		for i := 0; i < 32; i++ {
			q.Push(Event{Time: 1, Worker: i, Kind: Arrival})
		}
		if !pop {
			return nil
		}
		for _, e := range drain(q) {
			order = append(order, e.Worker)
		}
		return order
	}
	// Reference: two tied batches drained back to back on one queue.
	ref := NewQueue(5)
	first, second := tied(ref, true), tied(ref, true)

	// Same pushes, but the first batch is Reset away instead of popped: the
	// second must pop exactly as on the reference queue (the stream kept
	// running), which is not the first batch's order (it was not rewound).
	q := NewQueue(5)
	tied(q, false)
	q.Reset()
	if _, ok := q.Pop(); ok || q.Len() != 0 {
		t.Fatalf("queue not empty after Reset (Len %d)", q.Len())
	}
	got := tied(q, true)
	rewound := true
	for i := range got {
		if got[i] != second[i] {
			t.Fatalf("pop %d after Reset: worker %d, want %d", i, got[i], second[i])
		}
		rewound = rewound && got[i] == first[i]
	}
	if rewound {
		t.Fatal("Reset rewound the tie-break stream")
	}
	// Time still dominates the ordering after a Reset.
	for i, tm := range []float64{3, 1, 2} {
		q.Push(Event{Time: tm, Worker: i})
	}
	if evs := drain(q); evs[0].Worker != 1 || evs[1].Worker != 2 || evs[2].Worker != 0 {
		t.Fatalf("post-Reset time order %v, want workers 1 2 0", evs)
	}
}

func TestPushRejectsDegenerateTimes(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Push accepted time %v", bad)
				}
			}()
			NewQueue(1).Push(Event{Time: bad})
		}()
	}
}

func TestClocksForwardOnly(t *testing.T) {
	c := NewClocks(3)
	c.AdvanceTo(0, 5)
	c.AdvanceTo(1, 2)
	c.AdvanceTo(0, 5) // same instant is legal
	if c.Time(0) != 5 || c.Time(1) != 2 || c.Time(2) != 0 {
		t.Fatalf("clocks %v %v %v", c.Time(0), c.Time(1), c.Time(2))
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("backward advance not rejected")
		}
	}()
	c.AdvanceTo(0, 4)
}

func TestTraceDeterministicHash(t *testing.T) {
	mk := func() *Trace {
		tr := &Trace{}
		tr.Record(Event{Time: 0, Worker: 3, Kind: Dispatch})
		tr.Record(Event{Time: 1.5, Worker: 3, Kind: Arrival})
		return tr
	}
	a, b := mk(), mk()
	if a.String() != b.String() || a.Hash() != b.Hash() {
		t.Fatalf("trace not deterministic: %q vs %q", a.String(), b.String())
	}
	if a.String() != "0 dispatch w3\n1.5 arrival w3" {
		t.Fatalf("unexpected rendering: %q", a.String())
	}
}

// NextBoundary must be the literal catch-up loop of the controllers it
// replaced, bit for bit, whenever that loop is short: the repeated addition's
// rounding is what their goldens pin.
func TestNextBoundaryMatchesLoop(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for i := 0; i < 10000; i++ {
		interval := math.Exp(r.Float64()*12 - 6) // e^-6 .. e^6
		next := interval * float64(1+r.Intn(50))
		now := next + interval*r.Float64()*float64(r.Intn(200)) // 0..199 intervals behind
		want := next
		for want <= now {
			want += interval
		}
		if got := NextBoundary(next, now, interval); got != want {
			t.Fatalf("NextBoundary(%v, %v, %v) = %v, the loop gives %v", next, now, interval, got, want)
		}
	}
	// A boundary still ahead of now is left alone.
	if got := NextBoundary(7, 3, 2); got != 7 {
		t.Fatalf("future boundary moved: %v", got)
	}
}

// An interval the clock cannot resolve made the literal loop spin forever
// (next + interval == next). NextBoundary returns, and past now.
func TestNextBoundaryTinyInterval(t *testing.T) {
	const now = 1e6
	for _, interval := range []float64{1e-12, 1e-300, math.SmallestNonzeroFloat64} {
		for _, next := range []float64{interval, now} {
			if got := NextBoundary(next, now, interval); !(got > now) || got > now+1 {
				t.Errorf("NextBoundary(%v, %v, %v) = %v, want just past now", next, now, interval, got)
			}
		}
	}
}
