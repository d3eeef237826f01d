// Package events is the discrete-event substrate of the asynchronous
// training engine (cluster.AsyncEngine): a deterministic priority queue of
// {time, worker, kind} events, per-worker virtual clocks, and a textual
// trace recorder that pins a run's exact event order in golden tests.
//
// # Event queue contract
//
// Pop returns events in non-decreasing Time order. Events with EQUAL times
// are ordered by a tie-break priority drawn from a seeded stream at Push
// time — not by worker index or push order — so that arrival order is not
// degenerate when links are homogeneous (every worker finishing a round at
// the identical instant would otherwise always be served in index order,
// and a K-of-m aggregation would silently become "the first K worker ids").
// Two pushes that draw equal priorities (a ~2^-64 event) fall back to push
// order. Because the priority stream is seeded and consumed in push order,
// the pop sequence is a pure function of (seed, push sequence): same seed,
// same pushes, byte-identical pop order — on any machine, at any
// GOMAXPROCS. The queue is single-goroutine by design; determinism comes
// from the seeded stream, not from locking.
//
// Event times must be finite and non-negative: a NaN time has no place in
// an ordering and would silently corrupt the heap invariant, so Push
// rejects it loudly, the same way delaymodel.Model.Check rejects NaN links.
//
// # Clock semantics
//
// Clocks tracks one virtual clock per worker. A worker's clock only moves
// forward (AdvanceTo panics on a backward move): worker i's clock is the
// simulated instant its last scheduled action completes, and the engine's
// wall-clock reading at any event is the event's own time stamp — NOT the
// max over worker clocks, because stragglers deliberately run ahead of the
// aggregation frontier.
//
// # Interval boundaries
//
// NextBoundary is the one catch-up rule of every controller that adapts at
// fixed simulated-time intervals (core.AdaComm, core.AdaCommCompress,
// paramserver.AdaSync).
package events

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/rng"
)

// Kind discriminates scheduler events.
type Kind uint8

const (
	// Dispatch activates a worker: it pulls the current global model and
	// begins a round of local work.
	Dispatch Kind = iota
	// Arrival delivers a worker's finished round (its update message) at
	// the aggregation point.
	Arrival
)

// String renders the kind for event traces.
func (k Kind) String() string {
	switch k {
	case Dispatch:
		return "dispatch"
	case Arrival:
		return "arrival"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled occurrence.
type Event struct {
	Time   float64 // simulated seconds, finite and >= 0
	Worker int
	Kind   Kind
}

// entry is a queued event plus its ordering keys.
type entry struct {
	ev   Event
	prio uint64 // seeded tie-break, drawn at Push
	seq  uint64 // push order, final fallback
}

// Queue is a deterministic min-heap of events. The zero value is unusable;
// construct with NewQueue.
type Queue struct {
	h   []entry
	seq uint64
	r   *rng.Rand
}

// NewQueue builds an empty queue whose tie-break stream is seeded with the
// given seed.
func NewQueue(seed uint64) *Queue {
	return &Queue{r: rng.New(seed)}
}

// Len returns the number of queued events.
func (q *Queue) Len() int { return len(q.h) }

// Push schedules an event. The event's tie-break priority is drawn from the
// queue's seeded stream here, so the pop order is fully determined by the
// seed and the push sequence.
func (q *Queue) Push(e Event) {
	if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) || e.Time < 0 {
		panic(fmt.Sprintf("events: event time %v (want finite >= 0)", e.Time))
	}
	q.h = append(q.h, entry{ev: e, prio: q.r.Uint64(), seq: q.seq})
	q.seq++
	q.up(len(q.h) - 1)
}

// Reset discards every queued event (a K-sync server cancelling its
// stragglers). The push counter and the tie-break stream keep running, so
// the pop order stays a pure function of (seed, push sequence) across
// resets.
func (q *Queue) Reset() { q.h = q.h[:0] }

// Pop removes and returns the earliest event; ok is false on an empty
// queue.
func (q *Queue) Pop() (e Event, ok bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	if len(q.h) > 0 {
		q.down(0)
	}
	return top.ev, true
}

// less orders entries by (Time, prio, seq).
func (q *Queue) less(a, b entry) bool {
	if a.ev.Time != b.ev.Time {
		return a.ev.Time < b.ev.Time
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

func (q *Queue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(q.h[i], q.h[p]) {
			return
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *Queue) down(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.less(q.h[l], q.h[small]) {
			small = l
		}
		if r < n && q.less(q.h[r], q.h[small]) {
			small = r
		}
		if small == i {
			return
		}
		q.h[i], q.h[small] = q.h[small], q.h[i]
		i = small
	}
}

// Clocks is a set of per-worker virtual clocks.
type Clocks struct {
	t []float64
}

// NewClocks builds n clocks, all at time zero.
func NewClocks(n int) *Clocks {
	if n < 1 {
		panic("events: need at least one clock")
	}
	return &Clocks{t: make([]float64, n)}
}

// Time returns worker i's clock.
func (c *Clocks) Time(i int) float64 { return c.t[i] }

// AdvanceTo moves worker i's clock to tm, which must not be behind it: a
// virtual clock never runs backwards, and a violation means the caller
// scheduled an action to complete before its predecessor.
func (c *Clocks) AdvanceTo(i int, tm float64) {
	if math.IsNaN(tm) || tm < c.t[i] {
		panic(fmt.Sprintf("events: clock %d moved backwards: %v -> %v", i, c.t[i], tm))
	}
	c.t[i] = tm
}

// boundarySteps is how many intervals NextBoundary adds one at a time before
// it jumps: far above any catch-up a golden takes (an interval is several
// rounds long there), far below what a user would wait for.
const boundarySteps = 1 << 10

// NextBoundary returns the first boundary after now for a controller whose
// boundaries lie interval simulated seconds apart and whose last one was
// next: next plus whole intervals until it exceeds now. A short catch-up is
// the repeated addition itself, because its rounding is what the controller
// goldens pin (a closed form floor(now/interval)*interval is not
// bit-identical). Past boundarySteps additions — an interval far below the
// round time, down to one so small that next + interval == next and the
// loop would never end — it jumps to now + interval, or to the next float
// above now when even that does not exceed it. The result is always > now
// at bounded cost, so a tiny interval means what it says: adapt at every
// round.
func NextBoundary(next, now, interval float64) float64 {
	for i := 0; next <= now && i < boundarySteps; i++ {
		next += interval
	}
	if next <= now {
		if next = now + interval; !(next > now) {
			next = math.Nextafter(now, math.Inf(1))
		}
	}
	return next
}

// Trace records a deterministic textual log of processed events. Golden
// tests pin a seeded run's trace (or its hash) byte-identically; the
// determinism test replays the same seed at different GOMAXPROCS and
// asserts equal traces.
type Trace struct {
	lines []string
}

// Record appends one event. %.9g keeps the rendering platform-independent
// for every time the simulator produces (float64-exact inputs render
// float64-exactly).
func (t *Trace) Record(e Event) {
	t.lines = append(t.lines, fmt.Sprintf("%.9g %s w%d", e.Time, e.Kind, e.Worker))
}

// String renders the trace newline-joined.
func (t *Trace) String() string { return strings.Join(t.lines, "\n") }

// Hash folds the rendered trace through FNV-1a, for compact golden pins.
func (t *Trace) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, line := range t.lines {
		for i := 0; i < len(line); i++ {
			h ^= uint64(line[i])
			h *= prime64
		}
		h ^= uint64('\n')
		h *= prime64
	}
	return h
}
