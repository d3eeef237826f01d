// Package faults implements a seeded, deterministic fault-injection
// schedule for the simulated engines: permanent worker crashes,
// crash-recover windows ("blips"), transient per-exchange message drops
// (retried with the timeout charged through the delay model), and
// temporary slow-down episodes that multiply a worker's link times.
//
// A Schedule is a pure function of (seed, round): every query — Down,
// LinkScale, Retries — is answered by arithmetic over the parsed events
// plus a splitmix-style hash, and consumes NOTHING from the engines' RNG
// streams (delay draws, jitter, samplers, compressors). That independence
// is the bit-identity rule: a nil or empty schedule leaves every existing
// trajectory byte-for-byte unchanged, and enabling faults perturbs only
// the arithmetic the faults themselves dictate, never the random draws.
//
// Rounds are whatever the consuming engine counts: synchronization rounds
// in the lock-step cluster engine, server versions in the parameter-server
// and event-driven engines. Membership policy lives here; the mechanism
// (who a collective skips, how a mean renormalizes) lives in the engines
// and internal/comm.
//
// Absent is empty, not nil: a nil, empty or beyond-horizon schedule answers
// every query with the identity — Down false, DownAt empty, TransferScale
// exactly 1, Validate nil — so every engine keeps one membership view and
// runs one path over it, and a fault-free run is the fault path with
// everyone up. What a schedule drives: a down worker skips local updates and
// exchange (lock-step means renormalize over the survivors, gossip mixes on
// the induced active subgraph); transfers are charged TransferScale, the
// slow-down factor times (1 + seeded retries); a worker rejoining after a
// blip pulls a priced dense delta and snaps to the global model (the async
// engine and the parameter server park down clients, expire their in-flight
// work, and let the dispatch-time pull be the reconcile); with everyone down
// a lock-step round is inert and an event loop drains.
package faults

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Kind classifies a scheduled fault event.
type Kind int

const (
	// KindCrash takes a worker down permanently from round From on.
	KindCrash Kind = iota
	// KindBlip takes a worker down for rounds [From, To]; it rejoins at
	// round To+1 (and must reconcile its stale state).
	KindBlip
	// KindSlow multiplies a worker's link transfer times by Factor for
	// rounds [From, To]; the worker stays up.
	KindSlow
)

// String names the kind using the spec grammar's keyword.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindBlip:
		return "blip"
	case KindSlow:
		return "slow"
	}
	return "unknown-fault"
}

// Event is one scheduled fault: Worker is affected for rounds
// [From, To] inclusive (Crash pins To to the maximum int). Factor is the
// link-time multiplier of a Slow event and unused otherwise.
type Event struct {
	Kind   Kind
	Worker int
	From   int
	To     int
	Factor float64
}

// maxRetries caps the consecutive timed-out attempts a dropped exchange
// is charged before it is forced through: with drop probability p the
// expected extra attempts stay p/(1-p), and a pathological p near 1
// cannot stall a round forever.
const maxRetries = 8

// Schedule is a parsed, validated fault schedule. The zero value (and
// nil) is the empty schedule: no worker is ever down, no link is ever
// scaled, no exchange is ever dropped, and Enabled reports false.
type Schedule struct {
	events []Event
	drop   float64
}

// Enabled reports whether the schedule has any event or drop probability.
// Engines need not ask: every query already answers a disabled schedule with
// the identity. They use it only to skip per-round work such a schedule
// cannot change.
func (s *Schedule) Enabled() bool {
	return s != nil && (len(s.events) > 0 || s.drop > 0)
}

// Down reports whether the worker is crashed or blipped out at the given
// round. Allocation-free.
func (s *Schedule) Down(worker, round int) bool {
	if s == nil {
		return false
	}
	for _, e := range s.events {
		if e.Worker == worker && e.Kind != KindSlow && round >= e.From && round <= e.To {
			return true
		}
	}
	return false
}

// DownAt appends to dst every worker that is down at the given round, in
// ascending order and without repeats, and returns the extended slice. It
// costs one pass over the events, not one Down query per worker: the way to
// ask "who is down" of a large population.
func (s *Schedule) DownAt(round int, dst []int) []int {
	if s == nil {
		return dst
	}
	base := len(dst)
	for _, e := range s.events {
		if e.Kind != KindSlow && round >= e.From && round <= e.To {
			dst = append(dst, e.Worker)
		}
	}
	slices.Sort(dst[base:])
	return dst[:base+len(slices.Compact(dst[base:]))]
}

// Rejoins reports whether the worker comes back up at this round after
// being down the previous round — the moment it must reconcile its stale
// state before participating again. Allocation-free.
func (s *Schedule) Rejoins(worker, round int) bool {
	return s != nil && round > 0 && !s.Down(worker, round) && s.Down(worker, round-1)
}

// LinkScale returns the multiplier on the worker's link transfer times at
// the given round: 1 outside any slow-down episode, the product of the
// overlapping episodes' factors inside. Allocation-free.
func (s *Schedule) LinkScale(worker, round int) float64 {
	scale := 1.0
	if s == nil {
		return scale
	}
	for _, e := range s.events {
		if e.Kind == KindSlow && e.Worker == worker && round >= e.From && round <= e.To {
			scale *= e.Factor
		}
	}
	return scale
}

// ActiveInto fills active[i] with whether worker i is up at the given
// round and returns the active count. Allocation-free.
func (s *Schedule) ActiveInto(round int, active []bool) int {
	n := 0
	for i := range active {
		up := !s.Down(i, round)
		active[i] = up
		if up {
			n++
		}
	}
	return n
}

// Retries returns how many timed-out attempts worker's exchange at the
// given round suffers before it succeeds: each attempt is dropped
// independently with probability Drop, decided by a hash of
// (seed, round, worker, attempt) — no RNG stream is consumed — and capped
// at maxRetries. The caller charges each failed attempt as one extra full
// transfer (the timeout-and-resend pricing). Allocation-free.
func (s *Schedule) Retries(seed uint64, round, worker int) int {
	if s == nil || s.drop <= 0 {
		return 0
	}
	n := 0
	for n < maxRetries && hash01(seed, round, worker, n) < s.drop {
		n++
	}
	return n
}

// TransferScale returns the multiplier the schedule puts on worker's
// transfers at the given round: slow-down episodes multiply the transfer;
// each dropped attempt charges one more full transfer. Exactly 1 on a nil,
// empty or beyond-horizon schedule. Allocation-free.
func (s *Schedule) TransferScale(seed uint64, round, worker int) float64 {
	return s.LinkScale(worker, round) * float64(1+s.Retries(seed, round, worker))
}

// hash01 maps (seed, round, worker, attempt) to [0, 1) with a
// splitmix64-style finalizer — the same mixing internal/rng seeds with,
// reimplemented here so the fault stream stays structurally independent
// of every engine RNG stream.
func hash01(seed uint64, round, worker, attempt int) float64 {
	x := seed
	x ^= uint64(round) * 0x9E3779B97F4A7C15
	x ^= uint64(worker) * 0xBF58476D1CE4E5B9
	x ^= uint64(attempt) * 0x94D049BB133111EB
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Validate checks the schedule against a cluster of m workers: every
// event's worker index must be in [0, m). Parse already rejected
// malformed values; this is the half that needs the cluster size.
func (s *Schedule) Validate(m int) error {
	if s == nil {
		return nil
	}
	if m < 1 {
		return fmt.Errorf("faults: cluster of %d workers", m)
	}
	for _, e := range s.events {
		if e.Worker < 0 || e.Worker >= m {
			return fmt.Errorf("faults: %s event names worker %d, cluster has workers 0..%d", e.Kind, e.Worker, m-1)
		}
	}
	return nil
}

// String reconstructs the spec syntax.
func (s *Schedule) String() string {
	if !s.Enabled() {
		return ""
	}
	var parts []string
	for _, e := range s.events {
		switch e.Kind {
		case KindCrash:
			parts = append(parts, fmt.Sprintf("crash:%d@r%d", e.Worker, e.From))
		case KindBlip:
			parts = append(parts, fmt.Sprintf("blip:%d@r%d-%d", e.Worker, e.From, e.To))
		case KindSlow:
			parts = append(parts, fmt.Sprintf("slow:%dx%g@r%d-%d", e.Worker, e.Factor, e.From, e.To))
		}
	}
	if s.drop > 0 {
		parts = append(parts, fmt.Sprintf("drop:%g", s.drop))
	}
	return strings.Join(parts, ",")
}

// Forms enumerates the fault-spec grammar for error messages and usage
// text.
const Forms = "crash:W@rR (worker W down permanently from round R) | " +
	"blip:W@rR1-R2 (worker W down for rounds R1..R2, rejoins at R2+1) | " +
	"slow:WxF@rR1-R2 (worker W's link times multiplied by F for rounds R1..R2) | " +
	"drop:P (every exchange dropped and retried with probability P in [0,1))"

// Parse parses a comma-separated fault spec (Forms):
//
//	crash:3@r40          worker 3 crashes permanently at round 40
//	blip:5@r10-20        worker 5 is down rounds 10..20, rejoins at 21
//	slow:2x4@r10-20      worker 2's links are 4x slower rounds 10..20
//	drop:0.05            every exchange is dropped (and retried, with the
//	                     timeout charged) with probability 0.05
//
// An empty spec returns a nil schedule (faults disabled). Malformed
// workers, rounds, factors (NaN/Inf/non-positive), and probabilities
// outside [0, 1) are rejected with an error that enumerates every valid
// form; worker indices are range-checked later against the cluster size
// by Validate.
func Parse(spec string) (*Schedule, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	s := &Schedule{}
	sawDrop := false
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		kind, rest, ok := strings.Cut(term, ":")
		if !ok {
			return nil, badTerm(term)
		}
		switch kind {
		case "drop":
			p, err := strconv.ParseFloat(rest, 64)
			if err != nil || math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p >= 1 {
				return nil, fmt.Errorf("faults: drop probability %q must be in [0, 1) (want %s)", rest, Forms)
			}
			if sawDrop {
				return nil, fmt.Errorf("faults: duplicate drop term %q (one drop probability per schedule)", term)
			}
			s.drop, sawDrop = p, true
		case "crash", "blip", "slow":
			e, err := parseEvent(kind, rest, term)
			if err != nil {
				return nil, err
			}
			s.events = append(s.events, e)
		default:
			return nil, badTerm(term)
		}
	}
	return s, nil
}

func badTerm(term string) error {
	return fmt.Errorf("faults: bad fault %q (want %s)", term, Forms)
}

func parseEvent(kind, rest, term string) (Event, error) {
	who, when, ok := strings.Cut(rest, "@r")
	if !ok {
		return Event{}, badTerm(term)
	}
	e := Event{Factor: 1}
	switch kind {
	case "crash":
		e.Kind = KindCrash
	case "blip":
		e.Kind = KindBlip
	case "slow":
		e.Kind = KindSlow
		ws, fs, ok := strings.Cut(who, "x")
		if !ok {
			return Event{}, badTerm(term)
		}
		f, err := strconv.ParseFloat(fs, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
			return Event{}, fmt.Errorf("faults: slow factor %q must be a positive finite number (want %s)", fs, Forms)
		}
		e.Factor = f
		who = ws
	}
	w, err := strconv.Atoi(who)
	if err != nil || w < 0 {
		return Event{}, fmt.Errorf("faults: worker %q must be a non-negative index (want %s)", who, Forms)
	}
	e.Worker = w
	from, to, ranged := strings.Cut(when, "-")
	e.From, err = strconv.Atoi(from)
	if err != nil || e.From < 0 {
		return Event{}, fmt.Errorf("faults: round %q must be a non-negative integer (want %s)", from, Forms)
	}
	switch {
	case e.Kind == KindCrash:
		if ranged {
			return Event{}, fmt.Errorf("faults: crash takes a single round, %q gives a range (use blip:W@rR1-R2 for crash-recover)", term)
		}
		e.To = math.MaxInt
	case ranged:
		e.To, err = strconv.Atoi(to)
		if err != nil || e.To < e.From {
			return Event{}, fmt.Errorf("faults: round range %q must be rR1-R2 with R1 <= R2 (want %s)", when, Forms)
		}
	default:
		e.To = e.From
	}
	return e, nil
}
