package faults

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func mustParse(t *testing.T, spec string) *Schedule {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return s
}

func TestParseEmptyDisabled(t *testing.T) {
	for _, spec := range []string{"", "   "} {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if s.Enabled() {
			t.Fatalf("Parse(%q) enabled", spec)
		}
	}
	var zero Schedule
	if zero.Enabled() {
		t.Fatal("zero Schedule enabled")
	}
	var nilSched *Schedule
	if nilSched.Enabled() || nilSched.Down(0, 0) || nilSched.LinkScale(0, 0) != 1 ||
		nilSched.Retries(1, 0, 0) != 0 || nilSched.Rejoins(0, 1) {
		t.Fatal("nil Schedule is not the empty schedule")
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"crash:3@r40",
		"blip:5@r10-20",
		"slow:2x4@r10-20",
		"drop:0.05",
		"crash:0@r1,blip:1@r2-3,slow:2x1.5@r4-6,drop:0.1",
	} {
		s := mustParse(t, spec)
		if got := s.String(); got != spec {
			t.Errorf("Parse(%q).String() = %q", spec, got)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, spec := range []string{
		"nonsense",
		"frob:1@r2",
		"crash:1",           // no round
		"crash:-1@r2",       // negative worker
		"crash:1@r-2",       // negative round
		"crash:1@r2-5",      // crash takes a single round
		"blip:1@r5-2",       // inverted range
		"blip:1@r5-x",       // bad range end
		"slow:1@r2-3",       // missing factor
		"slow:1x0@r2-3",     // zero factor
		"slow:1x-2@r2-3",    // negative factor
		"slow:1xNaN@r2-3",   // NaN factor
		"slow:1x+Inf@r2-3",  // Inf factor
		"drop:1",            // p must be < 1
		"drop:-0.1",         // negative p
		"drop:NaN",          // NaN p
		"drop:0.1,drop:0.2", // duplicate drop
		"drop:0,drop:0.1",   // duplicate drop, the first one zero
		"crash:1@r2,",       // trailing empty term
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
	// The generic error enumerates every valid form.
	_, err := Parse("frob:1@r2")
	for _, form := range []string{"crash:W@rR", "blip:W@rR1-R2", "slow:WxF@rR1-R2", "drop:P"} {
		if err == nil || !strings.Contains(err.Error(), form) {
			t.Errorf("Parse error %v does not enumerate %q", err, form)
		}
	}
}

func TestDownRejoinSemantics(t *testing.T) {
	s := mustParse(t, "crash:0@r5,blip:1@r3-6")
	for round, want := range map[int]bool{0: false, 4: false, 5: true, 6: true, 1000: true} {
		if got := s.Down(0, round); got != want {
			t.Errorf("crash Down(0, %d) = %v", round, got)
		}
	}
	for round, want := range map[int]bool{2: false, 3: true, 6: true, 7: false} {
		if got := s.Down(1, round); got != want {
			t.Errorf("blip Down(1, %d) = %v", round, got)
		}
	}
	if !s.Rejoins(1, 7) {
		t.Error("blip worker does not rejoin at To+1")
	}
	for _, round := range []int{3, 6, 8} {
		if s.Rejoins(1, round) {
			t.Errorf("Rejoins(1, %d) = true", round)
		}
	}
	if s.Rejoins(0, 6) {
		t.Error("crashed worker rejoins")
	}
	active := make([]bool, 3)
	if n := s.ActiveInto(4, active); n != 2 || !active[0] || active[1] || !active[2] {
		t.Errorf("ActiveInto(4) = %d %v", n, active)
	}
	if n := s.ActiveInto(10, active); n != 2 || active[0] || !active[1] || !active[2] {
		t.Errorf("ActiveInto(10) = %d %v", n, active)
	}
}

// TestDownAtMatchesDown: DownAt is the set {w : Down(w, round)}, ascending,
// with a worker two overlapping events name listed once, after whatever dst
// already held.
func TestDownAtMatchesDown(t *testing.T) {
	s := mustParse(t, "blip:6@r2-5,crash:1@r4,blip:6@r4-9,slow:3x2@r0-9,blip:0@r0-0,drop:0.1")
	for round := 0; round <= 11; round++ {
		want := []int{-7}
		for w := 0; w < 8; w++ {
			if s.Down(w, round) {
				want = append(want, w)
			}
		}
		if got := s.DownAt(round, []int{-7}); !slices.Equal(got, want) {
			t.Errorf("DownAt(%d) = %v, want %v", round, got, want)
		}
	}
	if got := (*Schedule)(nil).DownAt(3, nil); len(got) != 0 {
		t.Errorf("nil schedule DownAt = %v", got)
	}
}

func TestLinkScale(t *testing.T) {
	s := mustParse(t, "slow:2x4@r10-20,slow:2x2@r15-15")
	cases := []struct {
		round int
		want  float64
	}{{9, 1}, {10, 4}, {15, 8}, {20, 4}, {21, 1}}
	for _, c := range cases {
		if got := s.LinkScale(2, c.round); got != c.want {
			t.Errorf("LinkScale(2, %d) = %g, want %g", c.round, got, c.want)
		}
	}
	if got := s.LinkScale(0, 15); got != 1 {
		t.Errorf("LinkScale(0, 15) = %g", got)
	}
}

func TestRetriesDeterministicAndBounded(t *testing.T) {
	s := mustParse(t, "drop:0.3")
	total := 0
	for round := 0; round < 200; round++ {
		for w := 0; w < 8; w++ {
			r := s.Retries(42, round, w)
			if r != s.Retries(42, round, w) {
				t.Fatal("Retries is not deterministic")
			}
			if r < 0 || r > maxRetries {
				t.Fatalf("Retries = %d out of [0, %d]", r, maxRetries)
			}
			total += r
		}
	}
	// E[retries] = p/(1-p) ~ 0.43 at p = 0.3; accept a loose band.
	mean := float64(total) / (200 * 8)
	if mean < 0.2 || mean > 0.7 {
		t.Errorf("mean retries %g implausible for p=0.3", mean)
	}
	if s.Retries(42, 1, 1) == s.Retries(43, 1, 1) &&
		s.Retries(42, 2, 1) == s.Retries(43, 2, 1) &&
		s.Retries(42, 3, 1) == s.Retries(43, 3, 1) &&
		s.Retries(42, 1, 0) == s.Retries(43, 1, 0) &&
		s.Retries(42, 4, 2) == s.Retries(43, 4, 2) {
		t.Error("Retries appears seed-independent")
	}
	none := mustParse(t, "crash:1@r5")
	if none.Retries(42, 1, 1) != 0 {
		t.Error("Retries > 0 without a drop term")
	}
}

// TransferScale is the one spelling of what the three engines charge a
// transfer under faults: the slow-down product times one full transfer per
// dropped attempt, in that order, and exactly 1 where no fault applies.
func TestTransferScale(t *testing.T) {
	s := mustParse(t, "slow:2x4@r10-20,slow:2x2@r15-15,blip:1@r3-6,drop:0.3")
	scaled, retried := 0, 0
	for round := 0; round < 40; round++ {
		for w := 0; w < 4; w++ {
			want := s.LinkScale(w, round) * float64(1+s.Retries(42, round, w))
			if got := s.TransferScale(42, round, w); got != want {
				t.Fatalf("TransferScale(42, %d, %d) = %g, want %g", round, w, got, want)
			}
			if s.LinkScale(w, round) != 1 {
				scaled++
			}
			if s.Retries(42, round, w) > 0 {
				retried++
			}
		}
	}
	if scaled == 0 || retried == 0 {
		t.Fatalf("schedule exercised %d slow-downs and %d retries", scaled, retried)
	}
	var nilSched *Schedule
	for name, s := range map[string]*Schedule{
		"nil":            nilSched,
		"empty":          mustParse(t, ""),
		"beyond horizon": mustParse(t, "slow:2x4@r1000-2000,blip:1@r1000-1001"),
	} {
		for round := 0; round < 40; round++ {
			if got := s.TransferScale(42, round, 2); got != 1 {
				t.Fatalf("%s schedule: TransferScale(42, %d, 2) = %g, want exactly 1", name, round, got)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	s := mustParse(t, "crash:3@r40")
	if err := s.Validate(4); err != nil {
		t.Errorf("Validate(4): %v", err)
	}
	if err := s.Validate(3); err == nil {
		t.Error("Validate(3) accepted worker 3")
	}
	if err := s.Validate(0); err == nil {
		t.Error("Validate(0) accepted empty cluster")
	}
	var nilSched *Schedule
	if err := nilSched.Validate(0); err != nil {
		t.Errorf("nil Validate: %v", err)
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	s := mustParse(t, "crash:0@r5,blip:1@r3-6,slow:2x4@r10-20,drop:0.2")
	active := make([]bool, 8)
	down := make([]int, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		s.Down(1, 4)
		s.Rejoins(1, 7)
		s.LinkScale(2, 12)
		s.Retries(42, 7, 3)
		s.TransferScale(42, 12, 2)
		s.ActiveInto(4, active)
		down = s.DownAt(4, down[:0])
	}); n != 0 {
		t.Errorf("hot path allocates %g/op", n)
	}
}

func TestHash01Range(t *testing.T) {
	for i := 0; i < 1000; i++ {
		v := hash01(uint64(i), i*7, i%5, i%3)
		if math.IsNaN(v) || v < 0 || v >= 1 {
			t.Fatalf("hash01 out of [0,1): %g", v)
		}
	}
}
