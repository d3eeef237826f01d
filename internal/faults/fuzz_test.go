package faults

import (
	"math"
	"testing"
)

// FuzzParse holds the fault grammar to two promises for any string a user
// can pass to -faults: Parse never panics, and a spec it accepts survives the
// round trip through String — the re-parsed schedule answers Down, Rejoins
// and TransferScale exactly as the original over a grid of workers and
// rounds. The seed corpus is the documented forms, the churn ablation's
// default schedule and the edge cases TestParseRejects lists.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "   ", "crash:3@r40", "blip:5@r10-20", "slow:2x4@r10-20", "drop:0.05",
		"crash:0@r1,blip:1@r2-3,slow:2x1.5@r4-6,drop:0.1",
		"blip:0@r8-20,blip:1@r28-42,drop:0.05",
		"drop:0", "drop:-0", "drop:0,drop:0.1", "drop:0.1,drop:0", "drop:0x1p-3",
		"slow:1x5e-324@r0-3,slow:1x1e308@r1-2,slow:1x1e308@r2-2",
		"crash:+3@r02", "blip:1@r5-2", "crash:1@r2,", " , ", "slow:0x0x2@r1-2",
		"crash:1@r9223372036854775807", "blip:2@r3-9223372036854775807",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", spec, s.String(), err)
		}
		for w := 0; w < 6; w++ {
			for r := 0; r < 48; r++ {
				if s.Down(w, r) != again.Down(w, r) || s.Rejoins(w, r) != again.Rejoins(w, r) ||
					math.Float64bits(s.TransferScale(7, r, w)) != math.Float64bits(again.TransferScale(7, r, w)) {
					t.Fatalf("Parse(%q) and its round trip %q differ at worker %d, round %d", spec, s.String(), w, r)
				}
			}
		}
	})
}
