package opt

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse fuzzes the -optimizer grammar: Parse never panics, an accepted
// spec passes Validate, every number the spec spells out is the one the
// built optimizer runs (an explicit zero beta once ran the default in its
// place), and the spec's String parses back to the same effective rule.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", " sgd ", "momentum:0.9", "nesterov:0.5", "nesterov:0x1p-1",
		"adam", "adam:0.8", "adam:0.8,0.95", "adam+synced", "adam:0.8,0.95+synced",
		"adam:0", "adam:-0", "adam:0,0.99", "adam:0.9,0", "adam:0+synced",
		"adam:1e-320", "adam:1e-320,1e-320+synced", "adam:0.9,0.99,0.5",
		"adam:", "sgd:", "adam+synced+synced", "momentum:0.9+synced", "momentum:NaN", "adam:Inf",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("Parse(%q) = %+v fails Validate: %v", spec, c, err)
		}
		run := New(c, 1).Config()
		body := strings.TrimSuffix(strings.TrimSpace(spec), "+synced")
		// An empty argument ("adam:") is no argument, as Parse reads it.
		if _, arg, _ := strings.Cut(body, ":"); arg != "" {
			ran := []float64{run.Momentum, run.Beta2}
			for i, part := range strings.Split(arg, ",") {
				want, _ := strconv.ParseFloat(part, 64)
				if math.Float64bits(ran[i]) != math.Float64bits(want) {
					t.Fatalf("Parse(%q) runs %v for the spelled-out %q", spec, ran[i], part)
				}
			}
		}
		back, err := Parse(c.String())
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", spec, c.String(), err)
		}
		if got := New(back, 1).Config(); got != run {
			t.Fatalf("Parse(%q) runs %+v, its round trip %q runs %+v", spec, run, c.String(), got)
		}
	})
}
