package delaymodel

import (
	"strings"
	"testing"

	"repro/internal/rng"
)

// The link flags are typed by users, so the shared parser must never panic,
// and whatever it accepts must be a table the engines' own validation
// (CheckLinks / CheckEdgeLinks) accepts too. The seed corpus is the flag
// examples in cmd/adacomm's header plus the degenerate forms.

func FuzzParseLinks(f *testing.F) {
	for _, s := range []string{
		"0:,0:,0:,0:25.6", "0:4096,0:4096,0:409.6", "0.5:100, :50,0:,:",
		"0:0", "-1:", "NaN:", "3-3:1:", ":", "", "1e400:", ":1e-400", "0x1p-2:0x10",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m := strings.Count(s, ",") + 1 // the one width that passes the count check
		links, err := ParseLinks(s, m)
		if err != nil {
			return
		}
		dm := New(m, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
		dm.Links = links
		if err := dm.CheckLinks(); err != nil {
			t.Fatalf("ParseLinks(%q) accepted links CheckLinks rejects: %v", s, err)
		}
	})
}

func FuzzParseEdgeLinks(f *testing.F) {
	for _, s := range []string{
		"3-4:10:", "3-4:10:,0-2::64", "3-3:1:", "0-1:0:0", "0-1:-1:", "0-1:NaN:",
		"0-1", "0-1:", "1-0:1:1,0-1:2:2", "-1-2::", "9-0::", "", "0-1:1e400:",
	} {
		f.Add(s, uint8(8))
	}
	f.Fuzz(func(t *testing.T, s string, width uint8) {
		m := int(width%16) + 1
		table, err := ParseEdgeLinks(s, m)
		if err != nil {
			return
		}
		dm := New(m, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
		dm.EdgeLinks = table
		if err := dm.CheckEdgeLinks(); err != nil {
			t.Fatalf("ParseEdgeLinks(%q, %d) accepted a table CheckEdgeLinks rejects: %v", s, m, err)
		}
		for e, l := range table {
			if table[Edge{From: e.To, To: e.From}] != l {
				t.Fatalf("ParseEdgeLinks(%q, %d): edge %v not priced in both directions", s, m, e)
			}
		}
	})
}
