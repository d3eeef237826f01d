package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/compress"
)

func TestGossipGridShape(t *testing.T) {
	rows := gossipGrid(ScaleQuick, compress.WireFloat64)

	// One raw row plus (choco, shared-ref) per ratio, for two ratios, per
	// ring size, for two sizes.
	if want := 2 * (1 + 2*2); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	raw := map[int]gossipGridRow{}
	for _, r := range rows {
		if r.FinalLoss <= 0 || r.MinLoss <= 0 {
			t.Fatalf("degenerate losses in row %+v", r)
		}
		if r.Method == "ring raw" {
			raw[r.M] = r
		}
	}
	for _, r := range rows {
		if r.Method == "ring choco" {
			base, ok := raw[r.M]
			if !ok {
				t.Fatalf("no raw reference for m=%d", r.M)
			}
			if r.BytesPerRound >= base.BytesPerRound/2 {
				t.Fatalf("m=%d choco payload %d not meaningfully below raw %d",
					r.M, r.BytesPerRound, base.BytesPerRound)
			}
			// The wire-derivable estimates must keep CHOCO in the same
			// loss regime as uncompressed gossip.
			if r.FinalLoss > 2*base.FinalLoss {
				t.Fatalf("m=%d choco final loss %v far above raw %v",
					r.M, r.FinalLoss, base.FinalLoss)
			}
		}
	}

	var buf bytes.Buffer
	printGossipGrid(&buf, rows)
	out := buf.String()
	for _, want := range []string{"CHOCO", "ring choco", "full shared-ref", "ring raw"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered grid missing %q:\n%s", want, out)
		}
	}
}
