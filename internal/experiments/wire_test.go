package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestWireAblation(t *testing.T) {
	// Seeded convergence satellite: the float32 wire halves the per-round
	// payload exactly, tracks the float64 trajectory within tolerance, and
	// on the bandwidth-constrained link reaches the shared target sooner.
	res := wireAblation(ScaleQuick)
	if res.NarrowBytes*2 != res.WideBytes {
		t.Fatalf("payload not halved: f32 %d B vs f64 %d B", res.NarrowBytes, res.WideBytes)
	}
	if math.IsNaN(res.TimeWide) || math.IsNaN(res.TimeNarrow) {
		t.Fatalf("target %v unreached: f64 %v, f32 %v", res.Target, res.TimeWide, res.TimeNarrow)
	}
	if res.TimeNarrow >= res.TimeWide {
		t.Fatalf("narrow wire did not pay off: f64 %v s vs f32 %v s",
			res.TimeWide, res.TimeNarrow)
	}
	wide, narrow := res.Wide.FinalLoss(), res.Narrow.FinalLoss()
	if math.IsNaN(narrow) {
		t.Fatal("float32-wire run produced NaN loss")
	}
	// The narrow run fits MORE rounds into the budget, so its final loss can
	// only beat or track the wide one — bound the relative gap both ways.
	if rel := math.Abs(narrow-wide) / wide; rel > 0.25 {
		t.Fatalf("float32 wire drifted: final loss %v vs %v (rel %v)", narrow, wide, rel)
	}
	var sb strings.Builder
	printWireAblation(&sb, res)
	if !strings.Contains(sb.String(), "Float32 vs float64 wire") {
		t.Fatal("printWireAblation empty")
	}
}
