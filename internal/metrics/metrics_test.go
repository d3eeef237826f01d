package metrics

import (
	"math"
	"strings"
	"testing"
)

func demoTrace() *Trace {
	t := NewTrace("demo")
	losses := []float64{1.0, 0.6, 0.4, 0.3, 0.25}
	for i, l := range losses {
		t.Add(Point{Time: float64(i) * 10, Iter: i * 100, Loss: l, Acc: math.NaN(), Tau: 5, LR: 0.1})
	}
	return t
}

func TestAddOrderEnforced(t *testing.T) {
	tr := NewTrace("x")
	tr.Add(Point{Time: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-order point")
		}
	}()
	tr.Add(Point{Time: 4})
}

func TestTimeToLoss(t *testing.T) {
	tr := demoTrace()
	if got := tr.TimeToLoss(0.4); got != 20 {
		t.Fatalf("TimeToLoss(0.4) = %v, want 20", got)
	}
	if got := tr.TimeToLoss(1.0); got != 0 {
		t.Fatalf("TimeToLoss(1.0) = %v, want 0", got)
	}
	if got := tr.TimeToLoss(0.01); !math.IsNaN(got) {
		t.Fatalf("unreached target should be NaN, got %v", got)
	}
}

func TestSpeedup(t *testing.T) {
	slow := NewTrace("slow")
	fast := NewTrace("fast")
	for i := 0; i < 10; i++ {
		slow.Add(Point{Time: float64(i) * 30, Loss: 1 - float64(i)*0.1, Acc: math.NaN()})
		fast.Add(Point{Time: float64(i) * 10, Loss: 1 - float64(i)*0.1, Acc: math.NaN()})
	}
	if got := Speedup(slow, fast, 0.5); math.Abs(got-3) > 1e-12 {
		t.Fatalf("speedup %v, want 3", got)
	}
	if got := Speedup(slow, fast, -1); !math.IsNaN(got) {
		t.Fatalf("unreachable target should give NaN, got %v", got)
	}
}

func TestBestAccWithin(t *testing.T) {
	tr := NewTrace("acc")
	tr.Add(Point{Time: 0, Acc: 0.5})
	tr.Add(Point{Time: 10, Acc: 0.8})
	tr.Add(Point{Time: 20, Acc: math.NaN()})
	tr.Add(Point{Time: 30, Acc: 0.9})
	if got := tr.BestAccWithin(15); got != 0.8 {
		t.Fatalf("BestAccWithin(15) = %v, want 0.8", got)
	}
	if got := tr.BestAccWithin(100); got != 0.9 {
		t.Fatalf("BestAccWithin(100) = %v, want 0.9", got)
	}
	if got := tr.BestAccWithin(-5); !math.IsNaN(got) {
		t.Fatalf("BestAccWithin before start should be NaN, got %v", got)
	}
}

func TestMinFinalLoss(t *testing.T) {
	tr := demoTrace()
	if tr.MinLoss() != 0.25 || tr.FinalLoss() != 0.25 {
		t.Fatal("min/final loss wrong")
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, demoTrace()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("CSV has %d lines, want 6 (header + 5)", len(lines))
	}
	if lines[0] != "name,time,iter,loss,acc,tau,lr" {
		t.Fatalf("bad header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "demo,0.000000,0,1.00000000,,5,0.1") {
		t.Fatalf("bad first row: %q", lines[1])
	}
}
