// Package metrics records training traces — loss/accuracy against both
// iteration count and simulated wall-clock time — and derives the summary
// quantities the paper reports: time-to-target-loss, speedups between
// methods, best test accuracy within a time budget (Table 1), and CSV
// emission for external plotting.
package metrics

import (
	"fmt"
	"io"
	"math"
)

// Point is one recorded measurement during training.
type Point struct {
	Time float64 // simulated wall-clock seconds
	Iter int     // local-iteration index (paper's k)
	Loss float64 // training loss F(x) on the synchronized model
	Acc  float64 // test accuracy (NaN when not evaluated)
	Tau  int     // communication period in effect
	LR   float64 // learning rate in effect
}

// Trace is a named sequence of points, ordered by time.
type Trace struct {
	Name   string
	Points []Point
}

// NewTrace creates an empty trace.
func NewTrace(name string) *Trace { return &Trace{Name: name} }

// Add appends a point. Points must arrive in non-decreasing time order.
func (t *Trace) Add(p Point) {
	if n := len(t.Points); n > 0 && p.Time < t.Points[n-1].Time {
		panic(fmt.Sprintf("metrics: out-of-order point %v after %v", p.Time, t.Points[n-1].Time))
	}
	t.Points = append(t.Points, p)
}

// Len returns the number of points.
func (t *Trace) Len() int { return len(t.Points) }

// Last returns the final point; panics if empty.
func (t *Trace) Last() Point {
	if len(t.Points) == 0 {
		panic("metrics: Last on empty trace")
	}
	return t.Points[len(t.Points)-1]
}

// FinalLoss returns the last recorded loss.
func (t *Trace) FinalLoss() float64 { return t.Last().Loss }

// MinLoss returns the smallest recorded loss.
func (t *Trace) MinLoss() float64 {
	min := math.Inf(1)
	for _, p := range t.Points {
		if p.Loss < min {
			min = p.Loss
		}
	}
	return min
}

// TimeToLoss returns the earliest recorded time at which the loss reached
// target (loss <= target), or NaN if it never did. This is the paper's
// "X minutes to reach loss Y" metric.
func (t *Trace) TimeToLoss(target float64) float64 {
	for _, p := range t.Points {
		if p.Loss <= target {
			return p.Time
		}
	}
	return math.NaN()
}

// BestAccWithin returns the best accuracy recorded at or before the time
// budget (Table 1's "best accuracy within a time budget"). NaN-accuracy
// points are skipped; returns NaN if none qualify.
func (t *Trace) BestAccWithin(budget float64) float64 {
	best := math.NaN()
	for _, p := range t.Points {
		if p.Time > budget {
			break
		}
		if !math.IsNaN(p.Acc) && (math.IsNaN(best) || p.Acc > best) {
			best = p.Acc
		}
	}
	return best
}

// Speedup returns how many times faster `fast` reaches the target loss than
// `slow`: timeSlow / timeFast. NaN if either never reaches it. The paper's
// headline "3.3x less time than fully synchronous SGD" is this quantity.
func Speedup(slow, fast *Trace, target float64) float64 {
	ts := slow.TimeToLoss(target)
	tf := fast.TimeToLoss(target)
	if math.IsNaN(ts) || math.IsNaN(tf) || tf == 0 {
		return math.NaN()
	}
	return ts / tf
}

// WriteCSV emits traces in long form: name,time,iter,loss,acc,tau,lr.
func WriteCSV(w io.Writer, traces ...*Trace) error {
	if _, err := fmt.Fprintln(w, "name,time,iter,loss,acc,tau,lr"); err != nil {
		return err
	}
	for _, t := range traces {
		for _, p := range t.Points {
			acc := ""
			if !math.IsNaN(p.Acc) {
				acc = fmt.Sprintf("%.6f", p.Acc)
			}
			if _, err := fmt.Fprintf(w, "%s,%.6f,%d,%.8f,%s,%d,%.6g\n",
				t.Name, p.Time, p.Iter, p.Loss, acc, p.Tau, p.LR); err != nil {
				return err
			}
		}
	}
	return nil
}
