package rng

import (
	"math"
	"sort"
)

// Sample statistics for the runtime figures and summaries: Summarize's
// moments and quantiles, the Histogram behind Fig 5, and the harmonic number
// H_m, with which y*H_m is the expected maximum of m i.i.d. exponential
// compute times of mean y (paper Sec 3.2) — the closed form the tests hold
// the round pricer and the K-sync server's clock to.

// HarmonicNumber returns H_n = sum_{i=1..n} 1/i. H_0 = 0.
func HarmonicNumber(n int) float64 {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}

// Summary holds basic sample statistics.
type Summary struct {
	N             int
	Mean          float64
	Var           float64 // unbiased sample variance
	Min, Max      float64
	P50, P90, P99 float64
}

// Summarize computes summary statistics of the samples. It panics on an
// empty input.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		panic("rng: Summarize of empty sample set")
	}
	s := Summary{N: len(samples), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, v := range samples {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, v := range samples {
			d := v - s.Mean
			ss += d * d
		}
		s.Var = ss / float64(s.N-1)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.P50 = quantileSorted(sorted, 0.50)
	s.P90 = quantileSorted(sorted, 0.90)
	s.P99 = quantileSorted(sorted, 0.99)
	return s
}

// quantileSorted returns the q-quantile of an ascending-sorted slice using
// linear interpolation between closest ranks.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is a fixed-bin-width histogram over [Low, High); samples outside
// the range are clamped into the first/last bin. It backs Fig 5 (runtime
// per-iteration distributions).
type Histogram struct {
	Low, High float64
	Counts    []int
	total     int
}

// NewHistogram creates a histogram with the given number of bins.
func NewHistogram(low, high float64, bins int) *Histogram {
	if bins < 1 || high <= low {
		panic("rng: NewHistogram needs bins >= 1 and high > low")
	}
	return &Histogram{Low: low, High: high, Counts: make([]int, bins)}
}

// Add records a sample.
func (h *Histogram) Add(v float64) {
	bins := len(h.Counts)
	idx := int(float64(bins) * (v - h.Low) / (h.High - h.Low))
	if idx < 0 {
		idx = 0
	}
	if idx >= bins {
		idx = bins - 1
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.High - h.Low) / float64(len(h.Counts))
	return h.Low + (float64(i)+0.5)*w
}

// Density returns the probability mass in bin i (count / total). Zero when
// no samples have been recorded.
func (h *Histogram) Density(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}
