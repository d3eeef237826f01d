package compress

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// lawDims are the workloads' parameter counts: the 64x10 logistic model of
// the async fleet and the parameter server, the quick-scale ResNet and VGG
// conv nets, and wire_mix's 1024x16 logistic model.
var lawDims = []int{650, 3706, 6058, 16400}

// lawShapes are the vector shapes the laws are drawn over: gaussian, heavy
// tailed (a cubed gaussian: most of the mass in few coordinates, as in a
// sparse gradient), and all magnitudes tied.
var lawShapes = []string{"gauss", "cubed", "ties"}

// lawVec fills e with a fresh draw of shape.
func lawVec(r *rng.Rand, e []float64, shape string) {
	r.FillNormFloat64(e)
	for i, x := range e {
		switch shape {
		case "cubed":
			e[i] = x * x * x
		case "ties":
			e[i] = math.Copysign(1, x)
		}
	}
}

// lawDraws is how many vectors a law averages over at dim: about 200k
// coordinates per cell, never fewer than 50 vectors.
func lawDraws(dim int) int { return max(50, 200_000/dim) }

// errRatio compresses e once and returns ||e - C(e)||^2 / ||e||^2, the
// factor by which e <- e - C(e) — error feedback's residual, CHOCO's estimate
// error — scales the squared norm.
func errRatio(t *testing.T, c *Compressor, msg *Message, dec, e []float64) float64 {
	t.Helper()
	c.CompressInto(e, msg)
	if err := Decode(*msg, dec); err != nil {
		t.Fatal(err)
	}
	var num, den float64
	for i, x := range e {
		d := x - dec[i]
		num += d * d
		den += x * x
	}
	return num / den
}

// meanRatio averages errRatio over n fresh draws of shape and returns the
// mean and its standard error.
func meanRatio(t *testing.T, spec string, dim int, shape string, seed uint64) (mean, se float64) {
	t.Helper()
	c := mustNew(t, spec, seed)
	r := rng.New(seed + 1)
	var msg Message
	e, dec := make([]float64, dim), make([]float64, dim)
	n := lawDraws(dim)
	var sum, sq float64
	for range n {
		lawVec(r, e, shape)
		x := errRatio(t, c, &msg, dec, e)
		sum += x
		sq += x * x
	}
	mean = sum / float64(n)
	// Clamped: where every draw gives one ratio, rounding can leave the
	// variance a hair below zero.
	return mean, math.Sqrt(max(0, sq/float64(n)-mean*mean) / float64(n-1))
}

// TestRandKErrorLaw: scaled rand-k keeps k = p*d coordinates times d/k, so
// for every vector E||e - C(e)||^2 / ||e||^2 = (1-q)/q with q = k/d — above 1
// below p = 0.5, which is why error feedback and CHOCO gossip diverge on it
// there. The mean over the draws must lie within four standard errors of the
// law (or within 1e-9 of it relative, for tied magnitudes, whose ratio does
// not vary), and the draws must be enough that the standard error is under 5%
// of it.
func TestRandKErrorLaw(t *testing.T) {
	for _, dim := range lawDims {
		for _, p := range []float64{0.1, 0.25, 0.5, 0.9} {
			q := float64(keepCount(p, dim)) / float64(dim)
			want := (1 - q) / q
			for _, shape := range lawShapes {
				spec := fmt.Sprintf("randk:%g", p)
				mean, se := meanRatio(t, spec, dim, shape, uint64(dim)+uint64(p*100))
				if se > 0.05*want || math.Abs(mean-want) > max(4*se, 1e-9*want) {
					t.Errorf("%s at %d, %s vectors: E ratio %.4f +- %.4f, law (1-q)/q = %.4f", spec, dim, shape, mean, se, want)
				}
			}
		}
	}
}

// TestTopKErrorLaw: top-k drops the d-k smallest squares, so for EVERY
// vector ||e - C(e)||^2 <= (1 - k/d) ||e||^2 (equality when all magnitudes
// tie); the slack is 1e-12 relative, for the sums' rounding.
func TestTopKErrorLaw(t *testing.T) {
	for _, dim := range lawDims {
		for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.9} {
			spec := fmt.Sprintf("topk:%g", p)
			c := mustNew(t, spec, 1)
			bound := 1 - float64(keepCount(p, dim))/float64(dim)
			r := rng.New(uint64(dim))
			var msg Message
			e, dec := make([]float64, dim), make([]float64, dim)
			for _, shape := range lawShapes {
				for k := range lawDraws(dim) / 10 {
					lawVec(r, e, shape)
					if x := errRatio(t, c, &msg, dec, e); x > bound*(1+1e-12) {
						t.Fatalf("%s at %d, %s draw %d: ratio %v above 1 - k/d = %v", spec, dim, shape, k, x, bound)
					}
				}
			}
		}
	}
}

// TestQSGDErrorLaw measures E||e - Q(e)||^2 / ||e||^2 for QSGD at 2, 3 and 4
// bits at the workloads' dims and holds it to the variance bound QSGD
// guarantees (Alistarh et al. 2017, Lemma 3.1): with s = 2^bits - 1 levels,
// E||Q(e) - e||^2 <= min(d/s^2, sqrt(d)/s) ||e||^2. The bound is on the
// expectation, so the mean over the draws is held to it with four standard
// errors of room. Run with -v to read the measured ratios.
func TestQSGDErrorLaw(t *testing.T) {
	for _, bits := range []int{2, 3, 4} {
		s := levelCount(bits)
		for _, dim := range lawDims {
			d := float64(dim)
			bound := min(d/(s*s), math.Sqrt(d)/s)
			for _, shape := range lawShapes {
				spec := fmt.Sprintf("qsgd:%d", bits)
				mean, se := meanRatio(t, spec, dim, shape, uint64(dim*bits))
				t.Logf("%s at %5d, %-5s vectors: E ratio %8.4f +- %.4f (bound %.4f)", spec, dim, shape, mean, se, bound)
				if mean > bound+4*se {
					t.Errorf("%s at %d, %s vectors: E ratio %v +- %v above QSGD's bound %v", spec, dim, shape, mean, se, bound)
				}
			}
		}
	}
}
