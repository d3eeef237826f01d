package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must differ from both a fresh parent continuation
	// and a same-seed generator.
	ref := New(7)
	ref.Uint64() // parent consumed one value during Split
	for i := 0; i < 100; i++ {
		if child.Uint64() == ref.Uint64() {
			t.Fatalf("child correlated with parent continuation at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

// TestFillFloat64IsSuccessiveFloat64: the batched fill is the same stream —
// value for value, in index order — as one Float64 call per element, and it
// leaves the generator where those calls would. The lengths walk the kernel's
// groups of four and their remainders, straddle the 256-draw tile the QSGD
// quantizer fills, and include the logistic workloads' 650 parameters; a
// sentinel past dst must survive.
func TestFillFloat64IsSuccessiveFloat64(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257, 650, 16400} {
		a, b := New(77), New(77)
		a.Uint64() // off the seed state
		b.Uint64()
		buf := make([]float64, n+1)
		buf[n] = -1
		got := buf[:n]
		a.FillFloat64(got)
		for i := range got {
			if want := b.Float64(); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("len %d: draw %d = %v, Float64 gives %v", n, i, got[i], want)
			}
		}
		if buf[n] != -1 {
			t.Fatalf("len %d: the fill wrote past dst", n)
		}
		if *a != *b || a.Uint64() != b.Uint64() {
			t.Fatalf("len %d: state after the fill %x, after %d Float64 calls %x", n, a.s, n, b.s)
		}
	}
	// An empty fill advances nothing (a nil destination included).
	r, untouched := New(5), New(5)
	r.FillFloat64(nil)
	r.FillFloat64([]float64{})
	if *r != *untouched {
		t.Fatal("an empty fill advanced the generator")
	}
}

// TestFillNormFloat64IsSuccessiveNormFloat64: the tiled fill is the same
// stream — value for value, in index order — as one NormFloat64 call per
// element, and leaves the generator where those calls would, whatever the
// length does to the tiling (the lengths straddle one and two 128-attempt
// tiles) and whatever is drawn between fills.
func TestFillNormFloat64IsSuccessiveNormFloat64(t *testing.T) {
	check := func(a, b *Rand, n int) {
		t.Helper()
		got := make([]float64, n)
		a.FillNormFloat64(got)
		for i := range got {
			if want := b.NormFloat64(); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("len %d: draw %d = %v, NormFloat64 gives %v", n, i, got[i], want)
			}
		}
		if *a != *b { // hence every later draw, the next Uint64 included
			t.Fatalf("len %d: state after the fill %x, after %d NormFloat64 calls %x", n, a.s, n, b.s)
		}
	}
	for _, n := range []int{0, 1, 2, 3, 127, 128, 129, 255, 256, 257, 1024, 16400} {
		for seed := uint64(1); seed <= 3; seed++ {
			check(New(seed), New(seed), n)
		}
	}
	// The GaussianBlobs pattern: a row, then a Float64 and sometimes an Intn.
	// An odd number of uniforms between fills flips which words of the
	// stream pair up into attempts.
	a, b := New(9), New(9)
	for row := 0; row < 200; row++ {
		check(a, b, 1+row%67)
		if fa, fb := a.Float64(), b.Float64(); fa != fb {
			t.Fatalf("row %d: Float64 after the fill %v, after the calls %v", row, fa, fb)
		} else if fa < 0.5 && a.Intn(10) != b.Intn(10) {
			t.Fatalf("row %d: Intn diverged", row)
		}
	}
	// An empty fill advances nothing (a nil destination included).
	r, untouched := New(5), New(5)
	r.FillNormFloat64(nil)
	r.FillNormFloat64([]float64{})
	if *r != *untouched {
		t.Fatal("an empty fill advanced the generator")
	}
}

// TestFillNormFloat64AllocFree: the two tiles stay on the stack.
func TestFillNormFloat64AllocFree(t *testing.T) {
	r, dst := New(3), make([]float64, 1000)
	if n := testing.AllocsPerRun(20, func() { r.FillNormFloat64(dst) }); n != 0 {
		t.Fatalf("FillNormFloat64 allocates %v times per call, want 0", n)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for n := 1; n <= 17; n++ {
		seen := make([]bool, n)
		for i := 0; i < 200*n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("Intn(%d) never produced %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(6)
	for _, n := range []int{1, 2, 5, 64, 257} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(8)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Perm first element %d count %d deviates from %v", v, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const n = 300000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal var = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(10)
	const n = 300000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exp mean = %v, want ~1", mean)
	}
}

// checkMean verifies the Monte-Carlo mean of d against its analytic one.
func checkMean(t *testing.T, d Distribution, n int, meanTol float64) {
	t.Helper()
	r := New(11)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	if mean := sum / float64(n); math.Abs(mean-d.Mean()) > meanTol {
		t.Fatalf("%s: sample mean %v vs analytic %v", d, mean, d.Mean())
	}
}

func TestDistributionMoments(t *testing.T) {
	checkMean(t, Constant{2.5}, 100, 1e-12)
	checkMean(t, Exponential{2}, 300000, 0.03)
	checkMean(t, ShiftedExponential{Shift: 1, Scale: 0.5}, 200000, 0.01)
	checkMean(t, Pareto{Xm: 1, Alpha: 3}, 400000, 0.02)
}

func TestParetoInfiniteMoments(t *testing.T) {
	if !math.IsInf((Pareto{Xm: 1, Alpha: 1}).Mean(), 1) {
		t.Fatal("Pareto alpha<=1 should have infinite mean")
	}
}

func TestHarmonicNumber(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {1, 1}, {2, 1.5}, {3, 1.5 + 1.0/3},
		{4, 1.5 + 1.0/3 + 0.25},
	}
	for _, c := range cases {
		if got := HarmonicNumber(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("H_%d = %v, want %v", c.n, got, c.want)
		}
	}
	// H_m ~ ln m + gamma for large m.
	if got := HarmonicNumber(100000); math.Abs(got-(math.Log(100000)+0.5772156649)) > 1e-4 {
		t.Fatalf("H_100000 = %v deviates from asymptotic", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad summary %+v", s)
	}
	if math.Abs(s.Var-2.5) > 1e-12 {
		t.Fatalf("variance %v, want 2.5", s.Var)
	}
	if s.P50 != 3 {
		t.Fatalf("median %v, want 3", s.P50)
	}
}

func TestSummarizePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Summarize(empty) did not panic")
		}
	}()
	Summarize(nil)
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-5) // clamps into first bin
	h.Add(50) // clamps into last bin
	if h.Total() != 12 {
		t.Fatalf("total %d, want 12", h.Total())
	}
	if h.Counts[0] != 2 || h.Counts[9] != 2 {
		t.Fatalf("clamping failed: %v", h.Counts)
	}
	if c := h.BinCenter(0); math.Abs(c-0.5) > 1e-12 {
		t.Fatalf("bin center %v, want 0.5", c)
	}
	if d := h.Density(0); math.Abs(d-2.0/12) > 1e-12 {
		t.Fatalf("density %v, want %v", d, 2.0/12)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileProperties(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		s := Summarize(vals)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
