package bound

import (
	"math"
	"testing"
	"testing/quick"
)

// fig6Constants are the exact constants the paper uses for Figure 6:
// F(x1)=1, Finf=0, eta=0.08, L=1, sigma^2=1, m=16, y=1, D=1.
func fig6Constants() Constants {
	return Constants{F1: 1, Finf: 0, Eta: 0.08, L: 1, Sigma2: 1, M: 16, Y: 1, D: 1}
}

// ceilTau rounds tau* up to an integer period >= 1, as AdaComm does.
func ceilTau(c Constants, T float64) int {
	return max(1, int(math.Ceil(c.OptimalTau(T))))
}

func TestErrorAtTimeStructure(t *testing.T) {
	c := fig6Constants()
	// At any fixed T, the transient term shrinks with tau but the floor
	// grows; check both limits.
	if c.ErrorAtTime(10, 1) <= c.ErrorFloor(1) {
		t.Fatal("finite-time bound must exceed the floor")
	}
	// As T -> inf the bound approaches the floor.
	if math.Abs(c.ErrorAtTime(1e12, 10)-c.ErrorFloor(10)) > 1e-9 {
		t.Fatal("bound does not approach floor at large T")
	}
	// Zero/negative time is infinitely bad.
	if !math.IsInf(c.ErrorAtTime(0, 1), 1) {
		t.Fatal("bound at T=0 should be +Inf")
	}
}

func TestFloorMonotoneInTau(t *testing.T) {
	c := fig6Constants()
	prev := -1.0
	for tau := 1; tau <= 128; tau *= 2 {
		f := c.ErrorFloor(tau)
		if f <= prev {
			t.Fatalf("floor not increasing at tau=%d", tau)
		}
		prev = f
	}
}

func TestFig6Shape(t *testing.T) {
	// Reproduce Fig 6's qualitative claim: PASGD tau=10 starts below sync
	// SGD (faster early drop) but ends above it (higher floor).
	c := fig6Constants()
	early := 200.0
	late := 4000.0
	if c.ErrorAtTime(early, 10) >= c.ErrorAtTime(early, 1) {
		t.Fatalf("tau=10 should win early: %v vs %v",
			c.ErrorAtTime(early, 10), c.ErrorAtTime(early, 1))
	}
	if c.ErrorAtTime(late, 10) <= c.ErrorAtTime(late, 1) {
		t.Fatalf("tau=1 should win late: %v vs %v",
			c.ErrorAtTime(late, 1), c.ErrorAtTime(late, 10))
	}
}

func TestCrossoverTimeConsistent(t *testing.T) {
	c := fig6Constants()
	T := c.CrossoverTime(10, 1)
	if math.IsNaN(T) || T <= 0 {
		t.Fatalf("crossover time %v", T)
	}
	// At the crossover the two bounds must agree.
	a := c.ErrorAtTime(T, 10)
	b := c.ErrorAtTime(T, 1)
	if math.Abs(a-b) > 1e-9*(a+b) {
		t.Fatalf("bounds differ at crossover: %v vs %v", a, b)
	}
	// Before: tau=10 wins; after: tau=1 wins.
	if c.ErrorAtTime(T/2, 10) >= c.ErrorAtTime(T/2, 1) {
		t.Fatal("tau=10 should win before crossover")
	}
	if c.ErrorAtTime(T*2, 10) <= c.ErrorAtTime(T*2, 1) {
		t.Fatal("tau=1 should win after crossover")
	}
}

func TestOptimalTauMinimizesBound(t *testing.T) {
	c := fig6Constants()
	for _, T := range []float64{100, 500, 2000, 10000} {
		star := ceilTau(c, T)
		best := c.ErrorAtTime(T, star)
		// tau* (or its floor neighbor) must beat all other integer taus.
		if star > 1 {
			if v := c.ErrorAtTime(T, star-1); v < best {
				best = v
			}
		}
		for tau := 1; tau <= 200; tau++ {
			if v := c.ErrorAtTime(T, tau); v < best-1e-12 {
				t.Fatalf("T=%v: tau=%d bound %v beats tau*=%d bound %v", T, tau, v, star, best)
			}
		}
	}
}

func TestOptimalTauDecreasesWithTime(t *testing.T) {
	// Theorem 2: tau* ~ 1/sqrt(T), so later intervals get smaller periods
	// — the monotone-decreasing schedule AdaComm generates.
	c := fig6Constants()
	prev := math.Inf(1)
	for _, T := range []float64{10, 100, 1000, 10000} {
		v := c.OptimalTau(T)
		if v >= prev {
			t.Fatalf("tau* not decreasing at T=%v", T)
		}
		prev = v
	}
}

func TestOptimalTauScalings(t *testing.T) {
	c := fig6Constants()
	// tau* grows with D (more expensive comm -> communicate less often).
	c2 := c
	c2.D = 4
	if c2.OptimalTau(100) <= c.OptimalTau(100) {
		t.Fatal("tau* should grow with D")
	}
	// tau* shrinks with sigma^2 (noisier gradients -> average more often).
	c3 := c
	c3.Sigma2 = 4
	if c3.OptimalTau(100) >= c.OptimalTau(100) {
		t.Fatal("tau* should shrink with sigma^2")
	}
	// Exact value check against eq 14.
	want := math.Sqrt(2 * 1 * 1 / (math.Pow(0.08, 3) * 1 * 1 * 100))
	if got := c.OptimalTau(100); math.Abs(got-want) > 1e-12 {
		t.Fatalf("tau*(100) = %v, want %v", got, want)
	}
}

func TestOptimalTauDegenerate(t *testing.T) {
	c := fig6Constants()
	c.Sigma2 = 0
	if !math.IsInf(c.OptimalTau(100), 1) {
		t.Fatal("zero noise should give infinite tau*")
	}
}

func TestCurve(t *testing.T) {
	c := fig6Constants()
	times, values := c.Curve(10, 4000, 50)
	if len(times) != 50 || len(values) != 50 {
		t.Fatal("curve length wrong")
	}
	// Values are positive, decreasing, and approach (but exceed) the floor.
	floor := c.ErrorFloor(10)
	for i := range values {
		if values[i] <= floor {
			t.Fatalf("curve point %d below floor", i)
		}
		if i > 0 && values[i] >= values[i-1] {
			t.Fatalf("curve not decreasing at %d", i)
		}
	}
	if times[49] != 4000 {
		t.Fatalf("last time %v, want 4000", times[49])
	}
}

// Property: ErrorAtTime is decreasing in T for any valid tau.
func TestErrorMonotoneInTimeProperty(t *testing.T) {
	c := fig6Constants()
	f := func(t8 uint8, k8 uint8) bool {
		tau := 1 + int(t8)%64
		T1 := 1 + float64(k8)
		T2 := T1 * 2
		return c.ErrorAtTime(T2, tau) <= c.ErrorAtTime(T1, tau)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the bound at tau* never exceeds the bound at tau=1 or tau=100.
func TestOptimalTauNeverWorseProperty(t *testing.T) {
	c := fig6Constants()
	f := func(k8 uint8) bool {
		T := 10 + 50*float64(k8)
		star := ceilTau(c, T)
		if star > 10000 {
			star = 10000
		}
		// Either tau* or its lower neighbor must match-or-beat both
		// endpoints (ceiling can overshoot by < 1).
		best := c.ErrorAtTime(T, star)
		if star > 1 {
			if v := c.ErrorAtTime(T, star-1); v < best {
				best = v
			}
		}
		return best <= c.ErrorAtTime(T, 1)+1e-12 && best <= c.ErrorAtTime(T, 100)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
