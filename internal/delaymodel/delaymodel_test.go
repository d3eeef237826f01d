package delaymodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestScalings(t *testing.T) {
	if (ConstantScaling{}).Factor(16) != 1 {
		t.Fatal("constant scaling")
	}
	if (LinearScaling{}).Factor(16) != 16 {
		t.Fatal("linear scaling")
	}
	if got := (TreeScaling{}).Factor(16); math.Abs(got-8) > 1e-12 {
		t.Fatalf("tree scaling factor(16) = %v, want 8", got)
	}
	if (TreeScaling{}).Factor(1) != 1 {
		t.Fatal("tree scaling m=1 should be 1")
	}
}

func TestAlpha(t *testing.T) {
	dm := New(4, rng.Constant{Value: 2}, rng.Constant{Value: 1}, ConstantScaling{})
	if got := dm.MeanD() / dm.MeanY(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("alpha = %v, want 0.5", got)
	}
	dm2 := New(4, rng.Constant{Value: 1}, rng.Constant{Value: 1}, LinearScaling{})
	if got := dm2.MeanD() / dm2.MeanY(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("alpha with linear scaling = %v, want 4", got)
	}
}

func TestSampleSyncConstant(t *testing.T) {
	// With constant Y and D, every sync iteration takes exactly Y+D.
	dm := New(8, rng.Constant{Value: 1}, rng.Constant{Value: 0.5}, ConstantScaling{})
	r := rng.New(1)
	for i := 0; i < 10; i++ {
		if got := dm.SampleRoundBytes(1, r, 0); math.Abs(got-1.5) > 1e-12 {
			t.Fatalf("sync iter = %v, want 1.5", got)
		}
	}
}

func TestSampleRoundConstant(t *testing.T) {
	dm := New(8, rng.Constant{Value: 1}, rng.Constant{Value: 0.5}, ConstantScaling{})
	r := rng.New(2)
	// Round of tau=10: 10*1 + 0.5.
	if got := dm.SampleRoundBytes(10, r, 0); math.Abs(got-10.5) > 1e-12 {
		t.Fatalf("round = %v, want 10.5", got)
	}
	// Per-iteration: 1.05.
	if got := dm.SampleRoundBytes(10, r, 0) / 10; math.Abs(got-1.05) > 1e-12 {
		t.Fatalf("per-iter = %v, want 1.05", got)
	}
}

func TestSpeedupConstantEq12(t *testing.T) {
	// Spot-check eq 12 values: alpha=0.9, tau->inf approaches 1.9.
	if got := SpeedupConstant(0.9, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("speedup at tau=1 must be 1, got %v", got)
	}
	if got := SpeedupConstant(0.9, 100); got < 1.87 || got > 1.9 {
		t.Fatalf("speedup(0.9, 100) = %v, want ~1.88", got)
	}
	// Monotone increasing in tau.
	prev := 0.0
	for tau := 1; tau <= 64; tau *= 2 {
		cur := SpeedupConstant(0.5, tau)
		if cur <= prev {
			t.Fatalf("speedup not increasing at tau=%d", tau)
		}
		prev = cur
	}
	// Monotone increasing in alpha at fixed tau.
	if SpeedupConstant(0.1, 10) >= SpeedupConstant(0.9, 10) {
		t.Fatal("speedup should grow with alpha")
	}
}

func TestSpeedupMCMatchesFormulaForConstants(t *testing.T) {
	dm := New(4, rng.Constant{Value: 1}, rng.Constant{Value: 0.9}, ConstantScaling{})
	r := rng.New(3)
	mc := dm.SpeedupMC(10, 1000, r)
	want := SpeedupConstant(0.9, 10)
	if math.Abs(mc-want) > 1e-9 {
		t.Fatalf("MC speedup %v vs formula %v", mc, want)
	}
}

func TestExpectedSyncExponentialClosedForm(t *testing.T) {
	dm := New(16, rng.Exponential{MeanVal: 1}, rng.Constant{Value: 1}, ConstantScaling{})
	want := rng.HarmonicNumber(16) + 1
	if got := dm.ExpectedSyncIterationExponential(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("closed form %v, want %v", got, want)
	}
	// Monte-Carlo agreement.
	r := rng.New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += dm.SampleRoundBytes(1, r, 0)
	}
	if mc := sum / n; math.Abs(mc-want) > 0.02 {
		t.Fatalf("MC %v vs closed form %v", mc, want)
	}
}

func TestClosedFormPanicsForNonExponential(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-exponential Y")
		}
	}()
	New(4, rng.Constant{Value: 1}, rng.Constant{Value: 1}, ConstantScaling{}).
		ExpectedSyncIterationExponential()
}

func TestStragglerMitigation(t *testing.T) {
	// Paper Fig 5's claim: with exponential Y (m=16, y=1, D=1), the mean
	// per-iteration time of PASGD(tau=10) is roughly 2x smaller than sync
	// SGD, and its distribution has a lighter tail.
	dm := New(16, rng.Exponential{MeanVal: 1}, rng.Constant{Value: 1}, ConstantScaling{})
	r := rng.New(5)
	const trials = 50000
	syncMean := 0.0
	syncVals := make([]float64, trials)
	pavgVals := make([]float64, trials)
	pavgMean := 0.0
	for i := 0; i < trials; i++ {
		s := dm.SampleRoundBytes(1, r, 0)
		p := dm.SampleRoundBytes(10, r, 0) / 10
		syncMean += s
		pavgMean += p
		syncVals[i] = s
		pavgVals[i] = p
	}
	syncMean /= trials
	pavgMean /= trials
	ratio := syncMean / pavgMean
	if ratio < 1.8 || ratio > 2.6 {
		t.Fatalf("mean speedup %v, paper reports ~2x", ratio)
	}
	// Lighter tail: PASGD's p99 per-iteration time is smaller.
	ss := rng.Summarize(syncVals)
	ps := rng.Summarize(pavgVals)
	if ps.P99 >= ss.P99 {
		t.Fatalf("PASGD p99 %v should beat sync p99 %v", ps.P99, ss.P99)
	}
	if ps.Var >= ss.Var {
		t.Fatalf("PASGD variance %v should beat sync %v", ps.Var, ss.Var)
	}
}

func TestMCMeanPerIterationDecreasesInTau(t *testing.T) {
	dm := New(8, rng.Exponential{MeanVal: 1}, rng.Constant{Value: 1}, ConstantScaling{})
	r := rng.New(6)
	prev := math.Inf(1)
	for _, tau := range []int{1, 2, 5, 10, 50} {
		cur := dm.MCMeanPerIteration(tau, 20000, r)
		if cur >= prev {
			t.Fatalf("per-iteration time not decreasing at tau=%d: %v >= %v", tau, cur, prev)
		}
		prev = cur
	}
}

func TestProfiles(t *testing.T) {
	vgg := VGG16Profile()
	res := ResNet50Profile()
	am := func(p Profile) float64 {
		dm := p.Model(4, ConstantScaling{})
		return dm.MeanD() / dm.MeanY()
	}
	if a := am(vgg); a < 3 || a > 5 {
		t.Fatalf("VGG alpha %v, want ~4 (paper Fig 8)", a)
	}
	if a := am(res); a < 0.3 || a > 0.8 {
		t.Fatalf("ResNet alpha %v, want ~0.5 (paper Fig 8)", a)
	}
	if am(vgg) <= am(res) {
		t.Fatal("VGG must be more communication-bound than ResNet")
	}
}

func TestMeasureBreakdown(t *testing.T) {
	r := rng.New(7)
	b1 := MeasureBreakdownBytes(VGG16Profile(), 4, 1, 100, r, 0)
	b10 := MeasureBreakdownBytes(VGG16Profile(), 4, 10, 100, r, 0)
	if b1.Iters != 100 || b10.Iters != 100 {
		t.Fatal("wrong iteration count")
	}
	// tau=10 performs 10 broadcasts instead of 100: ~10x less comm time.
	if b10.Comm >= b1.Comm/5 {
		t.Fatalf("tau=10 comm %v not ~10x below tau=1 comm %v", b10.Comm, b1.Comm)
	}
	// Compute time is roughly unchanged (same number of local steps).
	if b10.Compute > 2*b1.Compute || b1.Compute > 2*b10.Compute {
		t.Fatalf("compute changed too much: %v vs %v", b1.Compute, b10.Compute)
	}
	// For the VGG profile, comm dominates at tau=1 (paper Fig 8).
	if b1.Comm <= b1.Compute {
		t.Fatalf("VGG tau=1: comm %v should dominate compute %v", b1.Comm, b1.Compute)
	}
	if b1.WallClock != b1.Compute+b1.Comm {
		t.Fatal("wallclock != compute + comm")
	}
}

func TestMeasureBreakdownPartialLastRound(t *testing.T) {
	// iters not divisible by tau: the final round has fewer steps but the
	// total local-step count must still equal iters.
	r := rng.New(8)
	b := MeasureBreakdownBytes(Profile{
		Name:     "unit",
		ComputeY: rng.Constant{Value: 1},
		CommD0:   rng.Constant{Value: 0},
	}, 1, 7, 10, r, 0)
	if math.Abs(b.Compute-10) > 1e-12 {
		t.Fatalf("compute %v, want 10 unit steps", b.Compute)
	}
}

// Property: eq-12 speedup is always in [1, 1+alpha].
func TestSpeedupBoundsProperty(t *testing.T) {
	f := func(a8, t8 uint8) bool {
		alpha := float64(a8) / 64.0
		tau := 1 + int(t8)%128
		s := SpeedupConstant(alpha, tau)
		return s >= 1-1e-12 && s <= 1+alpha+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Size-aware communication cost.
// ---------------------------------------------------------------------------

func TestSampleDRoundInfiniteBandwidthIdentical(t *testing.T) {
	// Bandwidth 0 must reproduce the paper's size-free D = D0 * s(M)
	// exactly: same values, same RNG consumption, for any payload size.
	dm := New(4, rng.Constant{Value: 1}, rng.Exponential{MeanVal: 0.3}, TreeScaling{})
	r1, r2 := rng.New(17), rng.New(17)
	for i := 0; i < 100; i++ {
		a := dm.D0.Sample(r1) * dm.Scale.Factor(dm.M)
		b := dm.SampleDScheduleInto(r2, dm.payloads(1<<20), 1, 1, nil)
		if a != b {
			t.Fatalf("sample %d: D0*s(M) %v != SampleDRound %v", i, a, b)
		}
	}
}

func TestSampleDRoundChargesTransfer(t *testing.T) {
	dm := New(4, rng.Constant{Value: 1}, rng.Constant{Value: 0.5}, ConstantScaling{})
	dm.Bandwidth = 1000 // bytes per simulated second
	r := rng.New(1)
	got := dm.SampleDScheduleInto(r, dm.payloads(2000), 1, 1, nil)
	want := 0.5 + 2000.0/1000
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("sized delay %v, want %v", got, want)
	}
	// Zero payload pays latency only.
	if got := dm.SampleDScheduleInto(r, dm.payloads(0), 1, 1, nil); got != 0.5 {
		t.Fatalf("zero payload delay %v, want 0.5", got)
	}
}

func TestSampleDRoundScalesTransferWithTopology(t *testing.T) {
	// The transfer term is carried by every hop: s(m) multiplies it too.
	dm := New(8, rng.Constant{Value: 1}, rng.Constant{Value: 0.1}, LinearScaling{})
	dm.Bandwidth = 100
	r := rng.New(2)
	got := dm.SampleDScheduleInto(r, dm.payloads(50), 1, 1, nil)
	want := (0.1 + 0.5) * 8
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("scaled sized delay %v, want %v", got, want)
	}
	if m := dm.MeanDBytes(50); math.Abs(m-want) > 1e-12 {
		t.Fatalf("MeanDBytes %v, want %v", m, want)
	}
}

func TestConstrainedProfile(t *testing.T) {
	p := VGG16Profile().Constrained(512)
	dm := p.Model(4, ConstantScaling{})
	if dm.Bandwidth != 512 {
		t.Fatalf("bandwidth %v not propagated to model", dm.Bandwidth)
	}
	// The unconstrained profile's model keeps an infinite link.
	if VGG16Profile().Model(4, ConstantScaling{}).Bandwidth != 0 {
		t.Fatal("legacy profile grew a bandwidth")
	}
}

func TestFederatedProfileBandwidthBound(t *testing.T) {
	p := FederatedProfile(1.0, 100)
	dm := p.Model(4, ConstantScaling{})
	// A 1 KiB payload should dominate the tiny base latency.
	if dm.MeanDBytes(1024) < 10 {
		t.Fatalf("federated 1KiB broadcast %v, want >= 10 (bandwidth-bound)", dm.MeanDBytes(1024))
	}
	if dm.MeanD() > 0.1 {
		t.Fatalf("federated latency %v, want small", dm.MeanD())
	}
}

// ---------------------------------------------------------------------------
// Transfer schedules, heterogeneous links, and the *Bytes MC variants.
// ---------------------------------------------------------------------------

func TestSampleDScheduleHomogeneousMatchesSampleDBytes(t *testing.T) {
	// With nil Links and unit hop multipliers the schedule sampler is the
	// legacy per-link charge, bit for bit and draw for draw.
	dm := New(4, rng.Constant{Value: 1}, rng.Exponential{MeanVal: 2}, TreeScaling{})
	dm.Bandwidth = 100
	r1, r2 := rng.New(3), rng.New(3)
	for i := 0; i < 50; i++ {
		a := dm.refSampleDBytes(r1, 640)
		b := dm.SampleDScheduleInto(r2, []int{100, 640, 10, 5}, 1, 1, nil)
		if a != b {
			t.Fatalf("schedule %v != legacy %v at draw %d", b, a, i)
		}
	}
}

func TestSampleDScheduleHopMultipliers(t *testing.T) {
	dm := New(4, rng.Constant{Value: 1}, rng.Constant{Value: 2}, ConstantScaling{})
	dm.Bandwidth = 100
	r := rng.New(1)
	// latHops scales the base latency, bytesFactor the transfer term.
	got := dm.SampleDScheduleInto(r, []int{200}, 3, 1.5, nil)
	want := 2*3 + 200*1.5/100.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("schedule delay %v, want %v", got, want)
	}
}

func TestSampleDScheduleSlowestLinkGates(t *testing.T) {
	dm := New(3, rng.Constant{Value: 1}, rng.Constant{Value: 1}, ConstantScaling{})
	dm.Bandwidth = 100
	dm.Links = []Link{{}, {Bandwidth: 10}, {Latency: 5}}
	r := rng.New(1)
	// Worker 0 inherits 100 B/s (1 s), worker 1 pays 100/10 = 10 s, worker 2
	// pays 5 s latency plus 1 s transfer: the 10 s link gates the round.
	got := dm.SampleDScheduleInto(r, []int{100, 100, 100}, 1, 1, nil)
	if want := 1 + 10.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("gated delay %v, want %v", got, want)
	}
}

func TestCheckLinks(t *testing.T) {
	dm := New(4, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
	if err := dm.Check(); err != nil {
		t.Fatalf("nil links rejected: %v", err)
	}
	dm.Links = make([]Link, 3)
	if err := dm.Check(); err == nil {
		t.Fatal("accepted 3 links for 4 workers")
	}
}

func TestParseLinks(t *testing.T) {
	links, err := ParseLinks("0.5:100, :50,0:,:", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Link{{Latency: 0.5, Bandwidth: 100}, {Bandwidth: 50}, {}, {}}
	for i := range want {
		if links[i] != want[i] {
			t.Fatalf("link %d = %+v, want %+v", i, links[i], want[i])
		}
	}
	if l, err := ParseLinks("", 4); err != nil || l != nil {
		t.Fatalf("empty spec should be nil links: %v %v", l, err)
	}
	for _, bad := range []string{"1:2", "x:1,:,:,:", "1:y,:,:,:", "-1:0,:,:,:"} {
		if _, err := ParseLinks(bad, 4); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestSampleRoundBytesChargesPayload(t *testing.T) {
	dm := New(4, rng.Constant{Value: 1}, rng.Constant{Value: 1}, ConstantScaling{})
	dm.Bandwidth = 100
	r := rng.New(2)
	// tau = 1 is a fully synchronous iteration, tau = 10 a PASGD round: both
	// pay the 500-byte payload once.
	for _, tau := range []int{1, 10} {
		free := dm.SampleRoundBytes(tau, r, 0)
		sized := dm.SampleRoundBytes(tau, r, 500)
		if want := free + 5; math.Abs(sized-want) > 1e-12 {
			t.Fatalf("tau %d: sized round %v, want %v", tau, sized, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("accepted tau = 0")
		}
	}()
	dm.SampleRoundBytes(0, r, 1)
}

func TestMeasureBreakdownBytes(t *testing.T) {
	p := Profile{
		Name:      "const",
		ComputeY:  rng.Constant{Value: 1},
		CommD0:    rng.Constant{Value: 1},
		Bandwidth: 100,
	}
	r := rng.New(3)
	b := MeasureBreakdownBytes(p, 4, 10, 100, r, 500)
	// 10 rounds: compute 10*10, comm 10*(1 + 500/100).
	if math.Abs(b.Compute-100) > 1e-12 || math.Abs(b.Comm-60) > 1e-12 {
		t.Fatalf("breakdown %+v, want compute 100 comm 60", b)
	}
	// A zero payload on the same constrained profile charges the paper's
	// fixed D (documented behavior).
	free := MeasureBreakdownBytes(p, 4, 10, 100, rng.New(3), 0)
	if math.Abs(free.Comm-10) > 1e-12 {
		t.Fatalf("size-free breakdown charged %v, want 10", free.Comm)
	}
}

func TestSampleDScheduleIntoMatchesSampleDSchedule(t *testing.T) {
	// Recording per-worker times must change neither the total nor the RNG
	// consumption, on both the homogeneous and the per-link path.
	bytes := []int{100, 640, 10, 5}
	for _, links := range [][]Link{nil, {{}, {Bandwidth: 10}, {Latency: 5}, {}}} {
		dm := New(4, rng.Constant{Value: 1}, rng.Exponential{MeanVal: 2}, TreeScaling{})
		dm.Bandwidth = 100
		dm.Links = links
		r1, r2 := rng.New(3), rng.New(3)
		times := make([]float64, 4)
		for i := 0; i < 50; i++ {
			a := dm.SampleDScheduleInto(r1, bytes, 2, 1.5, nil)
			b := dm.SampleDScheduleInto(r2, bytes, 2, 1.5, times)
			if a != b {
				t.Fatalf("links=%v draw %d: into %v != plain %v", links, i, b, a)
			}
		}
	}
}

func TestSampleDScheduleIntoPerWorkerTimes(t *testing.T) {
	dm := New(3, rng.Constant{Value: 1}, rng.Constant{Value: 1}, ConstantScaling{})
	dm.Bandwidth = 100
	dm.Links = []Link{{}, {Bandwidth: 10}, {Latency: 5}}
	times := make([]float64, 3)
	dm.SampleDScheduleInto(rng.New(1), []int{100, 100, 100}, 1, 1, times)
	want := []float64{1, 10, 6}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
	// Homogeneous path: every worker priced on the shared bandwidth.
	dm.Links = nil
	dm.SampleDScheduleInto(rng.New(1), []int{100, 200, 50}, 1, 2, times)
	want = []float64{2, 4, 1}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Fatalf("homogeneous times = %v, want %v", times, want)
		}
	}
}

// The shared bandwidth is a rate like any link's: a NaN or negative one used
// to read as a free, infinite link (bw > 0 is false), +Inf as one outright,
// and a subnormal whose reciprocal overflows priced every transfer at +Inf.
func TestCheckRejectsDegenerateSharedBandwidth(t *testing.T) {
	dm := New(4, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
	for _, bad := range []float64{math.NaN(), -1, math.Inf(1), math.Inf(-1), 5e-324, 1e-320} {
		dm.Bandwidth = bad
		if err := dm.Check(); err == nil {
			t.Errorf("accepted shared bandwidth %v", bad)
		}
	}
	for _, ok := range []float64{0, 1e-308, 100} {
		dm.Bandwidth = ok
		if err := dm.Check(); err != nil {
			t.Errorf("rejected shared bandwidth %v: %v", ok, err)
		}
	}
}

func TestCheckLinksRejectsDegenerateEntries(t *testing.T) {
	for _, bad := range [][]Link{
		{{Latency: -1}, {}, {}, {}},
		{{}, {Bandwidth: -5}, {}, {}},
		{{Latency: math.NaN()}, {}, {}, {}},
		{{}, {}, {Bandwidth: math.Inf(1)}, {}},
		// 1/1e-320 overflows: every transfer on the link priced at +Inf.
		{{}, {}, {}, {Bandwidth: 1e-320}},
	} {
		dm := New(4, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
		dm.Links = bad
		if err := dm.Check(); err == nil {
			t.Fatalf("accepted degenerate links %+v", bad)
		}
	}
	// Zero stays legal: zero latency is real, zero bandwidth inherits.
	dm := New(2, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
	dm.Links = []Link{{}, {Latency: 0, Bandwidth: 50}}
	if err := dm.Check(); err != nil {
		t.Fatalf("rejected valid links: %v", err)
	}
}

func TestParseLinksRejectsDegenerateEntries(t *testing.T) {
	for _, bad := range []string{
		"0:0,:,:,:",    // explicit zero bandwidth (use empty to inherit)
		"nan:1,:,:,:",  // NaN latency parses but is degenerate
		"1:nan,:,:,:",  // NaN bandwidth
		"inf:1,:,:,:",  // infinite latency
		"1:inf,:,:,:",  // infinite bandwidth
		"1:-2,:,:,:",   // negative bandwidth
		"-0.5:1,:,:,:", // negative latency
	} {
		if _, err := ParseLinks(bad, 4); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
	// Empty bandwidth still inherits; explicit zero latency still legal.
	links, err := ParseLinks("0:,0:100", 2)
	if err != nil {
		t.Fatal(err)
	}
	if links[0] != (Link{}) || links[1] != (Link{Bandwidth: 100}) {
		t.Fatalf("parsed %+v", links)
	}
}

func TestJitterScalesNilIsZeroConfig(t *testing.T) {
	dm := New(4, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
	s, err := dm.ComputeScales(nil)
	if err != nil || len(s) != 4 {
		t.Fatalf("ComputeScales(nil) = %v, %v", s, err)
	}
	for i, v := range s {
		if v != 1 {
			t.Fatalf("nil jitter, nil factors: worker %d factor %v, want 1", i, v)
		}
	}
	// Straggler factors pass through a nil Jitter unchanged, into a fresh
	// slice.
	factors := []float64{1, 3, 0.5, 2}
	s, err = dm.ComputeScales(factors)
	if err != nil {
		t.Fatal(err)
	}
	s[0] = 9
	if factors[0] != 1 || s[1] != 3 || s[2] != 0.5 || s[3] != 2 {
		t.Fatalf("factors %v -> scales %v", factors, s)
	}
}

// A straggler factor is a compute-time multiplier: NaN never gates a round
// (v > max is false), a negative one runs the clock backwards, and a wrong
// count used to index past the table. Both engines take this check.
func TestComputeScalesRejectsDegenerateFactors(t *testing.T) {
	dm := New(4, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
	for _, bad := range [][]float64{
		{1, math.NaN(), 1, 1},
		{1, 1, math.Inf(1), 1},
		{0, 1, 1, 1},
		{1, 1, 1, -1},
		{1, 1},
	} {
		if _, err := dm.ComputeScales(bad); err == nil {
			t.Errorf("accepted straggler factors %v", bad)
		}
	}
	// The product of two finite factors can overflow or underflow.
	dm.Jitter = rng.Constant{Value: 1e300}
	if _, err := dm.ComputeScales([]float64{1e10, 1, 1, 1}); err == nil {
		t.Error("accepted an infinite compute factor")
	}
	dm.Jitter = rng.Constant{Value: 1e-300}
	if _, err := dm.ComputeScales([]float64{1e-30, 1, 1, 1}); err == nil {
		t.Error("accepted a zero compute factor")
	}
}

// Jitter composes with the straggler factors by one multiply per worker.
func TestComputeScalesComposeFactorsAndJitter(t *testing.T) {
	dm := New(4, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
	dm.Jitter = rng.Pareto{Xm: 1, Alpha: 2}
	dm.JitterSeed = 7
	jit, err := dm.ComputeScales(nil)
	if err != nil {
		t.Fatal(err)
	}
	factors := []float64{1, 3, 0.5, 2}
	s, err := dm.ComputeScales(factors)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if s[i] != factors[i]*jit[i] {
			t.Fatalf("worker %d: %v, want %v x %v", i, s[i], factors[i], jit[i])
		}
	}
}

func TestJitterScalesSeededAndPerWorker(t *testing.T) {
	dm := New(8, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
	dm.Jitter = rng.Pareto{Xm: 1, Alpha: 2}
	dm.JitterSeed = 7
	a, err := dm.ComputeScales(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := dm.ComputeScales(nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worker %d jitter not reproducible: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 1 {
			t.Fatalf("worker %d Pareto(1,2) factor %v < Xm", i, a[i])
		}
	}
	distinct := false
	for i := 1; i < len(a); i++ {
		if a[i] != a[0] {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("all workers drew the same jitter factor")
	}
	dm.JitterSeed = 8
	c, _ := dm.ComputeScales(nil)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestJitterScalesRejectsDegenerateDraws(t *testing.T) {
	dm := New(2, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
	for _, bad := range []rng.Distribution{
		rng.Constant{Value: 0},
		rng.Constant{Value: -1},
		rng.Constant{Value: math.Inf(1)},
		rng.Constant{Value: math.NaN()},
	} {
		dm.Jitter = bad
		if _, err := dm.ComputeScales(nil); err == nil {
			t.Errorf("accepted jitter draw %v", bad.Sample(rng.New(1)))
		}
	}
}

// SampleCompute is the compute half of every round: the max over the up
// workers of factor times the summed draws, every worker drawing whatever
// the membership, and 0 with everyone down.
func TestSampleComputeMaxOverUpWorkers(t *testing.T) {
	dm := New(3, rng.Constant{Value: 2}, rng.Constant{Value: 0}, nil)
	r := rng.New(1)
	if got := dm.SampleCompute(r, 5, nil, nil); got != 10 {
		t.Fatalf("homogeneous compute %v, want 10", got)
	}
	if got := dm.SampleCompute(r, 5, []float64{1, 3, 2}, nil); got != 30 {
		t.Fatalf("straggler compute %v, want 30", got)
	}
	if got := dm.SampleCompute(r, 5, []float64{1, 3, 2}, []bool{false, true, false}); got != 20 {
		t.Fatalf("straggler down: compute %v, want 20", got)
	}
	if got := dm.SampleCompute(r, 5, nil, []bool{true, true, true}); got != 0 {
		t.Fatalf("everyone down: compute %v, want 0", got)
	}
	// Membership never shifts the stream: M*steps draws either way.
	dm.Y = rng.Exponential{MeanVal: 1}
	up, down := rng.New(9), rng.New(9)
	dm.SampleCompute(up, 4, nil, nil)
	dm.SampleCompute(down, 4, nil, []bool{true, false, true})
	if up.Uint64() != down.Uint64() {
		t.Fatal("a down mask changed the number of compute draws")
	}
}

func TestSampleTransferPricesLinkAndBytes(t *testing.T) {
	dm := New(2, rng.Constant{Value: 1}, rng.Constant{Value: 0.5}, nil)
	dm.Bandwidth = 100
	r := rng.New(3)
	// Homogeneous: D0 + bytes/bandwidth.
	if got, want := dm.SampleTransfer(r, 0, 200), 0.5+2.0; got != want {
		t.Fatalf("transfer %v, want %v", got, want)
	}
	// Zero bytes: latency only.
	if got := dm.SampleTransfer(r, 0, 0); got != 0.5 {
		t.Fatalf("zero-byte transfer %v, want 0.5", got)
	}
	// Per-worker link: added latency, overridden bandwidth.
	dm.Links = []Link{{}, {Latency: 1, Bandwidth: 50}}
	if got, want := dm.SampleTransfer(r, 1, 200), 0.5+1+4.0; got != want {
		t.Fatalf("slow-link transfer %v, want %v", got, want)
	}
	// Inherited bandwidth on a zero link entry.
	if got, want := dm.SampleTransfer(r, 0, 200), 0.5+2.0; got != want {
		t.Fatalf("inherit-link transfer %v, want %v", got, want)
	}
	// Infinite bandwidth: bytes are free.
	dm.Bandwidth = 0
	dm.Links = nil
	if got := dm.SampleTransfer(r, 0, 1<<20); got != 0.5 {
		t.Fatalf("infinite-bandwidth transfer %v, want 0.5", got)
	}
}
