package opt

import (
	"math"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		spec string
		want Config
	}{
		{"", Config{}},
		{"sgd", Config{}},
		{"momentum:0.9", Config{Rule: RuleMomentum, Momentum: 0.9}},
		{"nesterov:0.5", Config{Rule: RuleNesterov, Momentum: 0.5}},
		{"adam", Config{Rule: RuleAdam}},
		{"adam:0.8", Config{Rule: RuleAdam, Momentum: 0.8}},
		{"adam:0.8,0.95", Config{Rule: RuleAdam, Momentum: 0.8, Beta2: 0.95}},
		{"adam+synced", Config{Rule: RuleAdam, SyncedMoments: true}},
		{"adam:0.8,0.95+synced", Config{Rule: RuleAdam, Momentum: 0.8, Beta2: 0.95, SyncedMoments: true}},
	}
	for _, tc := range cases {
		got, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	// "adamw" parsed to Adam in all but name (nothing could set a decay for
	// it to decouple); the form is gone rather than silently aliased.
	bad := []string{"sgd:0.9", "momentum", "momentum:x", "momentum:1.5", "nesterov",
		"adam:0.9,0.99,0.5", "adam:x", "rmsprop", "sgd+synced", "momentum:0.9+synced",
		"adamw", "adamw:0.9,0.99",
		// An explicit zero beta ran the default (0.9 or 0.999) in its place.
		"adam:0", "adam:-0", "adam:0,0.99", "adam:0.9,0", "adam:0.9,-0", "adam:0+synced"}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error", spec)
		}
	}
}

func TestConfigString(t *testing.T) {
	for _, spec := range []string{"sgd", "momentum:0.9", "nesterov:0.5", "adam:0.8,0.95+synced"} {
		c, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := c.String(); got != spec {
			t.Errorf("Parse(%q).String() = %q", spec, got)
		}
	}
	// -adam-beta2 sets beta2 beside an unset beta1: the printed form names
	// the default beta1 New runs, and parses back.
	c := Config{Rule: RuleAdam, Beta2: 0.95}
	if got, want := c.String(), "adam:0.9,0.95"; got != want {
		t.Errorf("%+v.String() = %q, want %q", c, got, want)
	}
	if _, err := Parse(c.String()); err != nil {
		t.Errorf("Parse(%q): %v", c.String(), err)
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config: %v", err)
	}
	bad := []Config{
		{Rule: Rule(99)},
		{Momentum: -0.1},
		{Momentum: 1},
		{Rule: RuleAdam, Beta2: 1},
		{Rule: RuleMomentum},
		{SyncedMoments: true},
		{Rule: RuleMomentum, Momentum: 0.9, SyncedMoments: true},
		// NaN and Inf compare false against every bound.
		{Rule: RuleMomentum, Momentum: math.NaN()},
		{Rule: RuleMomentum, Momentum: math.Inf(1)},
		{Rule: RuleAdam, Beta2: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%+v): want error", i, c)
		}
	}
}

// legacyStep is the exact update loop of the pre-refactor internal/sgd
// Optimizer, kept here as the bit-identity oracle for plain and heavy-ball
// steps (its weight decay is always 0 now: no rule has one).
func legacyStep(params, grad, buf []float64, lr, mu, wd float64) {
	for i := range params {
		g := grad[i] + wd*params[i]
		if mu != 0 {
			buf[i] = mu*buf[i] + g
			g = buf[i]
		}
		params[i] -= lr * g
	}
}

// newAt builds an optimizer at learning rate lr, as an engine's first SetLR
// leaves it.
func newAt(cfg Config, lr float64, dim int) *Optimizer {
	o := New(cfg, dim)
	o.SetLR(lr)
	return o
}

func TestPlainAndMomentumMatchLegacyBitForBit(t *testing.T) {
	const lr = 0.05
	cases := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"momentum", Config{Rule: RuleMomentum, Momentum: 0.9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := []float64{0.3, -1.2, 2.5, 0}
			q := append([]float64(nil), p...)
			buf := make([]float64, len(p))
			o := newAt(tc.cfg, lr, len(p))
			for s := 0; s < 7; s++ {
				grad := []float64{0.1 * float64(s), -0.2, 0.33, 1.7 - float64(s)}
				o.Step(p, grad)
				legacyStep(q, grad, buf, lr, tc.cfg.Momentum, 0)
			}
			for i := range p {
				if p[i] != q[i] {
					t.Fatalf("param %d: %v != legacy %v", i, p[i], q[i])
				}
			}
		})
	}
}

// TestPlainStepIsTheScalarLoop: plain SGD's step is tensor.Axpy(-lr, g, p),
// which must leave every parameter with the bits of p -= lr*g — at every
// length around the four-lane group and at the logistic workloads' 650, over
// the values a diverging run produces, at learning rates that overflow the
// product or flush it to zero. The one allowed difference is which NaN
// survives where p and lr*g are both NaN; the result is NaN either way.
func TestPlainStepIsTheScalarLoop(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(math.NaN(), -1),
		5e-324, -2.5e-308, math.MaxFloat64, -1e300, 1, -3.5}
	seed := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		if seed%4 == 0 {
			return specials[seed/4%uint64(len(specials))]
		}
		return float64(int64(seed>>11))/(1<<52) - 1
	}
	for _, lr := range []float64{0.05, 1, 1e308, 1e-320, 0} {
		for _, n := range []int{1, 3, 4, 5, 8, 13, 650} {
			p, g := make([]float64, n), make([]float64, n)
			for i := range p {
				p[i], g[i] = next(), next()
			}
			want := append([]float64(nil), p...)
			for i := range want {
				want[i] -= lr * g[i]
			}
			before := append([]float64(nil), p...)
			newAt(Config{}, lr, n).Step(p, g)
			for i := range p {
				if math.Float64bits(p[i]) == math.Float64bits(want[i]) ||
					math.IsNaN(before[i]) && math.IsNaN(lr*g[i]) && math.IsNaN(p[i]) {
					continue
				}
				t.Fatalf("lr=%v n=%d: param %d = %x from p=%v g=%v, the scalar loop gives %x",
					lr, n, i, math.Float64bits(p[i]), before[i], g[i], math.Float64bits(want[i]))
			}
		}
	}
}

func TestNesterovStepMath(t *testing.T) {
	lr, mu := 0.1, 0.9
	o := newAt(Config{Rule: RuleNesterov, Momentum: mu}, lr, 1)
	p := []float64{1.0}
	g := []float64{0.5}
	// Step 1: buf = g; update = lr*(g + mu*g) = lr*g*(1+mu).
	o.Step(p, g)
	want := 1.0 - lr*(0.5+mu*0.5)
	if math.Abs(p[0]-want) > 1e-15 {
		t.Fatalf("step1: %v want %v", p[0], want)
	}
	// Step 2: buf = mu*g0 + g1; update = lr*(g1 + mu*buf).
	g2 := []float64{0.25}
	buf := mu*0.5 + 0.25
	o.Step(p, g2)
	want -= lr * (0.25 + mu*buf)
	if math.Abs(p[0]-want) > 1e-15 {
		t.Fatalf("step2: %v want %v", p[0], want)
	}
}

func TestAdamStepMath(t *testing.T) {
	lr, b1, b2, eps := 0.01, 0.9, 0.999, 1e-8
	o := newAt(Config{Rule: RuleAdam}, lr, 2)
	if c := o.Config(); c.Momentum != b1 || c.Beta2 != b2 {
		t.Fatalf("defaults not filled: %+v", c)
	}
	p := []float64{1.0, -2.0}
	g := []float64{0.3, -0.7}
	// Hand-rolled reference with independent scalar bookkeeping.
	m := make([]float64, 2)
	v := make([]float64, 2)
	want := append([]float64(nil), p...)
	for s := 1; s <= 3; s++ {
		o.Step(p, g)
		bc1 := 1 - math.Pow(b1, float64(s))
		bc2 := 1 - math.Pow(b2, float64(s))
		for i := range want {
			m[i] = b1*m[i] + (1-b1)*g[i]
			v[i] = b2*v[i] + (1-b2)*g[i]*g[i]
			want[i] -= lr * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + eps)
		}
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("param %d: %v want %v", i, p[i], want[i])
		}
	}
	// With a constant gradient, the bias-corrected first step is ~lr*sign(g).
	o2 := newAt(Config{Rule: RuleAdam}, lr, 1)
	p2 := []float64{0}
	o2.Step(p2, []float64{42.0})
	if math.Abs(p2[0]+lr) > 1e-6 {
		t.Fatalf("first adam step %v, want ~ %v", p2[0], -lr)
	}
}

func TestAdamSyncResetKeepsSecondMomentClock(t *testing.T) {
	o := newAt(Config{Rule: RuleAdam}, 0.01, 1)
	p := []float64{1}
	for s := 0; s < 5; s++ {
		o.Step(p, []float64{0.5})
	}
	if o.Steps() != 5 {
		t.Fatalf("Steps = %d, want 5", o.Steps())
	}
	o.SyncReset()
	st := o.State()
	if st[0].Name != "adam.m" || st[0].Vec[0] != 0 {
		t.Fatalf("first moment not reset: %+v", st[0])
	}
	if st[1].Name != "adam.v" || st[1].Vec[0] == 0 {
		t.Fatalf("second moment should survive SyncReset: %+v", st[1])
	}
	if o.Steps() != 5 {
		t.Fatalf("Steps after SyncReset = %d, want 5", o.Steps())
	}
	// The next step's first-moment bias correction restarts at t=1 while
	// the second moment continues at t=6: reproduce both by hand.
	b1, b2, eps := DefaultBeta1, DefaultBeta2, adamEps
	vBefore := st[1].Vec[0]
	pBefore := p[0]
	g := 0.5
	o.Step(p, []float64{g})
	m := (1 - b1) * g
	v := b2*vBefore + (1-b2)*g*g
	want := pBefore - 0.01*(m/(1-b1))/(math.Sqrt(v/(1-math.Pow(b2, 6)))+eps)
	if p[0] != want {
		t.Fatalf("post-reset step %v, want %v", p[0], want)
	}
	o.ResetState()
	if o.Steps() != 0 || st[1].Vec[0] != 0 {
		t.Fatalf("ResetState must zero everything")
	}
	o.AlignSteps(17)
	if o.Steps() != 17 {
		t.Fatalf("AlignSteps: %d", o.Steps())
	}
}

func TestSyncPolicies(t *testing.T) {
	hasResetState := func(o *Optimizer) bool {
		for _, s := range o.State() {
			if s.Policy == SyncReset {
				return true
			}
		}
		return false
	}
	plain := New(Config{}, 3)
	if len(plain.State()) != 0 || hasResetState(plain) || SyncedLen(plain) != 0 {
		t.Fatalf("plain SGD must be stateless")
	}
	mom := New(Config{Rule: RuleMomentum, Momentum: 0.9}, 3)
	if !hasResetState(mom) || SyncedLen(mom) != 0 {
		t.Fatalf("momentum: want reset-only state")
	}
	local := New(Config{Rule: RuleAdam}, 3)
	if !hasResetState(local) || SyncedLen(local) != 0 {
		t.Fatalf("local adam: second moment must be SyncKeep")
	}
	synced := New(Config{Rule: RuleAdam, SyncedMoments: true}, 3)
	if SyncedLen(synced) != 3 {
		t.Fatalf("synced adam: SyncedLen = %d, want 3", SyncedLen(synced))
	}
	vs := SyncedVecs(synced)
	if len(vs) != 1 || len(vs[0]) != 3 {
		t.Fatalf("SyncedVecs: %v", vs)
	}
}

func TestStepDoesNotAllocate(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Rule: RuleMomentum, Momentum: 0.9},
		{Rule: RuleAdam},
	} {
		o := newAt(cfg, 0.01, 64)
		p := make([]float64, 64)
		g := make([]float64, 64)
		for i := range g {
			g[i] = float64(i) * 0.01
		}
		allocs := testing.AllocsPerRun(20, func() { o.Step(p, g) })
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", cfg.Rule, allocs)
		}
	}
}

func TestGlobalApplyMatchesLegacyUblock(t *testing.T) {
	beta := 0.3
	g := NewGlobal(beta, 3)
	ublock := make([]float64, 3)
	global := []float64{1, 2, 3}
	legacy := append([]float64(nil), global...)
	for round := 0; round < 4; round++ {
		avg := []float64{0.9 - 0.1*float64(round), 1.8, 3.1}
		// Legacy ublock arithmetic (pre-refactor averageFull).
		for i := range legacy {
			disp := legacy[i] - avg[i]
			ublock[i] = beta*ublock[i] + disp
			legacy[i] -= ublock[i]
		}
		g.Apply(global, avg, global)
		for i := range global {
			if global[i] != legacy[i] {
				t.Fatalf("round %d param %d: %v != legacy %v", round, i, global[i], legacy[i])
			}
		}
	}
}

func TestGlobalRenormalizeAndReset(t *testing.T) {
	g := NewGlobal(0.5, 2)
	pre := []float64{1, 1}
	post := []float64{0, 2}
	dst := make([]float64, 2)
	g.Apply(pre, post, dst)
	// u = {1,-1}; dst = pre - u.
	if dst[0] != 0 || dst[1] != 2 {
		t.Fatalf("apply: %v", dst)
	}
	g.Renormalize(0.5)
	if g.Buf()[0] != 0.5 || g.Buf()[1] != -0.5 {
		t.Fatalf("renormalize: %v", g.Buf())
	}
	g.Renormalize(1) // no-op
	if g.Buf()[0] != 0.5 {
		t.Fatalf("factor-1 renormalize must be a no-op")
	}
	g.Reset()
	if g.Buf()[0] != 0 || g.Buf()[1] != 0 {
		t.Fatalf("reset: %v", g.Buf())
	}
}
