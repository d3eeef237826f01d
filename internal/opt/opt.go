// Package opt is the first-class optimizer layer: the per-worker local
// update rule (plain SGD, heavy-ball and Nesterov momentum, Local Adam)
// factored out of the engines into one type, Optimizer, plus the
// slow/global momentum applied at sync points (global.go). A rule's sync
// behaviour is its own: SyncReset zeroes the heavy-ball buffer and Adam's
// first moment at averaging points (the paper's Sec 5.3.1 discipline), while
// Adam's second moment is an ablation axis — kept local (the Local Adam
// default) or synced through the averaging wire alongside the parameters
// (Config.SyncedMoments), where it rides the same compression, payload
// accounting, and float32 narrowing as the model itself.
//
// The zero-value Config is plain SGD and reproduces the legacy
// internal/sgd update arithmetic bit for bit; engines preallocate all
// state at construction (New takes the dimension) so a warm Step performs
// zero heap allocations.
//
// The lock-step engine calls SyncReset on every active worker once per
// averaging point and on every rejoin; the async engine calls it on every
// dispatch. On plain SGD it touches nothing. A synced second moment makes
// every averaged payload the extended vector of dim + Config.SyncedLen
// coordinates, parameters then v, riding one wire; with nothing synced the
// extension is empty and the same path carries the parameters alone. A
// worker IS its extended vector: the engine allocates it, and NewIn places
// the synced v in its tail, so the wire reads and writes the optimizer's
// own state in place. Adam keeps two step clocks: tm restarts with the
// first moment at every sync, tv runs on for the second moment's bias
// correction, and AlignSteps lets a rejoining worker match a never-crashed
// one bit for bit. A synced second moment that crossed a lossy wire can dip
// below zero, so Step clamps the square root's argument at 0; aggressive
// QSGD on the extended vector is unstable anyway (v is tiny beside the
// parameter deltas sharing its norm). The async engine rejects adaptive
// rules: per-client moments are Theta(clients*dim) state.
package opt

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// Rule selects the local update rule. The zero value is plain SGD.
type Rule int

const (
	// RulePlain is vanilla SGD: x -= lr * g.
	RulePlain Rule = iota
	// RuleMomentum is heavy-ball momentum (the legacy internal/sgd rule):
	// buf = mu*buf + g; x -= lr*buf.
	RuleMomentum
	// RuleNesterov is Nesterov momentum in the PyTorch formulation:
	// buf = mu*buf + g; x -= lr*(g + mu*buf).
	RuleNesterov
	// RuleAdam is Adam (Local Adam: every worker keeps its own moments).
	RuleAdam
)

func (r Rule) String() string {
	switch r {
	case RulePlain:
		return "sgd"
	case RuleMomentum:
		return "momentum"
	case RuleNesterov:
		return "nesterov"
	case RuleAdam:
		return "adam"
	}
	return fmt.Sprintf("rule(%d)", int(r))
}

// Defaults applied by New for the adaptive rule when the field is zero.
const (
	DefaultBeta1 = 0.9
	DefaultBeta2 = 0.999
)

// adamEps is Adam's denominator epsilon.
const adamEps = 1e-8

// Config describes a local update rule. The zero value is plain SGD with
// no momentum — the contract every engine's golden traces rely on.
type Config struct {
	Rule     Rule
	Momentum float64 // heavy-ball/Nesterov mu, or Adam beta1
	Beta2    float64 // Adam second-moment decay (0 = 0.999)

	// SyncedMoments makes the Adam second moment synced instead of local:
	// the engines then average v across workers at every sync point,
	// shipping it over the same (compressed, byte-priced) wire as the
	// parameters. Only meaningful for RuleAdam.
	SyncedMoments bool
}

// Validate rejects configurations New would mis-handle.
func (c Config) Validate() error {
	switch c.Rule {
	case RulePlain, RuleMomentum, RuleNesterov, RuleAdam:
	default:
		return fmt.Errorf("opt: unknown rule %d", int(c.Rule))
	}
	// Negated in-range checks: NaN fails every comparison, so testing for
	// the bad side would let it through.
	if !(c.Momentum >= 0 && c.Momentum < 1) {
		return fmt.Errorf("opt: momentum %v outside [0,1)", c.Momentum)
	}
	if !(c.Beta2 >= 0 && c.Beta2 < 1) {
		return fmt.Errorf("opt: beta2 %v outside [0,1)", c.Beta2)
	}
	if (c.Rule == RuleMomentum || c.Rule == RuleNesterov) && c.Momentum == 0 {
		return fmt.Errorf("opt: rule %s requires momentum > 0", c.Rule)
	}
	if c.SyncedMoments && c.Rule != RuleAdam {
		return fmt.Errorf("opt: synced moments require an adam rule, got %s", c.Rule)
	}
	return nil
}

// Adaptive reports whether the rule keeps second-moment state.
func (c Config) Adaptive() bool { return c.Rule == RuleAdam }

// SyncedLen returns the length of the synced state an optimizer built
// from c carries for a dim-long parameter vector: the extension the engines
// append to every averaged payload (dim for synced-moment Adam, 0 for every
// other rule). Engines size a worker's extended vector with it before they
// build the optimizer (NewIn).
func (c Config) SyncedLen(dim int) int {
	if c.SyncedMoments {
		return dim
	}
	return 0
}

// String renders the config in the grammar Parse accepts: an unset beta1
// beside a set beta2 (as -adam-beta2 builds) prints as the default New runs.
func (c Config) String() string {
	s := c.Rule.String()
	switch c.Rule {
	case RuleMomentum, RuleNesterov:
		s += ":" + trimFloat(c.Momentum)
	case RuleAdam:
		if c.Momentum != 0 || c.Beta2 != 0 {
			s += ":" + trimFloat(cmp.Or(c.Momentum, DefaultBeta1))
			if c.Beta2 != 0 {
				s += "," + trimFloat(c.Beta2)
			}
		}
		if c.SyncedMoments {
			s += "+synced"
		}
	}
	return s
}

func trimFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Forms enumerates the spec grammar for CLI error messages.
func Forms() string {
	return `"sgd", "momentum:MU", "nesterov:MU", "adam", "adam:B1", "adam:B1,B2"; adam forms take an optional "+synced" suffix (synced second moments)`
}

// Parse parses an optimizer spec. The empty string and "sgd" yield the
// plain-SGD zero value. See Forms for the grammar. An explicit Adam beta of 0
// is refused: New reads 0 as unset and would run the default.
func Parse(spec string) (Config, error) {
	var c Config
	s := strings.TrimSpace(spec)
	if strings.HasSuffix(s, "+synced") {
		c.SyncedMoments = true
		s = strings.TrimSuffix(s, "+synced")
	}
	name, arg := s, ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		name, arg = s[:i], s[i+1:]
	}
	switch name {
	case "", "sgd":
		c.Rule = RulePlain
		if arg != "" {
			return Config{}, fmt.Errorf("opt: %q takes no argument (valid forms: %s)", name, Forms())
		}
	case "momentum", "nesterov":
		c.Rule = RuleMomentum
		if name == "nesterov" {
			c.Rule = RuleNesterov
		}
		if arg == "" {
			return Config{}, fmt.Errorf("opt: %q requires a momentum argument, e.g. %q (valid forms: %s)", name, name+":0.9", Forms())
		}
		mu, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return Config{}, fmt.Errorf("opt: bad momentum %q in %q (valid forms: %s)", arg, spec, Forms())
		}
		c.Momentum = mu
	case "adam":
		c.Rule = RuleAdam
		if arg != "" {
			parts := strings.Split(arg, ",")
			if len(parts) > 2 {
				return Config{}, fmt.Errorf("opt: too many betas in %q (valid forms: %s)", spec, Forms())
			}
			b1, err := strconv.ParseFloat(parts[0], 64)
			if err != nil || b1 == 0 {
				return Config{}, fmt.Errorf("opt: bad beta1 %q in %q, want a value in (0,1) (valid forms: %s)", parts[0], spec, Forms())
			}
			c.Momentum = b1
			if len(parts) == 2 {
				b2, err := strconv.ParseFloat(parts[1], 64)
				if err != nil || b2 == 0 {
					return Config{}, fmt.Errorf("opt: bad beta2 %q in %q, want a value in (0,1) (valid forms: %s)", parts[1], spec, Forms())
				}
				c.Beta2 = b2
			}
		}
	default:
		return Config{}, fmt.Errorf("opt: unknown optimizer %q (valid forms: %s)", spec, Forms())
	}
	if c.SyncedMoments && !c.Adaptive() {
		return Config{}, fmt.Errorf("opt: +synced only applies to adam forms (valid forms: %s)", Forms())
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Optimizer performs in-place updates on a model's flat parameters. One
// struct serves every rule, with the per-rule branch inside Step; a rule
// leaves the state it does not keep nil.
type Optimizer struct {
	cfg Config
	lr  float64   // set by SetLR: every engine drives it from its schedule
	buf []float64 // heavy-ball / Nesterov momentum buffer
	m   []float64 // Adam first moment
	v   []float64 // Adam second moment (the synced tail under SyncedMoments)
	tm  int       // steps since the last first-moment reset
	tv  int       // total steps (second-moment clock)
}

// New builds an optimizer for a parameter vector of the given length,
// preallocating every state arena so Step never allocates. Zero Adam
// hyperparameters are filled with the package defaults.
func New(cfg Config, dim int) *Optimizer {
	return NewIn(cfg, dim, make([]float64, cfg.SyncedLen(dim)))
}

// NewIn is New with the synced second moment placed in tail, which must be
// cfg.SyncedLen(dim) long: the lock-step engine hands every worker's
// optimizer the tail of the worker's extended vector, so the state the wire
// averages is the state Step reads and writes, with no copy between them.
// A tail of any other length panics.
func NewIn(cfg Config, dim int, tail []float64) *Optimizer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(tail) != cfg.SyncedLen(dim) {
		panic(fmt.Sprintf("opt: a synced tail of %d words for %s at dim %d, want %d", len(tail), cfg, dim, cfg.SyncedLen(dim)))
	}
	o := &Optimizer{cfg: cfg}
	switch cfg.Rule {
	case RuleMomentum, RuleNesterov:
		o.buf = make([]float64, dim)
	case RuleAdam:
		if o.cfg.Momentum == 0 {
			o.cfg.Momentum = DefaultBeta1
		}
		if o.cfg.Beta2 == 0 {
			o.cfg.Beta2 = DefaultBeta2
		}
		o.m = make([]float64, dim)
		o.v = tail
		if !cfg.SyncedMoments {
			o.v = make([]float64, dim)
		}
	}
	return o
}

// Config returns the (default-filled) configuration.
func (o *Optimizer) Config() Config { return o.cfg }

// SetLR changes the learning rate used by subsequent steps.
func (o *Optimizer) SetLR(lr float64) { o.lr = lr }

// Steps returns the total Step count (Adam's second-moment bias correction
// clock; survives SyncReset).
func (o *Optimizer) Steps() int { return o.tv }

// AlignSteps overwrites the total Step count — rejoin reconciliation uses it
// to re-derive a recovered worker's bias-correction clock.
func (o *Optimizer) AlignSteps(n int) { o.tv = n }

// SyncReset zeroes the heavy-ball buffer, Adam's first moment and the step
// counter behind its bias correction; the second moment and its clock run
// on. On plain SGD it touches nothing.
func (o *Optimizer) SyncReset() {
	clear(o.buf)
	clear(o.m)
	o.tm = 0
}

// Step applies one update x -= lr * d(g). grad is not modified.
func (o *Optimizer) Step(params, grad []float64) {
	if len(params) != len(grad) {
		panic("opt: params/grad length mismatch")
	}
	lr := o.lr
	switch o.cfg.Rule {
	case RulePlain:
		// The legacy internal/sgd loop with Momentum=0, p -= lr*g, four lanes
		// at a time: (-lr)*g == -(lr*g) and p + (-q) == p - q bit for bit in
		// round-to-nearest, and one NaN operand passes through either form
		// unchanged. Only which NaN survives can differ: where lr is itself
		// NaN (negating it flips the sign bit), or p and lr*g are both NaN.
		tensor.Axpy(-lr, grad, params)
	case RuleMomentum:
		// Bit-identical to the legacy internal/sgd momentum loop.
		mu := o.cfg.Momentum
		for i := range params {
			o.buf[i] = mu*o.buf[i] + grad[i]
			params[i] -= lr * o.buf[i]
		}
	case RuleNesterov:
		mu := o.cfg.Momentum
		for i := range params {
			g := grad[i]
			o.buf[i] = mu*o.buf[i] + g
			params[i] -= lr * (g + mu*o.buf[i])
		}
	case RuleAdam:
		b1, b2 := o.cfg.Momentum, o.cfg.Beta2
		o.tm++
		o.tv++
		bc1 := 1 - math.Pow(b1, float64(o.tm))
		bc2 := 1 - math.Pow(b2, float64(o.tv))
		for i := range params {
			g := grad[i]
			o.m[i] = b1*o.m[i] + (1-b1)*g
			o.v[i] = b2*o.v[i] + (1-b2)*g*g
			vhat := o.v[i] / bc2
			if vhat < 0 {
				// Locally v is a sum of squares and can never go negative,
				// but a SYNCED second moment travels a lossy wire: unbiased
				// quantization noise can push the averaged estimate slightly
				// below zero, and sqrt must not turn that into NaN.
				vhat = 0
			}
			params[i] -= lr * ((o.m[i] / bc1) / (math.Sqrt(vhat) + adamEps))
		}
	}
}
