package cluster

import (
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/faults"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// gradProbe is a controller that replays worker 0 on a network and sampler
// of its own and checks each round's RoundInfo.GradNorm against the norm of
// the last gradient the replay computed.
type gradProbe struct {
	t        *testing.T
	label    string
	e        *Engine
	taus     []int
	maxIters int

	sampler *data.Sampler
	opt     *opt.Optimizer
	grad    []float64
	want    float64 // Norm2 of worker 0's latest replayed gradient; 0 before any

	// The round NextRound last handed out, replayed at the next call.
	params []float64 // worker 0's parameters as that round's steps start
	steps  int
	lr     float64
	round  int
	checks int
}

func (p *gradProbe) Name() string { return "grad-probe" }

func (p *gradProbe) NextRound(info RoundInfo, _ func() float64) (int, float64) {
	if info.Round > 0 {
		p.replay()
		if info.GradNorm != p.want {
			p.t.Errorf("%s: round %d: GradNorm %v, worker 0's latest gradient has norm %v", p.label, info.Round, info.GradNorm, p.want)
		}
		p.checks++
	} else if info.GradNorm != 0 {
		p.t.Errorf("%s: GradNorm %v before the first round, want 0", p.label, info.GradNorm)
	}
	tau := p.taus[info.Round%len(p.taus)]
	p.steps = min(tau, p.maxIters-info.Iter)
	p.lr = 0.1 + 0.01*float64(info.Round%3)
	p.round = info.Round
	// A worker rejoining after a blip starts the round from the global
	// model (reconcile); otherwise from its own replica.
	src := p.e.workers[0].params
	if p.e.cfg.Faults.Rejoins(0, info.Round) {
		src = p.e.global
	}
	p.params = append(p.params[:0], src...)
	return tau, p.lr
}

// replay runs worker 0's steps of the last handed-out round, unless the
// schedule held it down: then it took no step and the previous norm stands.
func (p *gradProbe) replay() {
	if p.e.cfg.Faults.Down(0, p.round) {
		return
	}
	net := p.e.nets[0].Clone()
	p.opt.SetLR(p.lr)
	for k := 0; k < p.steps; k++ {
		net.LossGradAt(p.params, p.sampler.Next(), p.grad)
		p.opt.Step(p.params, p.grad)
		p.want = tensor.Norm2(p.grad)
	}
}

// TestGradNormIsWorkerZerosLatestGradient: every round's RoundInfo.GradNorm
// is tensor.Norm2 of worker 0's latest mini-batch gradient, bit for bit, as
// recomputed by replaying worker 0 alone — its sampler stream is the
// engine's second split of the seed, and plain SGD carries no state — at
// pool widths 1, 2 and 3 (slot 0 steps worker 0 and then others), and under
// schedules that take worker 0 down for some rounds: a blip, after which it
// rejoins at the global model, and a crash, after which the norm of its
// last gradient stands.
func TestGradNormIsWorkerZerosLatestGradient(t *testing.T) {
	const m = 5
	s := newSetup(t, m, 1)
	for _, sched := range []string{"", "blip:0@r2-4,crash:0@r9", "crash:0@r0"} {
		for _, pool := range []int{1, 2, 3} {
			label := fmt.Sprintf("pool %d, faults %q", pool, sched)
			cfg := baseCfg()
			cfg.ComputeWorkers, cfg.MaxIters, cfg.EvalEvery = pool, 47, 10
			if sched != "" {
				f, err := faults.Parse(sched)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = f
			}
			e := s.engine(t, cfg)
			root := rng.New(cfg.Seed)
			root.Split() // the delay stream
			p := &gradProbe{
				t: t, label: label, e: e, taus: []int{3, 1, 2, 4}, maxIters: cfg.MaxIters,
				sampler: data.NewSampler(s.shards[0], cfg.BatchSize, root.Split()),
				opt:     opt.New(cfg.Opt, e.Dim()),
				grad:    make([]float64, e.Dim()),
			}
			e.Run(p, "gradnorm")
			if p.checks < 15 {
				t.Errorf("%s: %d rounds checked, want at least 15", label, p.checks)
			}
		}
	}
}
