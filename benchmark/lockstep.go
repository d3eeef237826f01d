package main

import (
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// round is one lock-step round as the controller saw it.
type round struct {
	steps  int     // local steps the engine ran (tau trimmed to MaxIters)
	lr     float64 // learning rate of the round
	probes int     // loss evaluations the controller asked for
}

// record is what a recording controller captured during Run: enough to
// re-drive a fresh engine through StepLocal/SyncNow from outside.
type record struct {
	rounds    []round
	bytes     int64         // sum of CommBytesPerRound over the rounds
	ctrl      time.Duration // inside the controller, loss probes excluded
	commShare float64       // RoundInfo CommTime/Time at the last call
}

func (r *record) steps() (n int) {
	for _, rd := range r.rounds {
		n += rd.steps
	}
	return n
}

// recorder wraps the cell's controller. The engine only ever sees a
// cluster.Controller, so this is the outermost layer boundary the
// benchmark can reach without touching the engine.
type recorder struct {
	inner    cluster.Controller
	eng      *cluster.Engine
	maxIters int
	iter     int
	rec      record
}

func (r *recorder) Name() string { return r.inner.Name() }

func (r *recorder) NextRound(info cluster.RoundInfo, evalLoss func() float64) (int, float64) {
	if info.Round > 0 {
		r.rec.bytes += int64(r.eng.CommBytesPerRound())
	}
	if info.Time > 0 {
		r.rec.commShare = info.CommTime / info.Time
	}
	probes := 0
	var probe time.Duration
	t0 := time.Now()
	tau, lr := r.inner.NextRound(info, func() float64 {
		p0 := time.Now()
		l := evalLoss()
		probe += time.Since(p0)
		probes++
		return l
	})
	r.rec.ctrl += time.Since(t0) - probe

	steps := tau
	if r.maxIters > 0 && r.maxIters-r.iter < steps {
		steps = r.maxIters - r.iter // Run trims the last round the same way
	}
	r.iter += steps
	r.rec.rounds = append(r.rec.rounds, round{steps: steps, lr: lr, probes: probes})
	return tau, lr
}

// finish accounts the last round's payload, which no NextRound call follows.
func (r *recorder) finish() *record {
	if len(r.rec.rounds) > 0 {
		r.rec.bytes += int64(r.eng.CommBytesPerRound())
	}
	return &r.rec
}

// tunedRecorder forwards the ratio and bit-width hooks the engine looks for
// by type assertion; without it a wrapped AdaCommCompress would silently run
// at a fixed ratio.
type tunedRecorder struct {
	*recorder
	tuned *core.AdaCommCompress
}

func (t tunedRecorder) CompressionRatio() float64 { return t.tuned.CompressionRatio() }
func (t tunedRecorder) QuantBits() int            { return t.tuned.QuantBits() }

// lockstep describes one cluster.Engine cell.
type lockstep struct {
	name      string
	m         int // workers
	maxIters  int // the engine's MaxIters (0 when it stops on MaxTime)
	newEngine func() (*cluster.Engine, error)
	newCtrl   func() cluster.Controller
	// Unit probes that price this cell's model and compressor ("" = none).
	nnProbe, tensorProbe, compressProbe string
	// manual reports whether StepLocal/SyncNow reproduce Run: false when
	// the cell needs the fault schedule advanced or a compressor retuned,
	// which only Run does.
	manual bool
}

func (l lockstep) cell() *cell {
	var eng *cluster.Engine
	c := &cell{name: l.name}
	c.build = func() (err error) {
		eng, err = l.newEngine()
		return err
	}
	c.run = func() ([]outcome, error) {
		inner := l.newCtrl()
		rc := &recorder{inner: inner, eng: eng, maxIters: l.maxIters}
		var ctrl cluster.Controller = rc
		if t, ok := inner.(*core.AdaCommCompress); ok {
			ctrl = tunedRecorder{recorder: rc, tuned: t}
		}
		tr := eng.Run(ctrl, l.name)
		rec := rc.finish()
		steps := int64(tr.Last().Iter) * int64(l.m)
		return []outcome{{
			cell:      l.name,
			trace:     tr,
			wireBytes: rec.bytes,
			steps:     steps,
			hash:      hashParams(eng.GlobalParams()),
			rec:       rec,
			costs:     l.costs(steps, int64(len(rec.rounds))*int64(l.m)),
		}}, nil
	}
	if l.manual {
		c.replay = l.replay
	}
	return c
}

// costs prices the cell's gradient evaluations and compressed messages.
func (l lockstep) costs(steps, messages int64) []cost {
	c := []cost{{"nn.est_share", l.nnProbe, steps}}
	if l.tensorProbe != "" {
		c = append(c, cost{"tensor.est_share", l.tensorProbe, steps})
	}
	if l.compressProbe != "" {
		c = append(c, cost{"compress.est_share", l.compressProbe, messages})
	}
	return c
}

// replay drives a fresh engine through the recorded rounds with a span
// around every public call, then times the evaluations Run performed: one
// TrainLoss per trace point and per controller probe, one TestAccuracy per
// point that carries an accuracy. Evaluations do not change engine state,
// so timing them together after the last round costs the same as in place.
func (l lockstep) replay(o outcome, tr *tracer, parent int) (uint64, error) {
	eng, err := l.newEngine()
	if err != nil {
		return 0, err
	}
	for _, rd := range o.rec.rounds {
		id := tr.begin("cluster.local_update", l.name, parent)
		eng.StepLocal(rd.steps, rd.lr)
		tr.end(id)
		id = tr.begin("cluster.sync", l.name, parent)
		eng.SyncNow()
		tr.end(id)
	}
	losses, accs := len(o.trace.Points), 0
	for _, p := range o.trace.Points {
		if !math.IsNaN(p.Acc) {
			accs++
		}
	}
	for _, rd := range o.rec.rounds {
		losses += rd.probes
	}
	id := tr.begin("cluster.eval", l.name, parent)
	for i := 0; i < losses; i++ {
		sink += eng.TrainLoss()
	}
	for i := 0; i < accs; i++ {
		sink += eng.TestAccuracy()
	}
	tr.end(id)
	return hashParams(eng.GlobalParams()), nil
}

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink float64
