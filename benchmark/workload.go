package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// sizes fixes every size constant of the five workloads. fullSizes is the
// benchmark; smokeSizes runs the same code in well under a second per
// workload for bench_test.go.
type sizes struct {
	vggSimS    float64 // simulated budget of each VGG cell (Fig9Quick ships 60)
	resnetSimS float64 // simulated budget of the ResNet cell
	convBatch  int     // per-worker batch of the conv cells (Fig 9 ships 16)
	wireIters  int     // MaxIters of each wire_mix cell
	wireDim    int     // blob dimension of the wide logistic model
	asyncN     int     // async_fleet client population
	asyncUpd   int     // async_fleet MaxUpdates
	psUpd      int     // ps_adasync MaxUpdates per cell
	setupReps  int     // most set-ups timed per repeat (see setupBudgetS)
	minRepeats int     // repeats per run regardless of -seconds
	probeScale float64 // multiplies every unit probe's iteration count
	// looseTarget replaces every workload's loss target by "no worse than
	// at the start": smoke runs are too short to train.
	looseTarget bool
}

var fullSizes = sizes{
	vggSimS: 24, resnetSimS: 8, convBatch: 16,
	wireIters: 160, wireDim: 1024,
	asyncN: 2048, asyncUpd: 4000,
	psUpd:     1500,
	setupReps: 25, minRepeats: 3, probeScale: 1,
}

var smokeSizes = sizes{
	vggSimS: 1, resnetSimS: 0.5, convBatch: 2,
	wireIters: 40, wireDim: 64,
	asyncN: 128, asyncUpd: 100,
	psUpd:     100,
	setupReps: 1, minRepeats: 2, probeScale: 0.01, looseTarget: true,
}

// subSeed derives the i-th independent seed of a workload from -seed, so
// datasets, shardings, engines and jitter never share a stream.
func subSeed(seed uint64, i int) uint64 { return seed*1_000_003 + uint64(i) }

// outcome is what one cell run produced. Everything except wall is a pure
// function of the seed; sig() is what the repeats must agree on exactly.
type outcome struct {
	cell      string
	trace     *metrics.Trace
	wireBytes int64   // priced bytes the cell put on the wire
	steps     int64   // gradient evaluations the cell scheduled
	hash      uint64  // FNV-1a of the final parameters
	rec       *record // lock-step cells: the controller-side recording
	// layer carries engine statistics read after Run, keyed by per-layer
	// metric name.
	layer map[string]float64
	costs []cost
}

// cost says the cell made calls calls into a layer whose unit cost the named
// probe measures; the traced pass turns them into the layer's estimated
// share of the workload's wall-clock.
type cost struct {
	share string // per-layer metric the estimate adds to
	probe string // unit probe, microseconds per call
	calls int64
}

func (o outcome) sig() string {
	last := o.trace.Last()
	return fmt.Sprintf("%s hash=%016x wire=%d steps=%d loss=%016x sim=%016x iter=%d",
		o.cell, o.hash, o.wireBytes, o.steps,
		math.Float64bits(last.Loss), math.Float64bits(last.Time), last.Iter)
}

func hashParams(p []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range p {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// cell is one engine run of a workload. build constructs the engine or
// server (set-up time); run consumes it (wall time) — engines are single
// use, so every repeat sets up again. replay, when non-nil, re-drives a
// fresh engine through the recorded (tau, lr) sequence with spans around
// each public call and returns the final parameter hash.
type cell struct {
	name   string
	build  func() error
	run    func() ([]outcome, error)
	replay func(o outcome, tr *tracer, parent int) (uint64, error)
}

// workload is one named input set of the benchmark.
type workload struct {
	name, why string
	headline  string // cell whose trace gives the metrics.* records
	baseline  string // cell the headline is read against
	// target is the loss the headline must reach within its budget, as a
	// share of the run's own initial loss: a constant frozen from one seed
	// is one some other seed never reaches.
	target float64
	// setup generates the seed's data and returns the cells, engines not
	// yet built.
	setup func(seed uint64, sz sizes) ([]*cell, error)
	// reference, when set, is run once before the repeats, untimed; check
	// then reads every repeat's outcomes against the reference's.
	reference *workload
	check     func(ref, outs []outcome) error
	// derive adds the per-layer metrics only this workload has, from the
	// measured walls and engine statistics.
	derive func(m measured, out map[string]float64)
}

// repeat is one set-up plus one pass over every cell.
type repeat struct {
	setupS   float64
	wallS    float64
	allocMB  float64
	cellWall map[string]float64
	outs     []outcome
	// Operations: every cell run and every check on its outcome is one.
	attempted, failed int
	load              float64 // 1-min loadavg when the repeat ended
}

func (r repeat) byCell(name string) (outcome, bool) {
	for _, o := range r.outs {
		if o.cell == name {
			return o, true
		}
	}
	return outcome{}, false
}

func (r repeat) wire() (n int64) {
	for _, o := range r.outs {
		n += o.wireBytes
	}
	return n
}

// simPerKIter is simulated seconds per thousand engine iterations, summed
// over cells: the runtime half of the error-runtime trade-off.
func (r repeat) simPerKIter() float64 {
	sim, iters := 0.0, 0
	for _, o := range r.outs {
		sim += o.trace.Last().Time
		iters += o.trace.Last().Iter
	}
	return 1000 * sim / float64(iters)
}

// timeSetup runs the workload's set-up once: data, shards, graphs, every
// engine and server.
func timeSetup(w *workload, seed uint64, sz sizes) ([]*cell, float64, error) {
	t0 := time.Now()
	cells, err := w.setup(seed, sz)
	if err != nil {
		return nil, 0, err
	}
	for _, c := range cells {
		if err := c.build(); err != nil {
			return nil, 0, fmt.Errorf("%s: build: %w", c.name, err)
		}
	}
	return cells, time.Since(t0).Seconds(), nil
}

// runCell runs one cell, turning an engine panic into a failed operation.
func runCell(c *cell) (outs []outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return c.run()
}

// setupBudgetS bounds the host seconds one repeat spends setting up again:
// a set-up of milliseconds is timed sz.setupReps times for a steady median,
// one of a tenth of a second five times.
const setupBudgetS = 0.5

// runRepeat sets the workload up, as often as the budget above allows, and
// runs every cell of the last set-up once.
func runRepeat(w *workload, seed uint64, sz sizes, ref *repeat) (repeat, []*cell, error) {
	rep := repeat{cellWall: map[string]float64{}}
	var setups []float64
	var cells []*cell
	for spent := 0.0; len(setups) < sz.setupReps && spent < setupBudgetS; {
		c, s, err := timeSetup(w, seed, sz)
		if err != nil {
			return rep, nil, err
		}
		cells = c
		setups = append(setups, s)
		spent += s
	}
	rep.setupS = median(setups)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, c := range cells {
		t0 := time.Now()
		outs, err := runCell(c)
		d := time.Since(t0).Seconds()
		rep.wallS += d
		rep.cellWall[c.name] = d
		rep.attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s/%s failed: %v\n", w.name, c.name, err)
			rep.failed++
			continue
		}
		rep.outs = append(rep.outs, outs...)
	}
	runtime.ReadMemStats(&m1)
	rep.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6

	for _, o := range rep.outs {
		rep.attempted++
		if l := o.trace.FinalLoss(); math.IsNaN(l) || math.IsInf(l, 0) {
			fmt.Fprintf(os.Stderr, "benchmark: %s/%s ended with loss %v\n", w.name, o.cell, l)
			rep.failed++
		}
	}
	if h, ok := rep.byCell(w.headline); ok {
		rep.attempted++
		if t := h.trace.TimeToLoss(w.targetLoss(sz, h.trace)); math.IsNaN(t) {
			fmt.Fprintf(os.Stderr, "benchmark: %s/%s never reached %.3g x its initial loss\n",
				w.name, w.headline, w.target)
			rep.failed++
		}
	}
	if w.check != nil && rep.failed == 0 {
		rep.attempted++
		if err := w.check(ref.outs, rep.outs); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s cross-check: %v\n", w.name, err)
			rep.failed++
		}
	}
	rep.load = loadavg()
	return rep, cells, nil
}

// targetLoss is the loss the headline trace must reach; the simulated time
// at which it first does is the paper's metric.
func (w *workload) targetLoss(sz sizes, tr *metrics.Trace) float64 {
	if sz.looseTarget {
		return tr.Points[0].Loss
	}
	return w.target * tr.Points[0].Loss
}

// measured is the untraced result of one workload: closed loop, one cell at
// a time, repeated until -seconds is used up.
type measured struct {
	ref       *repeat // the reference workload's pass, if there is one
	reps      []repeat
	cells     []*cell // the last repeat's cells, for the traced pass to replay
	attempted int
	failed    int
	stable    bool // every repeat agreed exactly on the simulated side
}

// last is the repeat the traced pass reads cells and walls from.
func (m measured) last() repeat { return m.reps[len(m.reps)-1] }

// measure repeats the workload until the budget is spent (at least
// sz.minRepeats times) and cross-checks the repeats against each other.
func measure(w *workload, seed uint64, sz sizes, seconds float64) (measured, error) {
	var m measured
	if w.reference != nil {
		ref, _, err := runRepeat(w.reference, seed, sz, nil)
		if err != nil {
			return m, err
		}
		m.ref = &ref
		m.attempted += ref.attempted
		m.failed += ref.failed
	}
	start := time.Now()
	for {
		rep, cells, err := runRepeat(w, seed, sz, m.ref)
		if err != nil {
			return m, err
		}
		m.reps = append(m.reps, rep)
		m.cells = cells
		m.attempted += rep.attempted
		m.failed += rep.failed
		elapsed := time.Since(start).Seconds()
		per := elapsed / float64(len(m.reps))
		if len(m.reps) >= sz.minRepeats && elapsed+per > seconds {
			break
		}
	}
	m.stable = true
	first := sigs(m.reps[0])
	for i, rep := range m.reps[1:] {
		if s := sigs(rep); s != first {
			fmt.Fprintf(os.Stderr, "benchmark: %s repeat %d differs on the simulated side:\n%s\nvs\n%s\n",
				w.name, i+1, s, first)
			m.stable = false
		}
	}
	return m, nil
}

func sigs(r repeat) string {
	var s []string
	for _, o := range r.outs {
		s = append(s, o.sig())
	}
	return strings.Join(s, "\n")
}

// stat is a metric's median over the repeats, with the range beside it.
type stat struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Unit  string  `json:"unit"`
}

func newStat(unit string, vals []float64) stat {
	s := stat{Value: median(vals), Min: math.Inf(1), Max: math.Inf(-1), Unit: unit}
	for _, v := range vals {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	return s
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEndValue reads each end-to-end metric off one repeat.
var endToEndValue = map[string]func(repeat) float64{
	"setup_s":         func(r repeat) float64 { return r.setupS },
	"wall_s":          func(r repeat) float64 { return r.wallS },
	"alloc_mb":        func(r repeat) float64 { return r.allocMB },
	"wire_mb":         func(r repeat) float64 { return float64(r.wire()) / 1e6 },
	"sim_s_per_kiter": repeat.simPerKIter,
}

// endToEnd reduces the repeats to the six end-to-end metrics.
func (m measured) endToEnd() map[string]stat {
	out := map[string]stat{}
	for _, em := range endToEndSpec {
		vals := make([]float64, len(m.reps))
		for i, r := range m.reps {
			vals[i] = endToEndValue[em.Name](r)
		}
		out[em.Name] = newStat(em.Unit, vals)
	}
	return out
}

// loadavg reads the host's 1-minute load average (0 where /proc is absent).
func loadavg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}
