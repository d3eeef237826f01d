package delaymodel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// Every pricer the repository shipped before the one compute loop
// (SampleCompute), the one broadcast pricer (SampleDRound) and the one link
// rule, kept as oracles with their bodies unchanged: only the ref prefix is
// new, and a callee that is gone is called by its ref name. What replaced
// each must return the same float64s, write the same times and leave the
// stream with the same next Uint64, on every input.

func (dm *Model) refCheckScheduleWidth(workers int) {
	if dm.Links != nil && len(dm.Links) < workers {
		panic(fmt.Sprintf("delaymodel: schedule for %d workers but only %d links (Links must cover every worker)", workers, len(dm.Links)))
	}
}

func (dm *Model) refSampleDSchedule(r *rng.Rand, bytesPerWorker []int, latHops, bytesFactor float64) float64 {
	return dm.refSampleDScheduleInto(r, bytesPerWorker, latHops, bytesFactor, nil)
}

func (dm *Model) refSampleDScheduleInto(r *rng.Rand, bytesPerWorker []int, latHops, bytesFactor float64, times []float64) float64 {
	dm.refCheckScheduleWidth(len(bytesPerWorker))
	d := dm.D0.Sample(r) * latHops
	if dm.Links == nil {
		mx := 0
		for i, b := range bytesPerWorker {
			if times != nil {
				times[i] = 0
				if dm.Bandwidth > 0 && b > 0 {
					times[i] = float64(b) * bytesFactor / dm.Bandwidth
				}
			}
			if b > mx {
				mx = b
			}
		}
		if dm.Bandwidth > 0 && mx > 0 {
			d += float64(mx) * bytesFactor / dm.Bandwidth
		}
		return d * dm.Scale.Factor(dm.M)
	}
	slow := 0.0
	for i, b := range bytesPerWorker {
		l := dm.Links[i]
		t := l.Latency * latHops
		bw := l.Bandwidth
		if bw == 0 {
			bw = dm.Bandwidth
		}
		if bw > 0 && b > 0 {
			t += float64(b) * bytesFactor / bw
		}
		if times != nil {
			times[i] = t
		}
		if t > slow {
			slow = t
		}
	}
	return (d + slow) * dm.Scale.Factor(dm.M)
}

func (dm *Model) refSampleDEdgeScheduleInto(r *rng.Rand, bytesPerWorker []int, adj [][]int, latHops, bytesFactor float64, times []float64) float64 {
	if adj == nil || dm.EdgeLinks == nil {
		return dm.refSampleDScheduleInto(r, bytesPerWorker, latHops, bytesFactor, times)
	}
	dm.refCheckScheduleWidth(len(bytesPerWorker))
	if len(adj) < len(bytesPerWorker) {
		panic(fmt.Sprintf("delaymodel: schedule for %d workers over a %d-node adjacency", len(bytesPerWorker), len(adj)))
	}
	d := dm.D0.Sample(r) * latHops
	slow := 0.0
	for i, b := range bytesPerWorker {
		wt := 0.0
		for _, j := range adj[i] {
			l, ok := dm.EdgeLinks[Edge{From: i, To: j}]
			if !ok && dm.Links != nil {
				l = dm.Links[i]
			}
			bw := l.Bandwidth
			if bw == 0 && dm.Links != nil {
				bw = dm.Links[i].Bandwidth
			}
			if bw == 0 {
				bw = dm.Bandwidth
			}
			t := l.Latency * latHops
			if bw > 0 && b > 0 {
				t += float64(b) * bytesFactor / bw
			}
			if t > wt {
				wt = t
			}
		}
		if times != nil {
			times[i] = wt
		}
		if wt > slow {
			slow = wt
		}
	}
	return (d + slow) * dm.Scale.Factor(dm.M)
}

func (dm *Model) refSampleDScheduleFaultyInto(r *rng.Rand, bytesPerWorker []int, latHops, bytesFactor float64, down []bool, scale []float64, times []float64) float64 {
	if down == nil && scale == nil {
		return dm.refSampleDScheduleInto(r, bytesPerWorker, latHops, bytesFactor, times)
	}
	dm.refCheckScheduleWidth(len(bytesPerWorker))
	d := dm.D0.Sample(r) * latHops
	slow := 0.0
	for i, b := range bytesPerWorker {
		if down != nil && down[i] {
			if times != nil {
				times[i] = 0
			}
			continue
		}
		var t float64
		if dm.Links == nil {
			if dm.Bandwidth > 0 && b > 0 {
				t = float64(b) * bytesFactor / dm.Bandwidth
			}
		} else {
			l := dm.Links[i]
			t = l.Latency * latHops
			bw := l.Bandwidth
			if bw == 0 {
				bw = dm.Bandwidth
			}
			if bw > 0 && b > 0 {
				t += float64(b) * bytesFactor / bw
			}
		}
		if scale != nil {
			t *= scale[i]
		}
		if times != nil {
			times[i] = t
		}
		if t > slow {
			slow = t
		}
	}
	return (d + slow) * dm.Scale.Factor(dm.M)
}

func (dm *Model) refSampleDEdgeScheduleFaultyInto(r *rng.Rand, bytesPerWorker []int, adj [][]int, latHops, bytesFactor float64, down []bool, scale []float64, times []float64) float64 {
	if down == nil && scale == nil {
		return dm.refSampleDEdgeScheduleInto(r, bytesPerWorker, adj, latHops, bytesFactor, times)
	}
	if adj == nil || dm.EdgeLinks == nil {
		return dm.refSampleDScheduleFaultyInto(r, bytesPerWorker, latHops, bytesFactor, down, scale, times)
	}
	dm.refCheckScheduleWidth(len(bytesPerWorker))
	if len(adj) < len(bytesPerWorker) {
		panic(fmt.Sprintf("delaymodel: schedule for %d workers over a %d-node adjacency", len(bytesPerWorker), len(adj)))
	}
	d := dm.D0.Sample(r) * latHops
	slow := 0.0
	for i, b := range bytesPerWorker {
		if down != nil && down[i] {
			if times != nil {
				times[i] = 0
			}
			continue
		}
		wt := 0.0
		for _, j := range adj[i] {
			if down != nil && down[j] {
				continue
			}
			l, ok := dm.EdgeLinks[Edge{From: i, To: j}]
			if !ok && dm.Links != nil {
				l = dm.Links[i]
			}
			bw := l.Bandwidth
			if bw == 0 && dm.Links != nil {
				bw = dm.Links[i].Bandwidth
			}
			if bw == 0 {
				bw = dm.Bandwidth
			}
			t := l.Latency * latHops
			if bw > 0 && b > 0 {
				t += float64(b) * bytesFactor / bw
			}
			if t > wt {
				wt = t
			}
		}
		if scale != nil {
			wt *= scale[i]
		}
		if times != nil {
			times[i] = wt
		}
		if wt > slow {
			slow = wt
		}
	}
	return (d + slow) * dm.Scale.Factor(dm.M)
}

func (dm *Model) refSampleDBytes(r *rng.Rand, bytes int) float64 {
	d := dm.D0.Sample(r)
	if dm.Bandwidth > 0 && bytes > 0 {
		d += float64(bytes) / dm.Bandwidth
	}
	return d * dm.Scale.Factor(dm.M)
}

func (dm *Model) refSampleSyncIterationBytes(r *rng.Rand, bytes int) float64 {
	mx := math.Inf(-1)
	for i := 0; i < dm.M; i++ {
		if v := dm.Y.Sample(r); v > mx {
			mx = v
		}
	}
	return mx + dm.refSampleDBytes(r, bytes)
}

func (dm *Model) refSampleRoundBytes(tau int, r *rng.Rand, bytes int) float64 {
	if tau < 1 {
		panic("delaymodel: tau must be >= 1")
	}
	mx := math.Inf(-1)
	for i := 0; i < dm.M; i++ {
		sum := 0.0
		for k := 0; k < tau; k++ {
			sum += dm.Y.Sample(r)
		}
		if sum > mx {
			mx = sum
		}
	}
	return mx + dm.refSampleDBytes(r, bytes)
}

func refMeasureBreakdownBytes(p Profile, m, tau, iters int, r *rng.Rand, bytes int) Breakdown {
	dm := p.Model(m, ConstantScaling{})
	b := Breakdown{Profile: p.Name, Tau: tau, Iters: iters}
	done := 0
	for done < iters {
		steps := tau
		if rem := iters - done; rem < steps {
			steps = rem
		}
		mx := math.Inf(-1)
		for i := 0; i < m; i++ {
			sum := 0.0
			for k := 0; k < steps; k++ {
				sum += dm.Y.Sample(r)
			}
			if sum > mx {
				mx = sum
			}
		}
		b.Compute += mx
		b.Comm += dm.refSampleDBytes(r, bytes)
		done += steps
	}
	b.WallClock = b.Compute + b.Comm
	return b
}

// cluster.Engine.roundTime's compute loop, which always held a factor and a
// down mask per worker (e.m == dm.M, e.r, e.slow, e.fltDown).
func (dm *Model) refRoundCompute(r *rng.Rand, steps int, slow []float64, fltDown []bool) float64 {
	mx := math.Inf(-1)
	for i := 0; i < dm.M; i++ {
		sum := 0.0
		for k := 0; k < steps; k++ {
			sum += dm.Y.Sample(r)
		}
		// Down workers' compute draws still happen (stream alignment: the
		// round consumes the same RNG regardless of membership) but do not
		// gate the round.
		if fltDown[i] {
			continue
		}
		if v := slow[i] * sum; v > mx {
			mx = v
		}
	}
	if math.IsInf(mx, -1) {
		mx = 0 // every worker down: the round is pure waiting
	}
	return mx
}

func (dm *Model) refSampleTransfer(r *rng.Rand, worker, bytes int) float64 {
	d := dm.D0.Sample(r)
	bw := dm.Bandwidth
	if dm.Links != nil {
		if worker < 0 || worker >= len(dm.Links) {
			panic(fmt.Sprintf("delaymodel: transfer for worker %d but only %d links (Links must cover every worker)", worker, len(dm.Links)))
		}
		l := dm.Links[worker]
		d += l.Latency
		if l.Bandwidth > 0 {
			bw = l.Bandwidth
		}
	}
	if bw > 0 && bytes > 0 {
		d += float64(bytes) / bw
	}
	return d
}

// paramserver.Server.dispatch's exchange pricing before the server held a
// Model, on the Config fields it now builds one from (ComputeY -> Y,
// PushDelay -> D0, Bandwidth, Links), with w.r and s.delayRand as rw and rd.
func refServerExchange(computeY, pushDelay rng.Distribution, bandwidth float64, links []Link, i, wire int, rw, rd *rng.Rand) (dur, transfer float64) {
	dur = computeY.Sample(rw) + pushDelay.Sample(rd)
	transfer = 0.0
	bw := bandwidth
	if links != nil {
		l := links[i]
		dur += l.Latency
		transfer += l.Latency
		if l.Bandwidth > 0 {
			bw = l.Bandwidth
		}
	}
	if bw > 0 {
		wt := float64(wire) / bw
		dur += wt
		transfer += wt
	}
	return dur, transfer
}

// serverExchange is how paramserver.Server.dispatch prices an exchange now:
// the same two draws, then the link rule's terms in the order dur always
// added them.
func serverExchange(dm *Model, i, wire int, rw, rd *rng.Rand) (dur, transfer float64) {
	dur = dm.Y.Sample(rw) + dm.D0.Sample(rd)
	lat, w := dm.TransferTerms(i, wire)
	dur += lat
	dur += w
	return dur, lat + w
}

// pricerCase is one randomly drawn pricing problem.
type pricerCase struct {
	dm                   *Model
	bytes                []int
	adj                  [][]int
	latHops, bytesFactor float64
	down                 []bool
	scale                []float64
}

// drawPricerCase covers the option space the engines reach and then some:
// Links nil / partly zero / fully set, EdgeLinks nil / empty / sparse,
// adjacency nil / ring / random (with isolated nodes), masks nil / random,
// payloads with zeros, hop multipliers away from 1.
func drawPricerCase(g *rng.Rand) pricerCase {
	m := 1 + g.Intn(12)
	c := pricerCase{dm: &Model{M: m, D0: rng.Exponential{MeanVal: 0.5}, Scale: TreeScaling{}}}
	if g.Intn(2) == 0 {
		c.dm.D0, c.dm.Scale = rng.Constant{Value: 0.25}, LinearScaling{}
	}
	if g.Intn(3) > 0 {
		c.dm.Bandwidth = 10 + 1000*g.Float64()
	}
	link := func() Link {
		var l Link
		if g.Intn(3) > 0 {
			l.Latency = 3 * g.Float64()
		}
		if g.Intn(3) > 0 {
			l.Bandwidth = 5 + 500*g.Float64()
		}
		return l
	}
	switch g.Intn(3) {
	case 1: // partly zero: some workers transparent
		c.dm.Links = make([]Link, m)
		for i := range c.dm.Links {
			if g.Intn(2) == 0 {
				c.dm.Links[i] = link()
			}
		}
	case 2:
		c.dm.Links = make([]Link, m)
		for i := range c.dm.Links {
			c.dm.Links[i] = Link{Latency: g.Float64(), Bandwidth: 5 + 500*g.Float64()}
		}
	}
	if g.Intn(3) > 0 {
		c.dm.EdgeLinks = map[Edge]Link{}
		for n := g.Intn(2 * m); n > 0; n-- {
			c.dm.EdgeLinks[Edge{From: g.Intn(m), To: g.Intn(m)}] = link()
		}
	}
	switch g.Intn(3) {
	case 1: // ring
		c.adj = make([][]int, m)
		for i := range c.adj {
			if m > 1 {
				c.adj[i] = []int{(i + m - 1) % m, (i + 1) % m}
			}
		}
	case 2: // random directed lists, some empty
		c.adj = make([][]int, m)
		for i := range c.adj {
			for n := g.Intn(4); n > 0; n-- {
				c.adj[i] = append(c.adj[i], g.Intn(m))
			}
		}
	}
	c.bytes = make([]int, m)
	for i := range c.bytes {
		if g.Intn(4) > 0 {
			c.bytes[i] = g.Intn(5000)
		}
	}
	c.latHops, c.bytesFactor = 1, 1
	if g.Intn(2) == 0 {
		c.latHops, c.bytesFactor = float64(1+g.Intn(6)), 0.5+2*g.Float64()
	}
	if g.Intn(2) == 0 {
		c.down = make([]bool, m)
		for i := range c.down {
			c.down[i] = g.Intn(3) == 0
		}
	}
	if g.Intn(2) == 0 {
		c.scale = make([]float64, m)
		for i := range c.scale {
			c.scale[i] = 1 + float64(g.Intn(4))*g.Float64()
		}
	}
	return c
}

// samePricing runs a reference and its replacement from one seed and fails
// unless every returned float64 and the stream's next Uint64 agree bit for
// bit.
func samePricing(t *testing.T, what string, seed uint64, ref, got func(r *rng.Rand) []float64) {
	t.Helper()
	ra, rb := rng.New(seed), rng.New(seed)
	want, have := ref(ra), got(rb)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(have[i]) {
			t.Fatalf("%s: value %d is %v, reference %v", what, i, have[i], want[i])
		}
	}
	if a, b := ra.Uint64(), rb.Uint64(); a != b {
		t.Fatalf("%s: next Uint64 %#x, reference %#x", what, b, a)
	}
}

// recorded returns a round pricer's value followed by the times it wrote
// over m stale entries, which must be overwritten alike.
func recorded(m int, price func(times []float64) float64) []float64 {
	times := make([]float64, m)
	for i := range times {
		times[i] = -1
	}
	return append([]float64{price(times)}, times...)
}

// one wraps a single-valued pricer.
func one(v float64) []float64 { return []float64{v} }

func TestSampleDRoundMatchesReferencePricers(t *testing.T) {
	g := rng.New(20190331)
	for n := 0; n < 4000; n++ {
		c := drawPricerCase(g)
		dm, m, seed := c.dm, c.dm.M, uint64(n)
		what := fmt.Sprintf("case %d (m=%d links=%v edges=%d adj=%v down=%v scale=%v)",
			n, m, dm.Links != nil, len(dm.EdgeLinks), c.adj != nil, c.down, c.scale)

		// The full signature against the widest reference.
		samePricing(t, what+" edge+faulty", seed,
			func(r *rng.Rand) []float64 {
				return recorded(m, func(times []float64) float64 {
					return dm.refSampleDEdgeScheduleFaultyInto(r, c.bytes, c.adj, c.latHops, c.bytesFactor, c.down, c.scale, times)
				})
			},
			func(r *rng.Rand) []float64 {
				return recorded(m, func(times []float64) float64 {
					return dm.SampleDRound(r, c.bytes, c.adj, c.latHops, c.bytesFactor, c.down, c.scale, times)
				})
			})
		// No adjacency: the per-worker faulty pricer.
		samePricing(t, what+" faulty", seed,
			func(r *rng.Rand) []float64 {
				return recorded(m, func(times []float64) float64 {
					return dm.refSampleDScheduleFaultyInto(r, c.bytes, c.latHops, c.bytesFactor, c.down, c.scale, times)
				})
			},
			func(r *rng.Rand) []float64 {
				return recorded(m, func(times []float64) float64 {
					return dm.SampleDRound(r, c.bytes, nil, c.latHops, c.bytesFactor, c.down, c.scale, times)
				})
			})
		// Nil masks: the two surviving wrappers.
		samePricing(t, what+" edge", seed,
			func(r *rng.Rand) []float64 {
				return recorded(m, func(times []float64) float64 {
					return dm.refSampleDEdgeScheduleInto(r, c.bytes, c.adj, c.latHops, c.bytesFactor, times)
				})
			},
			func(r *rng.Rand) []float64 {
				return recorded(m, func(times []float64) float64 {
					return dm.SampleDEdgeScheduleInto(r, c.bytes, c.adj, c.latHops, c.bytesFactor, times)
				})
			})
		samePricing(t, what+" per-worker", seed,
			func(r *rng.Rand) []float64 {
				return recorded(m, func(times []float64) float64 {
					return dm.refSampleDScheduleInto(r, c.bytes, c.latHops, c.bytesFactor, times)
				})
			},
			func(r *rng.Rand) []float64 {
				return recorded(m, func(times []float64) float64 {
					return dm.SampleDScheduleInto(r, c.bytes, c.latHops, c.bytesFactor, times)
				})
			})
		// Nil times: nothing recorded, same value, same draw.
		samePricing(t, what+" unrecorded", seed,
			func(r *rng.Rand) []float64 {
				return one(dm.refSampleDSchedule(r, c.bytes, c.latHops, c.bytesFactor))
			},
			func(r *rng.Rand) []float64 {
				return one(dm.SampleDScheduleInto(r, c.bytes, c.latHops, c.bytesFactor, nil))
			})
	}
}

// The compute half, the link rule's two other callers and the analytic
// samplers, against the loops they replaced.
func TestComputeLinksAndSamplersMatchReferencePricers(t *testing.T) {
	g := rng.New(20261015)
	ys := []rng.Distribution{
		rng.Exponential{MeanVal: 1}, rng.ShiftedExponential{Shift: 0.04, Scale: 0.01},
		rng.Constant{Value: 0.5}, rng.Pareto{Xm: 1, Alpha: 1.5},
	}
	for n := 0; n < 2000; n++ {
		c := drawPricerCase(g)
		dm, m, seed := c.dm, c.dm.M, uint64(n)
		dm.Y = ys[g.Intn(len(ys))]
		tau, bytes, worker := 1+g.Intn(12), c.bytes[g.Intn(m)], g.Intn(m)
		slow := make([]float64, m)
		for i := range slow {
			slow[i] = 0.25 + 4*g.Float64()
		}
		down := c.down
		if down == nil {
			down = make([]bool, m)
		}
		ones := make([]float64, m)
		for i := range ones {
			ones[i] = 1
		}
		what := fmt.Sprintf("case %d (m=%d Y=%v tau=%d bytes=%d links=%v down=%v)",
			n, m, dm.Y, tau, bytes, dm.Links != nil, c.down)

		samePricing(t, what+" round compute", seed,
			func(r *rng.Rand) []float64 { return one(dm.refRoundCompute(r, tau, slow, down)) },
			func(r *rng.Rand) []float64 { return one(dm.SampleCompute(r, tau, slow, down)) })
		samePricing(t, what+" unit compute", seed,
			func(r *rng.Rand) []float64 { return one(dm.refRoundCompute(r, tau, ones, make([]bool, m))) },
			func(r *rng.Rand) []float64 { return one(dm.SampleCompute(r, tau, nil, nil)) })
		samePricing(t, what+" transfer", seed,
			func(r *rng.Rand) []float64 { return one(dm.refSampleTransfer(r, worker, bytes)) },
			func(r *rng.Rand) []float64 { return one(dm.SampleTransfer(r, worker, bytes)) })
		// The server's two streams: the compute draw on r, the push delay on
		// a stream split off it, whose next draw is compared too.
		exchange := func(price func(rw, rd *rng.Rand) (float64, float64)) func(r *rng.Rand) []float64 {
			return func(r *rng.Rand) []float64 {
				rd := r.Split()
				dur, transfer := price(r, rd)
				return []float64{dur, transfer, math.Float64frombits(rd.Uint64())}
			}
		}
		samePricing(t, what+" server exchange", seed,
			exchange(func(rw, rd *rng.Rand) (float64, float64) {
				return refServerExchange(dm.Y, dm.D0, dm.Bandwidth, dm.Links, worker, bytes, rw, rd)
			}),
			exchange(func(rw, rd *rng.Rand) (float64, float64) {
				return serverExchange(dm, worker, bytes, rw, rd)
			}))

		// The analytic samplers serve the shared link.
		h := &Model{M: m, Y: dm.Y, D0: dm.D0, Scale: dm.Scale, Bandwidth: dm.Bandwidth}
		samePricing(t, what+" broadcast", seed,
			func(r *rng.Rand) []float64 { return one(h.refSampleDBytes(r, bytes)) },
			func(r *rng.Rand) []float64 { return one(h.SampleDScheduleInto(r, h.payloads(bytes), 1, 1, nil)) })
		samePricing(t, what+" sync iteration", seed,
			func(r *rng.Rand) []float64 { return one(h.refSampleSyncIterationBytes(r, bytes)) },
			func(r *rng.Rand) []float64 { return one(h.SampleRoundBytes(1, r, bytes)) })
		samePricing(t, what+" round", seed,
			func(r *rng.Rand) []float64 { return one(h.refSampleRoundBytes(tau, r, bytes)) },
			func(r *rng.Rand) []float64 { return one(h.SampleRoundBytes(tau, r, bytes)) })
		p := Profile{Name: "case", ComputeY: dm.Y, CommD0: dm.D0, Bandwidth: dm.Bandwidth}
		iters := 1 + g.Intn(40)
		breakdown := func(b Breakdown) []float64 { return []float64{b.Compute, b.Comm, b.WallClock} }
		samePricing(t, what+" breakdown", seed,
			func(r *rng.Rand) []float64 { return breakdown(refMeasureBreakdownBytes(p, m, tau, iters, r, bytes)) },
			func(r *rng.Rand) []float64 { return breakdown(MeasureBreakdownBytes(p, m, tau, iters, r, bytes)) })
	}
}
