package delaymodel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// The five round pricers this package shipped before SampleDRound, bodies
// unchanged (only the ref prefix is new), kept as oracles: the one loop must
// return the same float64, write the same times and leave the RNG in the same
// state as whichever of these it replaced, on every input.

func (dm *Model) refSampleDSchedule(r *rng.Rand, bytesPerWorker []int, latHops, bytesFactor float64) float64 {
	return dm.refSampleDScheduleInto(r, bytesPerWorker, latHops, bytesFactor, nil)
}

func (dm *Model) refSampleDScheduleInto(r *rng.Rand, bytesPerWorker []int, latHops, bytesFactor float64, times []float64) float64 {
	dm.checkScheduleWidth(len(bytesPerWorker))
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
	dm.checkScheduleWidth(len(bytesPerWorker))
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
	dm.checkScheduleWidth(len(bytesPerWorker))
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
	dm.checkScheduleWidth(len(bytesPerWorker))
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
// unless value, times and RNG state agree bit for bit.
func samePricing(t *testing.T, what string, seed uint64, m int, ref, got func(r *rng.Rand, times []float64) float64) {
	t.Helper()
	ra, rb := rng.New(seed), rng.New(seed)
	ta, tb := make([]float64, m), make([]float64, m)
	for i := range ta {
		ta[i], tb[i] = -1, -1 // stale entries must be overwritten alike
	}
	want, have := ref(ra, ta), got(rb, tb)
	if math.Float64bits(want) != math.Float64bits(have) {
		t.Fatalf("%s: D %v, reference %v", what, have, want)
	}
	for i := range ta {
		if math.Float64bits(ta[i]) != math.Float64bits(tb[i]) {
			t.Fatalf("%s: times[%d] %v, reference %v", what, i, tb[i], ta[i])
		}
	}
	if *ra != *rb {
		t.Fatalf("%s: RNG state diverged from the reference", what)
	}
}

func TestSampleDRoundMatchesReferencePricers(t *testing.T) {
	g := rng.New(20190331)
	for n := 0; n < 4000; n++ {
		c := drawPricerCase(g)
		dm, m, seed := c.dm, c.dm.M, uint64(n)
		what := fmt.Sprintf("case %d (m=%d links=%v edges=%d adj=%v down=%v scale=%v)",
			n, m, dm.Links != nil, len(dm.EdgeLinks), c.adj != nil, c.down, c.scale)

		// The full signature against the widest reference.
		samePricing(t, what+" edge+faulty", seed, m,
			func(r *rng.Rand, times []float64) float64 {
				return dm.refSampleDEdgeScheduleFaultyInto(r, c.bytes, c.adj, c.latHops, c.bytesFactor, c.down, c.scale, times)
			},
			func(r *rng.Rand, times []float64) float64 {
				return dm.SampleDRound(r, c.bytes, c.adj, c.latHops, c.bytesFactor, c.down, c.scale, times)
			})
		// No adjacency: the per-worker faulty pricer.
		samePricing(t, what+" faulty", seed, m,
			func(r *rng.Rand, times []float64) float64 {
				return dm.refSampleDScheduleFaultyInto(r, c.bytes, c.latHops, c.bytesFactor, c.down, c.scale, times)
			},
			func(r *rng.Rand, times []float64) float64 {
				return dm.SampleDRound(r, c.bytes, nil, c.latHops, c.bytesFactor, c.down, c.scale, times)
			})
		// Nil masks: the two surviving wrappers.
		samePricing(t, what+" edge", seed, m,
			func(r *rng.Rand, times []float64) float64 {
				return dm.refSampleDEdgeScheduleInto(r, c.bytes, c.adj, c.latHops, c.bytesFactor, times)
			},
			func(r *rng.Rand, times []float64) float64 {
				return dm.SampleDEdgeScheduleInto(r, c.bytes, c.adj, c.latHops, c.bytesFactor, times)
			})
		samePricing(t, what+" per-worker", seed, m,
			func(r *rng.Rand, times []float64) float64 {
				return dm.refSampleDScheduleInto(r, c.bytes, c.latHops, c.bytesFactor, times)
			},
			func(r *rng.Rand, times []float64) float64 {
				return dm.SampleDScheduleInto(r, c.bytes, c.latHops, c.bytesFactor, times)
			})
		// Nil times: nothing recorded, same value, same draw.
		samePricing(t, what+" unrecorded", seed, m,
			func(r *rng.Rand, _ []float64) float64 {
				return dm.refSampleDSchedule(r, c.bytes, c.latHops, c.bytesFactor)
			},
			func(r *rng.Rand, _ []float64) float64 {
				return dm.SampleDScheduleInto(r, c.bytes, c.latHops, c.bytesFactor, nil)
			})
	}
}
