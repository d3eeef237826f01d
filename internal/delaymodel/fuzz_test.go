package delaymodel

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

// The link flags are typed by users, so the shared parser must never panic,
// and whatever it accepts must be a table the engines' own validation
// (Model.Check) accepts too. The seed corpus is the flag
// examples in cmd/adacomm's header plus the degenerate forms.

func FuzzParseLinks(f *testing.F) {
	for _, s := range []string{
		"0:,0:,0:,0:25.6", "0:4096,0:4096,0:409.6", "0.5:100, :50,0:,:",
		"0:0", "-1:", "NaN:", "3-3:1:", ":", "", "1e400:", ":1e-400", "0x1p-2:0x10",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m := strings.Count(s, ",") + 1 // the one width that passes the count check
		links, err := ParseLinks(s, m)
		if err != nil {
			return
		}
		dm := New(m, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
		dm.Links = links
		if err := dm.Check(); err != nil {
			t.Fatalf("ParseLinks(%q) accepted links Check rejects: %v", s, err)
		}
	})
}

func FuzzParseEdgeLinks(f *testing.F) {
	for _, s := range []string{
		"3-4:10:", "3-4:10:,0-2::64", "3-3:1:", "0-1:0:0", "0-1:-1:", "0-1:NaN:",
		"0-1", "0-1:", "1-0:1:1,0-1:2:2", "-1-2::", "9-0::", "", "0-1:1e400:",
	} {
		f.Add(s, uint8(8))
	}
	f.Fuzz(func(t *testing.T, s string, width uint8) {
		m := int(width%16) + 1
		table, err := ParseEdgeLinks(s, m)
		if err != nil {
			return
		}
		dm := New(m, rng.Constant{Value: 1}, rng.Constant{Value: 1}, nil)
		dm.EdgeLinks = table
		if err := dm.Check(); err != nil {
			t.Fatalf("ParseEdgeLinks(%q, %d) accepted a table Check rejects: %v", s, m, err)
		}
		for e, l := range table {
			if table[Edge{From: e.To, To: e.From}] != l {
				t.Fatalf("ParseEdgeLinks(%q, %d): edge %v not priced in both directions", s, m, e)
			}
		}
	})
}

// FuzzRoundPricer holds the pricer to "clocks never move backward": every
// model Check and ComputeScales accept — raw float64 rates, latencies,
// straggler factors and jitter — prices a round's compute and comm, and a
// point-to-point transfer, at a non-negative, non-NaN time, finite whenever
// every magnitude lies within [1e-100, 1e100] (beyond that a finite rate can
// still overflow: one byte over 5e-324 B/s is +Inf seconds, a clock that
// stops rather than one that runs backwards). Every model either rejects is
// refused with an error, never a panic.
func FuzzRoundPricer(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint8(4), 100.0, 0.5, 50.0, 1.0, 10.0, 2.0, 1.0, uint8(5), uint32(800), uint16(0))
	f.Add(uint8(2), 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, uint8(0), uint32(0), uint16(0xffff))
	for _, bad := range []float64{nan, inf, -inf, 0, -1, 5e-324, 1e308} {
		f.Add(uint8(3), bad, 0.5, 50.0, 1.0, 10.0, 2.0, 1.0, uint8(3), uint32(800), uint16(1))
		f.Add(uint8(3), 100.0, bad, bad, 1.0, 10.0, 2.0, 1.0, uint8(3), uint32(800), uint16(2))
		f.Add(uint8(3), 100.0, 0.5, 50.0, bad, bad, 2.0, 1.0, uint8(3), uint32(800), uint16(4))
		f.Add(uint8(3), 100.0, 0.5, 50.0, 1.0, 10.0, bad, 1.0, uint8(3), uint32(800), uint16(0))
		f.Add(uint8(3), 100.0, 0.5, 50.0, 1.0, 10.0, 2.0, bad, uint8(3), uint32(800), uint16(0))
	}
	f.Fuzz(func(t *testing.T, width uint8, bandwidth, lat, linkBW, edgeLat, edgeBW, factor, jitter float64,
		steps uint8, bytes uint32, downBits uint16) {
		m := 2 + int(width%7)
		dm := New(m, rng.ShiftedExponential{Shift: 0.5, Scale: 0.25}, rng.Exponential{MeanVal: 0.1}, treeScaling{})
		dm.Bandwidth = bandwidth
		dm.Links = make([]Link, m)
		dm.Links[m-1] = Link{Latency: lat, Bandwidth: linkBW}
		dm.EdgeLinks = map[Edge]Link{{From: 0, To: 1}: {Latency: edgeLat, Bandwidth: edgeBW}}
		if jitter != 1 {
			dm.Jitter = rng.Constant{Value: jitter}
		}
		dm.Stragglers = make([]float64, m)
		for i := range dm.Stragglers {
			dm.Stragglers[i] = 1
		}
		dm.Stragglers[0] = factor
		if dm.Check() != nil {
			return
		}
		scales, err := dm.ComputeScales()
		if err != nil {
			return
		}

		active := make([]bool, m)
		adj := make([][]int, m)
		payloads := make([]int, m)
		for i := range active {
			active[i] = downBits>>i&1 == 0
			adj[i] = []int{(i + m - 1) % m, (i + 1) % m}
			payloads[i] = int(bytes)
		}
		times := make([]float64, m)
		r := rng.New(uint64(downBits))
		latHops := float64(1 + steps%3)
		priced := map[string]float64{
			"compute":  dm.SampleCompute(r, int(steps%16), scales, active),
			"comm":     dm.SampleDRound(r, payloads, adj, latHops, 1.5, active, nil, times),
			"transfer": dm.SampleTransfer(r, m-1, int(bytes)),
		}
		for i, v := range times {
			priced[fmt.Sprintf("times[%d]", i)] = v
		}
		sane := true
		for _, v := range []float64{bandwidth, lat, linkBW, edgeLat, edgeBW, factor, jitter} {
			if v != 0 && (v < 1e-100 || v > 1e100) {
				sane = false
			}
		}
		for what, v := range priced {
			if !(v >= 0) {
				t.Fatalf("%s = %v: an accepted model ran a clock backwards", what, v)
			}
			if sane && math.IsInf(v, 1) {
				t.Fatalf("%s = +Inf from in-range inputs", what)
			}
		}
	})
}
