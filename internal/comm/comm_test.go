package comm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/rng"
)

func testMessages(t *testing.T, dim, m int) []compress.Message {
	t.Helper()
	r := rng.New(50)
	specs := []compress.Spec{
		{Kind: compress.KindIdentity},
		{Kind: compress.KindTopK, Ratio: 0.2},
		{Kind: compress.KindRandK, Ratio: 0.3},
		{Kind: compress.KindQSGD, Bits: 6},
	}
	msgs := make([]compress.Message, m)
	for i := 0; i < m; i++ {
		c, err := specs[i%len(specs)].New(r.Split())
		if err != nil {
			t.Fatal(err)
		}
		vec := make([]float64, dim)
		for j := range vec {
			vec[j] = r.NormFloat64()
		}
		msg, err := c.Compress(vec)
		if err != nil {
			t.Fatal(err)
		}
		msgs[i] = msg
	}
	return msgs
}

func TestAllReduceMatchesDenseReference(t *testing.T) {
	const dim, m = 64, 8
	msgs := testMessages(t, dim, m)
	c := New(AllGather, m)

	sum := make([]float64, dim)
	rep, err := c.AllReduce(msgs, sum)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: decode every message to dense and add.
	want := make([]float64, dim)
	dec := make([]float64, dim)
	maxBytes := 0
	for _, msg := range msgs {
		if err := compress.Decode(msg, dec); err != nil {
			t.Fatal(err)
		}
		for j := range want {
			want[j] += dec[j]
		}
		if b := msg.Bytes(); b > maxBytes {
			maxBytes = b
		}
	}
	for j := range want {
		if math.Abs(sum[j]-want[j]) > 1e-12*(1+math.Abs(want[j])) {
			t.Fatalf("index-merge sum diverged at %d: %v vs %v", j, sum[j], want[j])
		}
	}
	if rep.Max != maxBytes {
		t.Fatalf("report max %d, want %d", rep.Max, maxBytes)
	}
	if len(rep.Bytes) != m {
		t.Fatalf("report has %d workers, want %d", len(rep.Bytes), m)
	}
	for i, msg := range msgs {
		if rep.Bytes[i] != msg.Bytes() {
			t.Fatalf("worker %d bytes %d, want %d", i, rep.Bytes[i], msg.Bytes())
		}
	}
}

func TestAllReduceZeroesSum(t *testing.T) {
	const dim, m = 8, 2
	msgs := testMessages(t, dim, m)
	c := New(AllGather, m)
	sum := make([]float64, dim)
	for j := range sum {
		sum[j] = 1e9
	}
	if _, err := c.AllReduce(msgs, sum); err != nil {
		t.Fatal(err)
	}
	for j := range sum {
		if math.Abs(sum[j]) > 1e6 {
			t.Fatalf("sum not zeroed before accumulation: %v", sum[j])
		}
	}
}

func TestAllReduceErrors(t *testing.T) {
	c := New(AllGather, 3)
	sum := make([]float64, 4)
	if _, err := c.AllReduce(make([]compress.Message, 2), sum); err == nil {
		t.Fatal("accepted wrong message count")
	}
	msgs := []compress.Message{
		{Dim: 9, Enc: compress.EncDense, Dense: make([]float64, 9)},
		{Dim: 4, Enc: compress.EncDense, Dense: make([]float64, 4)},
		{Dim: 4, Enc: compress.EncDense, Dense: make([]float64, 4)},
	}
	if _, err := c.AllReduce(msgs, sum); err == nil {
		t.Fatal("accepted dim mismatch")
	}
}

func TestPushDecodesAndAccounts(t *testing.T) {
	c := New(Star, 4)
	vec := []float64{1, -2, 3, 0}
	msg := compress.Message{Dim: 4, Enc: compress.EncDense, Dense: vec}
	dst := make([]float64, 4)
	up, err := c.Push(2, msg, dst)
	if err != nil {
		t.Fatal(err)
	}
	for j := range vec {
		if dst[j] != vec[j] {
			t.Fatalf("push did not decode at %d", j)
		}
	}
	if up != msg.Bytes() {
		t.Fatalf("push payload %d, want %d", up, msg.Bytes())
	}
	if _, err := c.Push(9, msg, dst); err == nil {
		t.Fatal("accepted out-of-range worker")
	}
}

func TestPushMultiDecodesValidatesAndAccounts(t *testing.T) {
	c := New(AllGather, 4)
	vec := []float64{1, -2, 3, 0}
	msg := compress.Message{Dim: 4, Enc: compress.EncDense, Dense: vec}
	dst := make([]float64, 4)
	up, err := c.PushMulti(1, []int{0, 2}, msg, dst)
	if err != nil {
		t.Fatal(err)
	}
	for j := range vec {
		if dst[j] != vec[j] {
			t.Fatalf("multicast did not decode at %d", j)
		}
	}
	// One overlapped hop: the message is charged once regardless of the
	// peer count.
	if up != msg.Bytes() {
		t.Fatalf("multicast payload %d, want %d", up, msg.Bytes())
	}
	if _, err := c.PushMulti(9, []int{0}, msg, dst); err == nil {
		t.Fatal("accepted out-of-range sender")
	}
	if _, err := c.PushMulti(1, []int{4}, msg, dst); err == nil {
		t.Fatal("accepted out-of-range peer")
	}
	if _, err := c.PushMulti(1, []int{1}, msg, dst); err == nil {
		t.Fatal("accepted self-addressed peer")
	}
	if _, err := c.PushMulti(1, []int{0, 2, 0}, msg, dst); err == nil {
		t.Fatal("accepted duplicate peer")
	}
	if _, err := c.PushMulti(1, []int{2, 2}, msg, dst); err == nil {
		t.Fatal("accepted adjacent duplicate peer")
	}
	bad := compress.Message{Dim: 9, Enc: compress.EncDense, Dense: make([]float64, 9)}
	if _, err := c.PushMulti(1, []int{0}, bad, dst); err == nil {
		t.Fatal("accepted dim mismatch")
	}
}

func TestTopologyParseAndString(t *testing.T) {
	for _, topo := range []Topology{AllGather, Ring, Tree, Star} {
		got, err := ParseTopology(topo.String())
		if err != nil || got != topo {
			t.Fatalf("round-trip %s: %v %v", topo, got, err)
		}
	}
	if got, err := ParseTopology(""); err != nil || got != AllGather {
		t.Fatalf("empty topology: %v %v", got, err)
	}
	if _, err := ParseTopology("mesh"); err == nil {
		t.Fatal("accepted unknown topology")
	}
	// The error enumerates the accepted forms — "mesh" must not just fail
	// opaquely.
	_, err := ParseTopology("mesh")
	for _, want := range []string{"allgather", "tree", "torus:RxC", "varying:"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not enumerate %q", err, want)
		}
	}
}

func TestTopologyGraphSpecs(t *testing.T) {
	// Bare "ring"/"star" stay the collectives; the graph reading needs the
	// forcing prefix. Unambiguous graph names parse directly.
	for _, s := range []string{"graph:ring", "graph:star", "complete", "expander",
		"torus:4x4", "regular:4@7", "varying:ring,star@B=5"} {
		topo, err := ParseTopology(s)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", s, err)
		}
		if !topo.IsGraph() {
			t.Fatalf("ParseTopology(%q) not a graph topology", s)
		}
		if topo == AllGather {
			t.Fatalf("graph topology %q compares equal to AllGather", s)
		}
		if topo.String() != s {
			t.Fatalf("ParseTopology(%q).String() = %q", s, topo.String())
		}
		// Graph rounds keep the single-overlapped-hop pricing.
		if topo.LatencyHops(16) != 1 || topo.BytesFactor(16) != 1 {
			t.Fatalf("%q hops/bytes not 1", s)
		}
	}
	topo, err := ParseTopology("torus:4x4")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := topo.Graphs(16)
	if err != nil || seq.N() != 16 {
		t.Fatalf("torus:4x4 at m=16: %v", err)
	}
	if _, err := topo.Graphs(9); err == nil {
		t.Fatal("torus:4x4 accepted m=9")
	}
	if _, err := AllGather.Graphs(4); err == nil {
		t.Fatal("collective topology instantiated a graph")
	}
	// Malformed specs of a recognized graph kind are rejected too.
	for _, s := range []string{"torus:4", "regular:0", "varying:ring"} {
		if _, err := ParseTopology(s); err == nil {
			t.Fatalf("ParseTopology(%q) accepted", s)
		}
	}
}

// FuzzParseTopology: the grammar users type after -topology never panics, a
// topology it accepts prints (String) as one that parses back to the same
// String, and a graph topology instantiated for any cluster of 1 to 64 nodes
// either errors or returns graphs of exactly that many nodes. The seed corpus
// is the forms above, good and bad, so plain `go test` replays them.
func FuzzParseTopology(f *testing.F) {
	for _, s := range []string{"", "allgather", "ring", "tree", "star", "mesh", "graph:ring", "graph:star", "graph:tree",
		"complete", "expander", "torus:4x4", "torus:1x5", "torus:4", "torus:0x0", "torus:-2x-2",
		"torus:4611686018427387905x4", "regular:4@7", "regular:0", "regular:3@x", "varying:ring,star@B=5",
		"varying:ring", "varying:ring,varying:ring,star", "varying:torus:2x2,complete@B=0", "graph:graph:ring"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		topo, err := ParseTopology(in)
		if err != nil {
			return
		}
		back, err := ParseTopology(topo.String())
		if err != nil || back.String() != topo.String() {
			t.Fatalf("ParseTopology(%q) prints as %q, which parses to %v (err %v)", in, topo, back, err)
		}
		if !topo.IsGraph() {
			return
		}
		for m := 1; m <= 64; m++ {
			seq, err := topo.Graphs(m)
			if err != nil {
				continue
			}
			for i := 0; i < seq.Len(); i++ {
				if n := seq.Graph(i).N(); n != m {
					t.Fatalf("%q at m=%d: graph %d has %d nodes", in, m, i, n)
				}
			}
		}
	})
}

func TestTopologyScheduleFactors(t *testing.T) {
	const m = 8
	cases := []struct {
		topo  Topology
		hops  float64
		bytes float64
	}{
		{AllGather, 1, 1},
		{Ring, 14, 14.0 / 8},
		{Tree, 6, 6},
		{Star, 2, 2},
	}
	for _, tc := range cases {
		if got := tc.topo.LatencyHops(m); math.Abs(got-tc.hops) > 1e-12 {
			t.Fatalf("%s hops %v, want %v", tc.topo, got, tc.hops)
		}
		if got := tc.topo.BytesFactor(m); math.Abs(got-tc.bytes) > 1e-12 {
			t.Fatalf("%s bytes factor %v, want %v", tc.topo, got, tc.bytes)
		}
		// Degenerate single-node cluster: no multiplier on any topology.
		if tc.topo.LatencyHops(1) != 1 || tc.topo.BytesFactor(1) != 1 {
			t.Fatalf("%s m=1 factors not 1", tc.topo)
		}
	}
}
