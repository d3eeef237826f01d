package comm

import (
	"strings"
	"testing"

	"repro/internal/compress"
)

func denseMsg(dim int, fill float64) compress.Message {
	v := make([]float64, dim)
	for i := range v {
		v[i] = fill
	}
	return compress.Message{Dim: dim, Enc: compress.EncDense, Dense: v}
}

func TestSetActiveSkipsInactiveContributions(t *testing.T) {
	const dim, m = 4, 3
	c := New(AllGather, m)
	msgs := []compress.Message{denseMsg(dim, 1), denseMsg(dim, 10), denseMsg(dim, 100)}
	sum := make([]float64, dim)

	c.SetActive([]bool{true, false, true})
	if c.ActiveCount() != 2 {
		t.Fatalf("active count %d, want 2", c.ActiveCount())
	}
	rep, err := c.AllReduce(msgs, sum)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range sum {
		if v != 101 {
			t.Fatalf("sum[%d] = %v, want 101 (worker 1 skipped)", j, v)
		}
	}
	if rep.Bytes[1] != 0 {
		t.Fatalf("inactive worker shipped %d bytes", rep.Bytes[1])
	}
	if rep.Bytes[0] != 8*dim || rep.Bytes[2] != 8*dim {
		t.Fatalf("active bytes %v", rep.Bytes)
	}

	// An all-true set restores the full membership.
	c.SetActive([]bool{true, true, true})
	if c.ActiveCount() != m {
		t.Fatalf("restored count %d, want %d", c.ActiveCount(), m)
	}
	if _, err := c.AllReduce(msgs, sum); err != nil {
		t.Fatal(err)
	}
	if sum[0] != 111 {
		t.Fatalf("full sum %v, want 111", sum[0])
	}
}

// TestAllReduceReportIsReusedScratch: the Report's Bytes are the
// communicator's, rewritten (not accumulated) by the next AllReduce — a
// worker that drops out reads zero even though the slot held its last
// payload — and a round allocates nothing.
func TestAllReduceReportIsReusedScratch(t *testing.T) {
	const dim, m = 4, 3
	c := New(AllGather, m)
	msgs := []compress.Message{denseMsg(dim, 1), denseMsg(dim, 10), denseMsg(dim, 100)}
	sum := make([]float64, dim)
	first, err := c.AllReduce(msgs, sum)
	if err != nil {
		t.Fatal(err)
	}
	c.SetActive([]bool{true, false, true})
	second, err := c.AllReduce(msgs, sum)
	if err != nil {
		t.Fatal(err)
	}
	if &first.Bytes[0] != &second.Bytes[0] {
		t.Fatal("AllReduce allocated a new Report.Bytes")
	}
	if second.Bytes[1] != 0 || second.Bytes[0] != 8*dim || second.Max != 8*dim {
		t.Fatalf("second report %+v: stale bytes survived the reuse", second)
	}
	if n := testing.AllocsPerRun(10, func() { c.AllReduce(msgs, sum) }); n != 0 {
		t.Fatalf("%v allocs per AllReduce, want 0", n)
	}
}

func TestPushRejectsInactiveEndpoints(t *testing.T) {
	const dim, m = 4, 3
	c := New(AllGather, m)
	c.SetActive([]bool{true, false, true})
	dst := make([]float64, dim)

	if _, err := c.Push(1, denseMsg(dim, 1), dst); err == nil ||
		!strings.Contains(err.Error(), "not in the active set") {
		t.Fatalf("inactive push: %v", err)
	}
	if _, err := c.Push(0, denseMsg(dim, 1), dst); err != nil {
		t.Fatalf("active push: %v", err)
	}
	if _, err := c.PushMulti(1, []int{0}, denseMsg(dim, 1), dst); err == nil {
		t.Fatal("inactive sender accepted")
	}
	if _, err := c.PushMulti(0, []int{1}, denseMsg(dim, 1), dst); err == nil ||
		!strings.Contains(err.Error(), "inactive peer 1") {
		t.Fatalf("inactive peer: %v", err)
	}
	if _, err := c.PushMulti(0, []int{2}, denseMsg(dim, 1), dst); err != nil {
		t.Fatalf("active multicast: %v", err)
	}
}

func TestSetActiveRejectsWrongLength(t *testing.T) {
	c := New(AllGather, 3)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("accepted short active mask")
		}
	}()
	c.SetActive([]bool{true})
}

func TestTopologyFactorsPanicBelowOneNode(t *testing.T) {
	for _, topo := range []Topology{AllGather, Ring, Tree, Star} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("%s: LatencyHops(0) did not panic", topo)
				}
			}()
			topo.LatencyHops(0)
		}()
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("%s: BytesFactor(-1) did not panic", topo)
				}
			}()
			topo.BytesFactor(-1)
		}()
		if topo.LatencyHops(1) != 1 || topo.BytesFactor(1) != 1 {
			t.Fatalf("%s: single-node factors not 1", topo)
		}
	}
}
