package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestTopologyGridTorusBeatsRingAndComplete(t *testing.T) {
	// The acceptance pin for graph-native gossip: under the 10x slow edge
	// (3,4), the 4x4 torus — which routes around the edge and mixes with an
	// O(1/n) spectral gap — reaches the shared loss target in less simulated
	// time than BOTH density endpoints that activate the edge every sync:
	// the ring and the complete graph (full averaging).
	target, rows := topologyGrid(ScaleQuick)

	byTopo := map[string]topologyRow{}
	for _, r := range rows {
		if r.FinalLoss <= 0 || r.MinLoss <= 0 {
			t.Fatalf("degenerate losses in row %+v", r)
		}
		if r.TimeToTarget <= 0 {
			t.Fatalf("cell %s/%s never reached the shared target %v", r.Topology, r.Method, target)
		}
		if r.Method == "raw" {
			byTopo[r.Topology] = r
		}
	}
	torus, ring, complete := byTopo["torus:4x4"], byTopo["graph:ring"], byTopo["complete"]

	// Premise: the slow edge is active on ring and complete, inactive on the
	// torus, so their per-sync charges differ by exactly the edge latency.
	if torus.RoundComm != 1 || ring.RoundComm != 11 || complete.RoundComm != 11 {
		t.Fatalf("per-sync comm premise broken: torus %v ring %v complete %v",
			torus.RoundComm, ring.RoundComm, complete.RoundComm)
	}
	if !(torus.SpectralGap > ring.SpectralGap) {
		t.Fatalf("torus gap %v not above ring gap %v", torus.SpectralGap, ring.SpectralGap)
	}
	if !(torus.TimeToTarget < ring.TimeToTarget) {
		t.Fatalf("torus t(target) %v not below ring %v", torus.TimeToTarget, ring.TimeToTarget)
	}
	if !(torus.TimeToTarget < complete.TimeToTarget) {
		t.Fatalf("torus t(target) %v not below complete (full averaging) %v",
			torus.TimeToTarget, complete.TimeToTarget)
	}

	var buf bytes.Buffer
	printTopologyGrid(&buf, target, rows)
	out := buf.String()
	for _, want := range []string{"torus:4x4", "graph:ring", "complete", "regular:4@11", "choco", "t(target)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered grid missing %q:\n%s", want, out)
		}
	}
}
