package comm

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/graph"
)

// topoKind discriminates the collective routing schemes from gossip graph
// topologies.
type topoKind int

const (
	kindAllGather topoKind = iota
	kindRing
	kindTree
	kindStar
	kindGraph
)

// Topology describes how a synchronization round's transfers are routed
// between m nodes. The four collective kinds (AllGather/Ring/Tree/Star) do
// not change WHAT is computed (the aggregation semantics are the
// Communicator's), only the transfer schedule the delay model prices: how
// many sequential message launches the round needs (LatencyHops) and what
// multiple of the payload each node's link carries over the whole operation
// (BytesFactor).
//
// A graph topology (IsGraph) instead names a gossip mixing graph
// (internal/graph): the engine takes each node's peer set and mixing
// weights from the instantiated graph, and the round keeps the
// single-overlapped-hop pricing (LatencyHops = BytesFactor = 1) gossip has
// always used — with the delay model optionally pricing the round's ACTIVE
// edges individually (delaymodel.Model.EdgeLinks).
//
// The zero value is AllGather, and comparing against the exported values
// (t == AllGather) works as it did when Topology was an enum.
type Topology struct {
	kind topoKind
	spec *graph.Spec
}

// The collective routing schemes, priced by schedule multipliers.
var (
	// AllGather is the fully connected symmetric all-gather of the paper's
	// Sec 3.1 runtime model: every per-link transfer overlaps, so the round
	// costs one latency and one payload per link. This is the zero value and
	// reproduces the legacy engine's pricing bit for bit.
	AllGather = Topology{kind: kindAllGather}
	// Ring is a bandwidth-optimal ring all-reduce (reduce-scatter followed
	// by all-gather): 2(m-1) sequential chunk launches, each link carrying
	// 2(m-1)/m of the payload in total.
	Ring = Topology{kind: kindRing}
	// Tree is a binary reduction tree followed by a broadcast down the same
	// tree: 2*log2(m) hops, each carrying the full payload (the FireCaffe
	// parameter-server analysis the paper cites).
	Tree = Topology{kind: kindTree}
	// Star routes everything through a central root (parameter server): one
	// uplink and one downlink transfer of the full payload per node. The
	// root's own fan-in is modeled by the delay model's Scaling, not here.
	Star = Topology{kind: kindStar}
)

// GraphTopology wraps a parsed gossip graph spec as a Topology.
func GraphTopology(spec *graph.Spec) Topology {
	if spec == nil {
		panic("comm: nil graph spec")
	}
	return Topology{kind: kindGraph, spec: spec}
}

// IsGraph reports whether the topology names a gossip mixing graph rather
// than a collective routing scheme.
func (t Topology) IsGraph() bool { return t.kind == kindGraph }

// Graphs instantiates the gossip graph spec for m nodes (the possibly
// time-varying mixing sequence). It errors on collective topologies and on
// specs that pin a different node count (e.g. "torus:4x4" at m != 16).
func (t Topology) Graphs(m int) (*graph.Sequence, error) {
	if !t.IsGraph() {
		return nil, fmt.Errorf("comm: topology %s is not a gossip graph", t)
	}
	return t.spec.Build(m)
}

// TopologyForms enumerates the -topology flag grammar for error messages
// and usage text: the four collective names plus the gossip graph-spec
// grammar (a "graph:" prefix forces the graph reading of the ambiguous
// names "ring" and "star").
const TopologyForms = "allgather|ring|tree|star (collectives), or a gossip graph spec: " +
	"graph:ring|graph:star|complete|expander|torus:RxC|regular:D[@SEED]|varying:SPEC,SPEC,...[@B=N]"

// String names the topology in the -topology flag syntax;
// ParseTopology(t.String()) round-trips every representable value.
func (t Topology) String() string {
	switch t.kind {
	case kindAllGather:
		return "allgather"
	case kindRing:
		return "ring"
	case kindTree:
		return "tree"
	case kindStar:
		return "star"
	case kindGraph:
		// Bare "ring"/"star" parse as collectives, so the ambiguous graph
		// kinds keep their forcing prefix.
		if s := t.spec.String(); t.spec.Kind() == "ring" || t.spec.Kind() == "star" {
			return "graph:" + s
		} else {
			return s
		}
	}
	return "unknown-topology"
}

// ParseTopology parses the -topology flag syntax: one of the four
// collective names, or a gossip graph spec (see TopologyForms). "" is
// AllGather, the zero value.
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "allgather", "":
		return AllGather, nil
	case "ring":
		return Ring, nil
	case "tree":
		return Tree, nil
	case "star":
		return Star, nil
	}
	spec, err := graph.ParseSpec(strings.TrimPrefix(s, "graph:"))
	if err != nil {
		return AllGather, fmt.Errorf("comm: unknown topology %q (want %s)", s, TopologyForms)
	}
	return GraphTopology(spec), nil
}

// LatencyHops returns the number of sequential message launches one
// synchronization needs over m nodes, each paying the base inter-node
// latency. It is >= 1 and equals 1 for m = 1 on every topology; m < 1
// panics (graph constructors and Spec.Build reject it the same way, so
// no schedule multiplier is ever computed for an empty cluster). Gossip
// graph rounds are a single overlapped neighbor multicast, so they keep
// the legacy factor 1.
func (t Topology) LatencyHops(m int) float64 {
	if m < 1 {
		panic(fmt.Sprintf("comm: topology %s over %d nodes (need at least one)", t, m))
	}
	if m == 1 {
		return 1
	}
	switch t.kind {
	case kindRing:
		return 2 * float64(m-1)
	case kindTree:
		return 2 * math.Log2(float64(m))
	case kindStar:
		return 2
	}
	return 1
}

// BytesFactor returns the multiple of the per-node payload that node's link
// carries over the whole operation. Gossip graph rounds ship each node's
// payload once over its (overlapped) neighbor links, factor 1. m < 1
// panics, exactly as LatencyHops.
func (t Topology) BytesFactor(m int) float64 {
	if m < 1 {
		panic(fmt.Sprintf("comm: topology %s over %d nodes (need at least one)", t, m))
	}
	if m == 1 {
		return 1
	}
	switch t.kind {
	case kindRing:
		return 2 * float64(m-1) / float64(m)
	case kindTree:
		return 2 * math.Log2(float64(m))
	case kindStar:
		return 2
	}
	return 1
}
