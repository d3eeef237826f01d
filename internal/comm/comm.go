// Package comm is the unified communication layer of the simulator: every
// model/gradient exchange — the PASGD averaging all-reduce in
// internal/cluster, the ring and elastic mixing strategies, and the
// parameter-server push in internal/paramserver — routes its wire messages
// through a Communicator, so payload accounting and aggregation arithmetic
// live in exactly one place.
//
// Messages are internal/compress wire messages. The aggregation hot path
// accumulates them by sparse index-merge (compress.AddDecoded): summing m
// top-k messages costs O(k*m) instead of the O(dim*m) a
// decompress-to-dense-then-add loop pays, which is what makes aggressive
// sparsification pay off at large model dimensions (see bench_test.go).
//
// A Communicator moves data; it does not advance the simulated clock. Each
// call returns its wire bytes (a Report per worker for AllReduce), and the
// Topology exposes the transfer-schedule multipliers (LatencyHops,
// BytesFactor) that internal/delaymodel prices, including per-worker
// heterogeneous links via delaymodel.Model.Links.
package comm

import (
	"fmt"
	"slices"

	"repro/internal/compress"
)

// Report describes one collective round's transfer schedule: the wire bytes
// each worker put on its link, and the largest single message (the legacy
// "per-link payload" the homogeneous delay model charges).
//
// A Report returned by AllReduce borrows its Bytes from the communicator
// and is valid until that communicator's next AllReduce — the arena rule the
// nn layers follow. Price the round (or copy Bytes) before reducing again.
type Report struct {
	Bytes []int // per-worker wire bytes, indexed by worker
	Max   int   // max over Bytes
}

// Communicator routes simulated model/gradient exchange for one cluster.
//
//   - AllReduce is the symmetric collective used by averaging strategies:
//     every worker contributes one message, and the decoded sum becomes
//     visible everywhere.
//   - Push sends one worker's message toward the aggregation root,
//     reconstructing it at the receiver.
//   - PushMulti sends one worker's message to an explicit set of peers
//     (the neighbor-addressed exchange decentralized gossip uses).
//
// It is deterministic: aggregation happens in fixed worker order, which is
// what keeps the cluster engine bitwise identical at any compute-pool width.
// Apart from its shape, the installed membership view and the scratch behind
// the last AllReduce's Report it is stateless, so one instance may serve any
// number of rounds; it owns no RNG and therefore never perturbs the engines'
// random streams. The topology itself only carries pricing multipliers
// (LatencyHops/BytesFactor), which callers read at construction time.
//
// The communicator also carries the round's MEMBERSHIP VIEW: SetActive
// installs which workers currently exist (crashed and blipped-out workers
// are inactive), AllReduce skips inactive contributions, and Push/PushMulti
// reject exchanges naming an inactive endpoint — a fault-injection bug
// that routes traffic through a dead worker fails loudly instead of
// silently averaging stale state. Membership POLICY (who is down when,
// retry and timeout pricing) lives in internal/faults and the engines; the
// communicator only enforces the view it is handed.
type Communicator struct {
	topo     Topology
	m        int
	active   []bool // starts all-true (the legacy fixed-m view)
	nActive  int
	repBytes []int // Report.Bytes of the most recent AllReduce
}

// New builds a communicator for m workers on the given topology.
func New(topo Topology, m int) *Communicator {
	if m < 1 {
		panic("comm: need at least one worker")
	}
	return &Communicator{topo: topo, m: m, active: slices.Repeat([]bool{true}, m), nActive: m, repBytes: make([]int, m)}
}

// SetActive installs the active worker set for subsequent calls;
// len(active) must equal the worker count. The slice is caller-owned and
// copied.
func (c *Communicator) SetActive(active []bool) {
	if len(active) != c.m {
		panic(fmt.Sprintf("comm: active set covers %d of %d workers", len(active), c.m))
	}
	n := 0
	for i, up := range active {
		c.active[i] = up
		if up {
			n++
		}
	}
	c.nActive = n
}

// ActiveCount returns the size of the current active set.
func (c *Communicator) ActiveCount() int { return c.nActive }

// isActive reports whether worker i is in the current active set.
func (c *Communicator) isActive(i int) bool { return c.active[i] }

// AllReduce zeroes sum, accumulates every message's reconstruction into it
// in worker order (sparse messages merge by index in O(k) each), and returns
// the round's transfer Report, whose Bytes are communicator-owned scratch
// valid until the next AllReduce. Inactive workers' messages are skipped:
// they add nothing and ship zero bytes (callers renormalize by the active
// count).
func (c *Communicator) AllReduce(msgs []compress.Message, sum []float64) (Report, error) {
	if len(msgs) != c.m {
		return Report{}, fmt.Errorf("comm: %d messages for %d workers", len(msgs), c.m)
	}
	for i := range sum {
		sum[i] = 0
	}
	clear(c.repBytes)
	rep := Report{Bytes: c.repBytes}
	for i, msg := range msgs {
		if !c.isActive(i) {
			continue
		}
		if err := compress.AddDecoded(msg, sum); err != nil {
			return Report{}, fmt.Errorf("comm: worker %d: %w", i, err)
		}
		b := msg.Bytes()
		rep.Bytes[i] = b
		if b > rep.Max {
			rep.Max = b
		}
	}
	return rep, nil
}

// Push decodes worker's message into dst (overwriting it) and returns the
// transfer's wire bytes. A model pull is never built as a message: the
// engines price it at its wire size themselves.
func (c *Communicator) Push(worker int, msg compress.Message, dst []float64) (int, error) {
	if worker < 0 || worker >= c.m {
		return 0, fmt.Errorf("comm: worker %d out of [0,%d)", worker, c.m)
	}
	if !c.isActive(worker) {
		return 0, fmt.Errorf("comm: worker %d is not in the active set", worker)
	}
	if err := compress.Decode(msg, dst); err != nil {
		return 0, fmt.Errorf("comm: worker %d: %w", worker, err)
	}
	return msg.Bytes(), nil
}

// PushMulti sends worker's message to each listed peer in one overlapped
// hop, decoding it once into dst (every peer reconstructs the identical
// payload). The transfer is charged the message bytes once — the legacy
// single-overlapped-hop pricing gossip strategies use, where a node's
// broadcast to its neighbors overlaps on its link.
func (c *Communicator) PushMulti(worker int, peers []int, msg compress.Message, dst []float64) (int, error) {
	if worker < 0 || worker >= c.m {
		return 0, fmt.Errorf("comm: worker %d out of [0,%d)", worker, c.m)
	}
	if !c.isActive(worker) {
		return 0, fmt.Errorf("comm: worker %d is not in the active set", worker)
	}
	for ai, p := range peers {
		if p < 0 || p >= c.m {
			return 0, fmt.Errorf("comm: peer %d out of [0,%d)", p, c.m)
		}
		if !c.isActive(p) {
			return 0, fmt.Errorf("comm: worker %d addressed inactive peer %d", worker, p)
		}
		if p == worker {
			return 0, fmt.Errorf("comm: worker %d addressed itself", worker)
		}
		// Peer lists are neighbor sets — tiny — so the duplicate scan stays
		// quadratic rather than allocating a set per call.
		for _, q := range peers[:ai] {
			if q == p {
				return 0, fmt.Errorf("comm: worker %d lists peer %d twice", worker, p)
			}
		}
	}
	if err := compress.Decode(msg, dst); err != nil {
		return 0, fmt.Errorf("comm: worker %d: %w", worker, err)
	}
	return msg.Bytes(), nil
}
