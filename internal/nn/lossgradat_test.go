package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// atModels are the architectures LossGradAt is held on: the two conv nets
// (each with its ReLUs folded), an MLP and logistic regression.
func atModels() []zooModel {
	var out []zooModel
	for _, m := range zooModels() {
		switch m.name {
		case "VGGNano", "ResNetNano", "MLP", "LogisticRegression":
			out = append(out, m)
		}
	}
	return out
}

// withNaNParams returns a clone of n whose own parameters are all NaN, and
// those parameters' bits: a LossGradAt that read them would return NaN.
func withNaNParams(n *Network) (*Network, []uint64) {
	c := n.Clone()
	bits := make([]uint64, c.ParamLen())
	for i := range c.params {
		c.params[i] = math.Float64frombits(0x7ff8_0000_0000_0a7a)
		bits[i] = math.Float64bits(c.params[i])
	}
	return c, bits
}

func mustOwnParamsUntouched(t *testing.T, what string, n *Network, bits []uint64) {
	t.Helper()
	for i, v := range n.params {
		if math.Float64bits(v) != bits[i] {
			t.Fatalf("%s: own parameter %d is %v (%#x), planted %#x", what, i, v, math.Float64bits(v), bits[i])
		}
	}
}

// TestLossGradAtMatchesAHoldingNetwork: LossGradAt(p, b, g) on a network
// whose own parameters are NaN returns the loss and gradient LossGrad returns
// on a network holding p, bit for bit, and leaves the NaNs as they were.
func TestLossGradAtMatchesAHoldingNetwork(t *testing.T) {
	for _, m := range atModels() {
		net, bits := withNaNParams(m.net)
		p := foreignParams(m, 301)
		ref := holding(m.net, p)
		got, want := make([]float64, len(p)), make([]float64, len(p))
		for _, rows := range []int{16, 5, 1} {
			b := m.batch(rows, 302+uint64(rows))
			what := fmt.Sprintf("%s, %d rows", m.name, rows)
			l, lRef := net.LossGradAt(p, b, got), ref.LossGrad(b, want)
			if math.Float64bits(l) != math.Float64bits(lRef) {
				t.Errorf("%s: LossGradAt loss %v, a network holding the parameters %v", what, l, lRef)
			}
			mustBitsEqual(t, what+" gradient", got, want)
			mustOwnParamsUntouched(t, what, net, bits)
		}
	}
}

// TestLossGradAtAlternatingCarriesNothing: one network stepping two
// parameter vectors in turn, each on its own batches, returns what two
// networks, one holding each vector, return — the property that lets a
// compute slot run several workers' steps on one network.
func TestLossGradAtAlternatingCarriesNothing(t *testing.T) {
	for _, m := range atModels() {
		shared, bits := withNaNParams(m.net)
		ps := [2][]float64{foreignParams(m, 311), foreignParams(m, 312)}
		own := [2]*Network{holding(m.net, ps[0]), holding(m.net, ps[1])}
		got, want := make([]float64, len(ps[0])), make([]float64, len(ps[0]))
		for step, rows := range []int{16, 16, 4, 16, 1, 7} {
			k := step % 2
			b := m.batch(rows, 313+uint64(step))
			what := fmt.Sprintf("%s, step %d (vector %d, %d rows)", m.name, step, k, rows)
			l, lRef := shared.LossGradAt(ps[k], b, got), own[k].LossGrad(b, want)
			if math.Float64bits(l) != math.Float64bits(lRef) {
				t.Errorf("%s: shared network's loss %v, its own network's %v", what, l, lRef)
			}
			mustBitsEqual(t, what+" gradient", got, want)
			// Move the vector the way a worker's optimizer would, so the next
			// turn is at parameters the network has not seen.
			for i, g := range got {
				ps[k][i] -= 0.05 * g
				own[k].params[i] -= 0.05 * g
			}
		}
		mustOwnParamsUntouched(t, m.name, shared, bits)
	}
}

func TestLossGradAtSteadyStateAllocFree(t *testing.T) {
	for _, m := range atModels() {
		p := foreignParams(m, 321)
		b := m.batch(16, 322)
		grad := make([]float64, len(p))
		if n := steadyStateAllocs(func() { m.net.LossGradAt(p, b, grad) }); n != 0 {
			t.Errorf("%s LossGradAt: %v allocs per call in steady state, want 0", m.name, n)
		}
	}
}

// TestLossGradAtRejectsWrongLengths: a params or grad of the wrong length
// panics with a message that names which one.
func TestLossGradAtRejectsWrongLengths(t *testing.T) {
	n := NewLogisticRegression(4, 3)
	b := classBatch(4, 3, 2, 331)
	ok := make([]float64, n.ParamLen())
	for _, c := range []struct {
		name, want   string
		params, grad []float64
	}{
		{"short params", "nn: params length", ok[1:], ok},
		{"long params", "nn: params length", append(ok, 0), ok},
		{"short grad", "nn: grad length", ok, ok[1:]},
		{"long grad", "nn: grad length", ok, append(ok, 0)},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, c.want) {
					t.Errorf("%s: panic %q, want one starting %q", c.name, msg, c.want)
				}
			}()
			n.LossGradAt(c.params, b, c.grad)
		}()
	}
}
