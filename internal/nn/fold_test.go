package nn

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/tensor"
)

// The ReLU fold (foldReLU): which layer lists fold, that Clone keeps the
// fold, and that a folded Backward refuses a gradient of other rows than
// its Forward's. That a folded layer computes what the unfolded pair does,
// on both tiers, is TestFoldedReLUMatchesSeparateLayer in
// internal/tensor/stack_tiers_test.go; the zoo's gradient checks
// (TestGradVGGNano, TestGradResNetNano) run on the folded nets.

// describe names the layers of ls in order, "+ReLU" after a layer that
// folded one, a Residual's inner layers in parentheses.
func describe(ls []Layer) string {
	var parts []string
	for _, l := range ls {
		name := strings.TrimPrefix(fmt.Sprintf("%T", l), "*nn.")
		switch l := l.(type) {
		case *Conv2D:
			if l.relu {
				name += "+ReLU"
			}
		case *Residual:
			name += "(" + describe(l.inner) + ")"
			if l.relu {
				name += "+ReLU"
			}
		}
		parts = append(parts, name)
	}
	return strings.Join(parts, " ")
}

func TestFoldReLUConstruction(t *testing.T) {
	shape := data.ImageShape{Channels: 1, Height: 8, Width: 8}
	conv := func() *Conv2D { return NewConv2D(2, 4, 4, 3, 1, 1, 2) }
	block := func(tail ...Layer) *Residual {
		return NewResidual(append([]Layer{conv(), NewReLU(32)}, tail...)...)
	}
	for _, c := range []struct {
		name string
		net  *Network
		want string
	}{
		{"VGGNano", NewVGGNano(shape, 10),
			"Conv2D+ReLU MaxPool2x2 Conv2D+ReLU MaxPool2x2 Dense ReLU Dense"},
		{"ResNetNano", NewResNetNano(shape, 10),
			"Conv2D+ReLU Residual(Conv2D+ReLU Conv2D)+ReLU Residual(Conv2D+ReLU Conv2D)+ReLU MaxPool2x2 Dense"},
		{"MLP", NewMLP(6, []int{5, 4}, 3), "Dense ReLU Dense ReLU Dense"},
		{"a leading ReLU", NewNetwork(MSE{}, 0, NewReLU(32), conv(), NewReLU(32)), "ReLU Conv2D+ReLU"},
		{"a second ReLU", NewNetwork(MSE{}, 0, conv(), NewReLU(32), NewReLU(32)), "Conv2D+ReLU ReLU"},
		{"a ReLU after a pool", NewNetwork(MSE{}, 0, NewMaxPool2x2(2, 4, 4), NewReLU(8)), "MaxPool2x2 ReLU"},
		{"a Tanh", NewNetwork(MSE{}, 0, conv(), NewTanh(32), NewReLU(32)), "Conv2D Tanh ReLU"},
		{"a residual's last ReLU", NewNetwork(MSE{}, 0, block(conv(), NewReLU(32))),
			"Residual(Conv2D+ReLU Conv2D+ReLU)"},
	} {
		if got := describe(c.net.layers); got != c.want {
			t.Errorf("%s: layers %q, want %q", c.name, got, c.want)
		}
		if got := describe(c.net.Clone().layers); got != c.want {
			t.Errorf("%s: the clone's layers %q, want %q", c.name, got, c.want)
		}
	}
}

// TestFoldedBackwardPanicsOnOtherRows: a folded layer masks its gradient by
// the output of its last Forward, row for row; a Backward over other rows
// (or before any Forward) would read a short or stale output, so it panics
// and says why. An unfolded Conv2D is not held to it here.
func TestFoldedBackwardPanicsOnOtherRows(t *testing.T) {
	conv := NewConv2D(2, 4, 4, 3, 1, 1, 2)
	block := NewResidual(NewConv2D(2, 4, 4, 3, 1, 1, 2), NewReLU(32), NewConv2D(2, 4, 4, 3, 1, 1, 2))
	NewNetwork(MSE{}, 0, conv, NewReLU(32), block, NewReLU(32))
	for _, l := range []Layer{conv, block} {
		name := describe([]Layer{l})
		params, dParams := make([]float64, l.ParamLen()), make([]float64, l.ParamLen())
		backward := func(rows int) (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			l.Backward(params, tensor.NewMatrix(rows, l.OutDim()), dParams)
			return ""
		}
		if msg := backward(4); !strings.Contains(msg, "after a Forward of 0") {
			t.Errorf("%s: Backward before any Forward: panic %q", name, msg)
		}
		l.Forward(params, tensor.NewMatrix(4, l.InDim()))
		for _, rows := range []int{3, 5} {
			if msg := backward(rows); !strings.Contains(msg, fmt.Sprintf("%d gradient rows after a Forward of 4", rows)) {
				t.Errorf("%s: Backward of %d rows after a Forward of 4: panic %q", name, rows, msg)
			}
		}
		if msg := backward(4); msg != "" {
			t.Errorf("%s: Backward of the Forward's 4 rows panicked: %s", name, msg)
		}
	}
}
