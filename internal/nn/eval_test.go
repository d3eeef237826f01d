package nn

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// The evaluation pass (Network.Loss / Network.Accuracy): what it reports on
// NaN logits, that it shares a network with the training pass safely, that
// it allocates nothing in steady state and that its buffers are chunk-sized.
// Its bit identity with the whole-batch evaluation is in oracle_test.go.

// logits is a parameterless layer that hands its input on, so a test can
// write a network's outputs directly. It has no forward-only path: the
// evaluation pass reaches it through Forward.
type logits struct{ dim int }

func (l logits) InDim() int                                            { return l.dim }
func (l logits) OutDim() int                                           { return l.dim }
func (l logits) ParamLen() int                                         { return 0 }
func (l logits) Init([]float64, *rng.Rand)                             {}
func (l logits) Forward(_ []float64, in *tensor.Matrix) *tensor.Matrix { return in }
func (l logits) Backward(_ []float64, dOut *tensor.Matrix, _ []float64) *tensor.Matrix {
	return dOut
}
func (l logits) Clone() Layer { return l }

// TestAccuracyNaNLogits: every comparison against NaN is false, so a bare
// argmax leaves a NaN-first or all-NaN row on class 0 and a diverged model
// scored ~1/classes. A row holding a NaN anywhere is never correct; the
// result stays a fraction of the batch.
func TestAccuracyNaNLogits(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	rows := []struct {
		name    string
		logits  [3]float64
		label   int
		correct bool
	}{
		{"finite, argmax is the label", [3]float64{0, 1, 2}, 2, true},
		{"finite, argmax is not the label", [3]float64{0, 1, 2}, 0, false},
		{"+Inf is a number", [3]float64{inf, 1, 2}, 0, true},
		{"NaN first, label 0", [3]float64{nan, 1, 2}, 0, false},
		{"NaN first, label != 0", [3]float64{nan, 1, 2}, 2, false},
		{"NaN elsewhere, label 0", [3]float64{1, nan, 0}, 0, false},
		{"NaN elsewhere, label is the finite argmax", [3]float64{0, nan, 2}, 2, false},
		{"NaN last, label 0", [3]float64{2, 1, nan}, 0, false},
		{"all NaN, label 0", [3]float64{nan, nan, nan}, 0, false},
		{"all NaN, label != 0", [3]float64{nan, nan, nan}, 1, false},
	}
	n := NewNetwork(SoftmaxCrossEntropy{}, 3, logits{3})
	all := data.Batch{X: tensor.NewMatrix(len(rows), 3), Y: make([]int, len(rows))}
	want := 0
	for i, r := range rows {
		one := data.Batch{X: &tensor.Matrix{Rows: 1, Cols: 3, Data: r.logits[:]}, Y: []int{r.label}}
		if got := n.Accuracy(one) == 1; got != r.correct {
			t.Errorf("%s: counted correct = %v, want %v", r.name, got, r.correct)
		}
		copy(all.X.Row(i), r.logits[:])
		all.Y[i] = r.label
		if r.correct {
			want++
		}
	}
	if got := n.Accuracy(all); got != float64(want)/float64(len(rows)) {
		t.Errorf("mixed batch: accuracy %v, want %d/%d", got, want, len(rows))
	}
}

// TestEvaluationBetweenForwardAndBackward: Loss and Accuracy on OTHER
// batches, run between a training forward and its backward half on the SAME
// network, leave the outputs Forward returned and the gradient untouched.
// The forward-only pass may not write the training pass's patches, padded
// images, argmax, lastIn, lastOut or any buffer it returned.
func TestEvaluationBetweenForwardAndBackward(t *testing.T) {
	for _, m := range zooModels() {
		straight := m.net.Clone()
		b := m.batch(16, 80)
		want, got := make([]float64, m.net.ParamLen()), make([]float64, m.net.ParamLen())
		wantLoss := straight.LossGrad(b, want)

		out := m.net.Forward(b.X)
		kept := append([]float64(nil), out.Data...)
		// 40 rows: two full chunks and a short one, so every forward-only
		// buffer is written at both heights; 7 rows: one short chunk.
		for _, rows := range []int{40, 7} {
			other := m.batch(rows, 81)
			m.net.Loss(other)
			if m.net.classes > 0 {
				m.net.Accuracy(other)
			}
		}
		mustBitsEqual(t, m.name+" training outputs after an evaluation", out.Data, kept)
		if gotLoss := m.net.backward(out, b, got); math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Errorf("%s: loss %v after an interleaved evaluation, %v without", m.name, gotLoss, wantLoss)
		}
		mustBitsEqual(t, m.name+" gradient after an interleaved evaluation", got, want)
	}
}

// TestConvBackwardAfterForwardOnly is the same contract for a lone Conv2D,
// which keeps only its input between Forward and Backward and re-lowers each
// sample from it: a forward-only pass over another batch in between (its own
// patches and padded image) changes no bit of dIn or of the parameter
// gradient, on the full backward and on the parameter-only one a first layer
// takes, at stride 1 and 2.
func TestConvBackwardAfterForwardOnly(t *testing.T) {
	r := rng.New(85)
	for _, stride := range []int{1, 2} {
		conv := NewConv2D(3, 7, 7, 3, stride, 1, 5)
		straight := conv.Clone().(*Conv2D)
		params := make([]float64, conv.ParamLen())
		conv.Init(params, r.Split())
		in := reluLaden(r, tensor.NewMatrix(4, conv.InDim()), 0.3)
		other := reluLaden(r, tensor.NewMatrix(9, conv.InDim()), 0.3)
		dOut := reluLaden(r, tensor.NewMatrix(4, conv.OutDim()), 0.5)
		for _, full := range []bool{true, false} {
			want, got := make([]float64, len(params)), make([]float64, len(params))
			straight.Forward(params, in)
			wantIn := straight.backward(params, dOut, want, full)
			conv.Forward(params, in)
			conv.forwardOnly(params, other)
			gotIn := conv.backward(params, dOut, got, full)
			what := fmt.Sprintf("stride %d, dIn wanted %v", stride, full)
			if full {
				mustBitsEqual(t, what+": dIn", gotIn.Data, wantIn.Data)
			}
			mustBitsEqual(t, what+": dParams", got, want)
		}
	}
}

// TestEvaluationSteadyStateAllocFree: at the conv workloads' evaluation
// height and at one that ends in a short chunk.
func TestEvaluationSteadyStateAllocFree(t *testing.T) {
	for _, m := range zooModels() {
		for _, rows := range []int{384, 389} {
			b := m.batch(rows, 83)
			if n := steadyStateAllocs(func() { m.net.Loss(b) }); n != 0 {
				t.Errorf("%s Loss, %d rows: %v allocs per call in steady state, want 0", m.name, rows, n)
			}
			if m.net.classes == 0 {
				continue
			}
			if n := steadyStateAllocs(func() { m.net.Accuracy(b) }); n != 0 {
				t.Errorf("%s Accuracy, %d rows: %v allocs per call in steady state, want 0", m.name, rows, n)
			}
		}
	}
}

// buffers maps every matrix and slice the layer itself holds (a Residual's
// inner layers are not its own), by field name, to its backing slice — found
// by reflection, so a buffer a later change adds is covered without being
// listed.
func buffers(l Layer) map[string]reflect.Value {
	out := map[string]reflect.Value{}
	v := reflect.ValueOf(l).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := fmt.Sprintf("%s.%s", v.Type().Name(), v.Type().Field(i).Name)
		switch f := v.Field(i); {
		case f.Type() == reflect.TypeOf((*tensor.Matrix)(nil)):
			if !f.IsNil() {
				out[name] = f.Elem().FieldByName("Data")
			}
		case f.Kind() == reflect.Slice && f.Type() != reflect.TypeOf([]Layer(nil)):
			out[name] = f
		}
	}
	return out
}

// TestEvaluationBuffersAreChunkSized: a network that only evaluates — the
// engines' evalModel — holds no buffer larger than evalChunk rows of its
// layer's wider side after a 384-row Loss, and none of the training pass's.
// This is what keeps the conv workloads' alloc_mb at ~31 MB instead of ~154.
func TestEvaluationBuffersAreChunkSized(t *testing.T) {
	for _, m := range zooModels() {
		b := m.batch(384, 84)
		m.net.Loss(b)
		if m.net.classes > 0 {
			m.net.Accuracy(b)
		}
		var walk func(ls []Layer)
		walk = func(ls []Layer) {
			for _, l := range ls {
				if r, ok := l.(*Residual); ok {
					walk(r.inner)
				}
				limit := evalChunk * max(l.InDim(), l.OutDim())
				for field, buf := range buffers(l) {
					if n := buf.Cap(); n > limit {
						t.Errorf("%s %s holds %d elements after evaluating 384 rows, limit %d (chunk %d x width %d)",
							m.name, field, n, limit, evalChunk, limit/evalChunk)
					}
				}
				for _, field := range []string{"outBuf", "dInBuf", "dPatchBuf", "patch", "pad", "dPad", "argmax", "lastIn", "lastOut"} {
					if f := reflect.ValueOf(l).Elem().FieldByName(field); f.IsValid() && !f.IsZero() {
						t.Errorf("%s %T.%s: the evaluation pass touched a training-pass field", m.name, l, field)
					}
				}
			}
		}
		walk(m.net.layers)
	}
}
