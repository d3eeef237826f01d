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

// Evaluation (Network.Loss / Network.Accuracy): what it reports on NaN
// logits, that it interleaves with training on one network exactly, that it
// allocates nothing in steady state and that its buffers are chunk-sized.
// Its bit identity with the whole-batch evaluation is in oracle_test.go.

// logits is a parameterless layer that hands its input on, so a test can
// write a network's outputs directly.
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

// TestEvaluateThenTrainOnOneNetwork: evaluation and training share every
// layer's arenas, at evalChunk rows and at the training batch's height, and
// ensureMat hands back whatever storage a taller call left. Evaluating at
// 384 and 389 rows (a short last chunk), then training at 4, 16 and 32 rows,
// then evaluating again, all on one network, must report what a fresh clone
// reports for each call, bit for bit.
func TestEvaluateThenTrainOnOneNetwork(t *testing.T) {
	for _, m := range zooModels() {
		evaluate := func(rows int) {
			b := m.batch(rows, 90+uint64(rows))
			if got, want := m.net.Loss(b), m.net.Clone().Loss(b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s Loss, %d rows: %v, a fresh clone %v", m.name, rows, got, want)
			}
			if m.net.classes == 0 {
				return
			}
			if got, want := m.net.Accuracy(b), m.net.Clone().Accuracy(b); got != want {
				t.Errorf("%s Accuracy, %d rows: %v, a fresh clone %v", m.name, rows, got, want)
			}
		}
		evaluate(384)
		evaluate(389)
		got, want := make([]float64, m.net.ParamLen()), make([]float64, m.net.ParamLen())
		for _, rows := range []int{4, 16, 32} {
			b := m.batch(rows, 95+uint64(rows))
			l, lRef := m.net.LossGrad(b, got), m.net.Clone().LossGrad(b, want)
			if math.Float64bits(l) != math.Float64bits(lRef) {
				t.Errorf("%s LossGrad, %d rows: loss %v, a fresh clone %v", m.name, rows, l, lRef)
			}
			mustBitsEqual(t, fmt.Sprintf("%s gradient, %d rows", m.name, rows), got, want)
		}
		evaluate(389)
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
// listed. Struct fields are walked too (Conv2D's tensor.ConvGrad scratch),
// and so are their matrices and slices.
func buffers(l Layer) map[string]reflect.Value {
	out := map[string]reflect.Value{}
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name := fmt.Sprintf("%s.%s", prefix, v.Type().Field(i).Name)
			switch f := v.Field(i); {
			case f.Type() == reflect.TypeOf((*tensor.Matrix)(nil)):
				if !f.IsNil() {
					out[name] = f.Elem().FieldByName("Data")
				}
			case f.Kind() == reflect.Slice && f.Type() != reflect.TypeOf([]Layer(nil)):
				out[name] = f
			case f.Kind() == reflect.Struct:
				walk(name, f)
			}
		}
	}
	v := reflect.ValueOf(l).Elem()
	walk(v.Type().Name(), v)
	return out
}

// TestEvaluationBuffersAreChunkSized: a network that only evaluates — the
// engines' evalModel — holds no buffer larger than evalChunk rows of its
// layer's wider side after a 384-row Loss. This is what keeps the conv
// workloads' alloc_mb near 19 MB instead of ~154.
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
			}
		}
		walk(m.net.layers)
	}
}
