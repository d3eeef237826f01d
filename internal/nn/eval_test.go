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

// Evaluation (Network.Loss / Network.Accuracy, and LossAt / AccuracyAt over
// several networks at foreign parameters): what it reports on NaN logits,
// that it interleaves with training on one network exactly, that any number
// of networks report what one does, that it allocates nothing in steady
// state and that its buffers are chunk-sized. Its bit identity with the
// whole-batch evaluation is in oracle_test.go.

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

// foreignParams is a parameter vector for m's architecture that is not its
// network's own: a second initialization.
func foreignParams(m zooModel, seed uint64) []float64 {
	c := m.net.Clone()
	c.InitParams(rng.New(seed))
	return c.Params()
}

// holding returns a fresh clone of n that holds params.
func holding(n *Network, params []float64) *Network {
	c := n.Clone()
	c.SetParams(params)
	return c
}

// TestEvaluateThenTrainOnOneNetwork: evaluation and training share every
// layer's arenas, at evalChunk rows and at the training batch's height, and
// ensureMat hands back whatever storage a taller call left. Evaluating at
// 384 and 389 rows (a short last chunk), at the network's own parameters and
// at foreign ones through LossAt/AccuracyAt, then training at 4, 16 and 32
// rows, then evaluating again, all on one network, must report what a fresh
// clone holding those parameters reports for each call, bit for bit — and a
// foreign evaluation must leave the network's own parameters as they were.
func TestEvaluateThenTrainOnOneNetwork(t *testing.T) {
	for _, m := range zooModels() {
		foreign := foreignParams(m, 97)
		evaluate := func(rows int) {
			b := m.batch(rows, 90+uint64(rows))
			own := append([]float64(nil), m.net.Params()...)
			one := []*Network{m.net}
			for _, c := range []struct {
				what       string
				loss       func() float64
				acc        func() float64
				wantParams []float64
			}{
				{"own", func() float64 { return m.net.Loss(b) }, func() float64 { return m.net.Accuracy(b) }, own},
				{"foreign", func() float64 { return LossAt(one, foreign, b) }, func() float64 { return AccuracyAt(one, foreign, b) }, foreign},
			} {
				ref := holding(m.net, c.wantParams)
				if got, want := c.loss(), ref.Loss(b); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s Loss at %s parameters, %d rows: %v, a fresh clone %v", m.name, c.what, rows, got, want)
				}
				if m.net.classes > 0 {
					if got, want := c.acc(), ref.Accuracy(b); got != want {
						t.Errorf("%s Accuracy at %s parameters, %d rows: %v, a fresh clone %v", m.name, c.what, rows, got, want)
					}
				}
				mustBitsEqual(t, fmt.Sprintf("%s own parameters after evaluating at %s ones", m.name, c.what), m.net.Params(), own)
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

// TestEvaluationOverNetworksMatchesOneNetwork: LossAt and AccuracyAt over
// 1, 2 and 3 networks, at parameters none of them holds, report what
// Network.Loss and Network.Accuracy report on one network holding those
// parameters, bit for bit — at rows {1, 15, 16, 17, 384, 512} (one chunk,
// one short chunk, a chunk and one row, whole and short last chunks over
// every width), finite and with NaN and ±Inf planted. The same networks
// serve every height and plant, so arenas left by a taller call are reused
// too, and their own parameters never change.
func TestEvaluationOverNetworksMatchesOneNetwork(t *testing.T) {
	for _, m := range zooModels() {
		finite := foreignParams(m, 98)
		own := append([]float64(nil), m.net.Params()...)
		nets := []*Network{m.net, m.net.Clone(), m.net.Clone()}
		last := len(finite) - 1
		for _, plant := range []struct {
			name string
			at   int
			v    float64
		}{
			{"finite", 0, finite[0]},
			{"NaN in the first layer", 0, math.NaN()},
			{"Inf in the last bias", last, math.Inf(1)},
			{"-Inf mid-vector", last / 2, math.Inf(-1)},
		} {
			params := append([]float64(nil), finite...)
			params[plant.at] = plant.v
			ref := holding(m.net, params)
			for _, rows := range []int{1, 15, 16, 17, 384, 512} {
				b := m.batch(rows, 200+uint64(rows))
				wantLoss := ref.Loss(b)
				wantAcc := math.NaN()
				if m.net.classes > 0 {
					wantAcc = ref.Accuracy(b)
				}
				for width := 1; width <= len(nets); width++ {
					what := fmt.Sprintf("%s, %s, %d rows over %d networks", m.name, plant.name, rows, width)
					if got := LossAt(nets[:width], params, b); math.Float64bits(got) != math.Float64bits(wantLoss) {
						t.Errorf("%s: LossAt %v (%#x), one network %v (%#x)",
							what, got, math.Float64bits(got), wantLoss, math.Float64bits(wantLoss))
					}
					if m.net.classes == 0 {
						continue
					}
					if got := AccuracyAt(nets[:width], params, b); got != wantAcc {
						t.Errorf("%s: AccuracyAt %v, one network %v", what, got, wantAcc)
					}
				}
			}
		}
		for i, n := range nets {
			mustBitsEqual(t, fmt.Sprintf("%s network %d's own parameters", m.name, i), n.Params(), own)
		}
	}
}

// TestEvaluationRejectsMismatchedNetworks: LossAt needs a network and every
// network the parameter vector's length and layer count.
func TestEvaluationRejectsMismatchedNetworks(t *testing.T) {
	a := NewLogisticRegression(4, 3)
	b := data.Batch{X: tensor.NewMatrix(2, 4), Y: []int{0, 1}}
	for name, call := range map[string]func(){
		"no networks":        func() { LossAt(nil, a.Params(), b) },
		"short parameters":   func() { LossAt([]*Network{a}, a.Params()[1:], b) },
		"other architecture": func() { AccuracyAt([]*Network{a, NewLogisticRegression(5, 3)}, a.Params(), b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
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

// TestEvaluationBuffersAreChunkSized: a network that evaluates holds no
// buffer larger than evalChunk rows of its layer's wider side after a
// 384-row Loss — so a compute slot's network, trained at 16 rows, grows
// nothing when the engine evaluates on it. This is what keeps the conv
// workloads' alloc_mb near 16 MB instead of ~154.
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

// TestTrainingHoldsNoConvReLUBuffers: after one LossGrad at batch 16 a zoo
// network keeps no batch-sized buffer for a ReLU after a conv or a residual
// block — the fold (foldReLU) took the two each such ReLU held, which were
// 5.8 of the conv_pasgd workload's 16.4 MB alloc_mb. Every ReLU layer left
// follows a Dense, and a Conv2D or Residual holds no buffer of a batch of
// its output width but the ones it held before the fold: its output, its
// input gradient and (Conv2D) the input it keeps, besides ConvGrad's view
// of the filters, which is the parameter vector's.
func TestTrainingHoldsNoConvReLUBuffers(t *testing.T) {
	allowed := map[string]bool{"Conv2D.outBuf": true, "Conv2D.dInBuf": true, "Conv2D.lastIn": true,
		"Conv2D.grad.w.Data": true, "Residual.outBuf": true, "Residual.dInBuf": true}
	for _, m := range zooModels() {
		m.net.LossGrad(m.batch(16, 85), make([]float64, m.net.ParamLen()))
		var walk func(ls []Layer)
		walk = func(ls []Layer) {
			for i, l := range ls {
				switch l := l.(type) {
				case *ReLU:
					if _, dense := ls[max(i-1, 0)].(*Dense); i == 0 || !dense {
						t.Errorf("%s layer %d: a ReLU of its own after %T", m.name, i, ls[max(i-1, 0)])
					}
					continue
				case *Residual:
					walk(l.inner)
				case *Conv2D:
				default:
					continue
				}
				for field, buf := range buffers(l) {
					if buf.Cap() >= 16*l.OutDim() && !allowed[field] {
						t.Errorf("%s layer %d: %s holds %d elements, a batch of 16 at width %d",
							m.name, i, field, buf.Cap(), l.OutDim())
					}
				}
			}
		}
		walk(m.net.layers)
	}
}
