// Package data provides the synthetic datasets that stand in for CIFAR-10 /
// CIFAR-100 in this reproduction, plus the sharding and mini-batch sampling
// machinery of a distributed training run: each worker owns a partition of
// the training set and reshuffles it every epoch, exactly as in the paper's
// experimental setup (Sec 5.1).
//
// The substitution rationale (see DESIGN.md): SGD only observes the data
// through stochastic gradients, so any dataset with genuine class structure
// and controllable difficulty exercises the same error-runtime trade-off.
// SynthImages produces Gaussian class clusters with spatial texture so that
// both MLPs and the small CNNs in internal/nn have signal to learn.
package data

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Task distinguishes classification from regression datasets.
type Task int

const (
	// Classification datasets carry integer labels in Y.
	Classification Task = iota
	// Regression datasets carry float targets in T.
	Regression
)

// ImageShape records the (channels, height, width) layout of flattened
// image rows, for convolutional models. A zero value means "not an image".
type ImageShape struct {
	Channels, Height, Width int
}

// Len returns C*H*W.
func (s ImageShape) Len() int { return s.Channels * s.Height * s.Width }

// Dataset is an in-memory supervised dataset. X holds one example per row.
// Exactly one of Y (classification) or T (regression) is non-nil.
//
// A Dataset is immutable once its generator, Subset or a shard function has
// returned it: models, samplers and engines only read it, and FullBatch and
// every engine's evaluation batch are views of it, not copies.
type Dataset struct {
	Task    Task
	X       *tensor.Matrix
	Y       []int     // class labels, len == X.Rows, for Classification
	T       []float64 // targets, len == X.Rows, for Regression
	Classes int       // number of classes (Classification only)
	Shape   ImageShape
}

// N returns the number of examples.
func (d *Dataset) N() int { return d.X.Rows }

// Dim returns the input dimensionality.
func (d *Dataset) Dim() int { return d.X.Cols }

// Validate checks internal consistency and returns a descriptive error.
func (d *Dataset) Validate() error {
	switch d.Task {
	case Classification:
		if d.Y == nil || len(d.Y) != d.X.Rows {
			return fmt.Errorf("data: classification labels length %d != rows %d", len(d.Y), d.X.Rows)
		}
		if d.Classes < 2 {
			return fmt.Errorf("data: classification needs >= 2 classes, got %d", d.Classes)
		}
		for i, y := range d.Y {
			if y < 0 || y >= d.Classes {
				return fmt.Errorf("data: label %d out of range at row %d", y, i)
			}
		}
	case Regression:
		if d.T == nil || len(d.T) != d.X.Rows {
			return fmt.Errorf("data: regression targets length %d != rows %d", len(d.T), d.X.Rows)
		}
	default:
		return fmt.Errorf("data: unknown task %d", d.Task)
	}
	if s := d.Shape; s != (ImageShape{}) && s.Len() != d.X.Cols {
		return fmt.Errorf("data: image shape %v length %d != cols %d", s, s.Len(), d.X.Cols)
	}
	return nil
}

// Subset returns a new dataset holding copies of the given rows.
func (d *Dataset) Subset(idx []int) *Dataset {
	sub := &Dataset{Task: d.Task, Classes: d.Classes, Shape: d.Shape}
	sub.X = tensor.NewMatrix(len(idx), d.X.Cols)
	for i, j := range idx {
		copy(sub.X.Row(i), d.X.Row(j))
	}
	if d.Y != nil {
		sub.Y = make([]int, len(idx))
		for i, j := range idx {
			sub.Y[i] = d.Y[j]
		}
	}
	if d.T != nil {
		sub.T = make([]float64, len(idx))
		for i, j := range idx {
			sub.T[i] = d.T[j]
		}
	}
	return sub
}

// ShardIID partitions the dataset into m near-equal random shards, the
// "each worker machine is assigned a partition" setup of the paper. The
// permutation is drawn from r, so shards are deterministic given the seed.
func ShardIID(d *Dataset, m int, r *rng.Rand) []*Dataset {
	if m < 1 {
		panic("data: ShardIID needs m >= 1")
	}
	perm := r.Perm(d.N())
	return shardByOrder(d, perm, m)
}

// ShardByLabel partitions into m shards after sorting by label, producing
// maximally non-IID shards (each worker sees few classes). Used by the
// federated-learning example to stress AdaComm under heterogeneity.
func ShardByLabel(d *Dataset, m int, r *rng.Rand) []*Dataset {
	if d.Task != Classification {
		panic("data: ShardByLabel requires a classification dataset")
	}
	if m < 1 {
		panic("data: ShardByLabel needs m >= 1")
	}
	// Bucket indices by label, shuffle within each bucket, concatenate.
	buckets := make([][]int, d.Classes)
	for i, y := range d.Y {
		buckets[y] = append(buckets[y], i)
	}
	order := make([]int, 0, d.N())
	for _, b := range buckets {
		r.ShuffleInts(b)
		order = append(order, b...)
	}
	return shardByOrder(d, order, m)
}

func shardByOrder(d *Dataset, order []int, m int) []*Dataset {
	shards := make([]*Dataset, m)
	n := len(order)
	for w := 0; w < m; w++ {
		lo := w * n / m
		hi := (w + 1) * n / m
		shards[w] = d.Subset(order[lo:hi])
	}
	return shards
}

// Batch is one mini-batch: row indices into a dataset plus materialized
// inputs/targets for the model.
type Batch struct {
	X *tensor.Matrix // B x D
	Y []int          // Classification
	T []float64      // Regression
}

// Sampler yields mini-batches from a dataset with a fresh random permutation
// each epoch (sampling without replacement within an epoch), matching the
// "randomly shuffled after every epoch" protocol in the paper.
type Sampler struct {
	ds        *Dataset
	batchSize int
	r         *rng.Rand
	perm      []int
	pos       int
	epoch     int
	batch     Batch // reused across Next calls (see Next's doc)
}

// NewSampler creates a sampler over ds drawing batches of the given size.
func NewSampler(ds *Dataset, batchSize int, r *rng.Rand) *Sampler {
	if batchSize < 1 {
		panic("data: batch size must be >= 1")
	}
	s := &Sampler{batchSize: batchSize}
	s.Reset(ds, r)
	return s
}

// Reset points the sampler at another dataset and stream, at the start of
// epoch 0, keeping its batch size: it draws from r exactly what
// NewSampler(ds, batchSize, r) would and yields the same batches after. The
// permutation and batch buffers are reused where they are large enough, so a
// caller that activates many short-lived clients (the async engine's
// dispatch) resets one sampler instead of building one per client. Like a
// call to Next, Reset invalidates the Batch Next returned before it.
func (s *Sampler) Reset(ds *Dataset, r *rng.Rand) {
	if ds.N() == 0 {
		panic("data: cannot sample from empty dataset")
	}
	s.ds, s.r, s.epoch = ds, r, 0
	// Next fills only the target slice the dataset has; drop the other so a
	// batch never carries the previous dataset's.
	if ds.Y == nil {
		s.batch.Y = nil
	}
	if ds.T == nil {
		s.batch.T = nil
	}
	s.reshuffle()
}

// reshuffle draws the next epoch's permutation in place: identity order,
// then Fisher-Yates — the draws of rng.Perm without its allocation.
func (s *Sampler) reshuffle() {
	n := s.ds.N()
	if cap(s.perm) < n {
		s.perm = make([]int, n)
	}
	s.perm = s.perm[:n]
	for i := range s.perm {
		s.perm[i] = i
	}
	s.r.ShuffleInts(s.perm)
	s.pos = 0
}

// Epoch returns the number of completed passes over the shard.
func (s *Sampler) Epoch() int { return s.epoch }

// Next returns the next mini-batch, wrapping (and reshuffling) at epoch
// boundaries. The final partial batch of an epoch is emitted as-is.
//
// The returned Batch shares the sampler's internal buffers and is valid
// only until the next call to Next or Reset — the training hot path
// consumes each batch immediately, so reusing the storage keeps per-step
// allocations at zero. Callers that retain a batch must copy it.
func (s *Sampler) Next() Batch {
	if s.pos >= len(s.perm) {
		s.epoch++
		s.reshuffle()
	}
	end := s.pos + s.batchSize
	if end > len(s.perm) {
		end = len(s.perm)
	}
	idx := s.perm[s.pos:end]
	s.pos = end

	b := &s.batch
	dim := s.ds.Dim()
	if need := len(idx) * dim; b.X == nil || cap(b.X.Data) < need {
		b.X = tensor.NewMatrix(len(idx), dim)
	} else {
		b.X.Rows, b.X.Cols = len(idx), dim
		b.X.Data = b.X.Data[:need]
	}
	for i, j := range idx {
		copy(b.X.Row(i), s.ds.X.Row(j))
	}
	if s.ds.Y != nil {
		if cap(b.Y) < len(idx) {
			b.Y = make([]int, len(idx))
		} else {
			b.Y = b.Y[:len(idx)]
		}
		for i, j := range idx {
			b.Y[i] = s.ds.Y[j]
		}
	}
	if s.ds.T != nil {
		if cap(b.T) < len(idx) {
			b.T = make([]float64, len(idx))
		} else {
			b.T = b.T[:len(idx)]
		}
		for i, j := range idx {
			b.T[i] = s.ds.T[j]
		}
	}
	return *b
}

// FullBatch is the entire dataset as one batch (used for the exact loss
// evaluation F(x_t) that AdaComm's update rule consumes). Datasets are
// immutable after construction; a Batch over one shares its storage, so
// several engines evaluating on one test set hold one copy of it.
func FullBatch(ds *Dataset) Batch {
	return Batch{X: ds.X, Y: ds.Y, T: ds.T}
}

// EvalBatch is the batch an engine evaluates its training loss on: all of
// ds, or, when 0 < subset < ds.N(), subset examples picked once by a
// permutation drawn from a stream split off root, fixed for the whole run so
// the loss curve stays comparable. root is split only in that case, so a
// full-set evaluation leaves every later stream where it was.
func EvalBatch(ds *Dataset, subset int, root *rng.Rand) Batch {
	if subset > 0 && subset < ds.N() {
		ds = ds.Subset(root.Split().Perm(ds.N())[:subset])
	}
	return FullBatch(ds)
}
