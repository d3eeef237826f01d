package data

import (
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Synthetic dataset generators. These replace CIFAR-10/100 (see DESIGN.md):
// each produces a deterministic dataset given a seed, with a train/test
// split drawn from the same distribution.

// GaussianBlobsConfig parameterizes a Gaussian-cluster classification
// dataset: K class means on a sphere of radius Separation, isotropic noise.
type GaussianBlobsConfig struct {
	Classes    int
	Dim        int
	N          int     // number of examples
	Separation float64 // distance scale between class means
	Noise      float64 // per-coordinate noise stddev
	// LabelNoise flips this fraction of labels to a uniformly random
	// class. Label noise guarantees a strictly positive loss floor and
	// non-vanishing gradient variance at the optimum — the regime in
	// which PASGD's error floor grows visibly with tau (Theorem 1's
	// eta^2 L^2 sigma^2 (tau-1) term).
	LabelNoise float64
}

// GaussianBlobs generates a classification dataset of Gaussian clusters.
// Lower Separation/Noise ratio makes the task harder, which raises the
// gradient-noise floor — the knob that makes the PASGD error floor visible.
func GaussianBlobs(cfg GaussianBlobsConfig, r *rng.Rand) *Dataset {
	if cfg.Classes < 2 || cfg.Dim < 1 || cfg.N < cfg.Classes {
		panic("data: invalid GaussianBlobsConfig")
	}
	means := tensor.NewMatrix(cfg.Classes, cfg.Dim)
	for c := 0; c < cfg.Classes; c++ {
		row := means.Row(c)
		r.FillNormFloat64(row)
		// Scale to exactly Separation so class geometry is controlled.
		n := tensor.Norm2(row)
		if n > 0 {
			tensor.Scal(cfg.Separation/n, row)
		}
	}
	ds := &Dataset{
		Task:    Classification,
		X:       tensor.NewMatrix(cfg.N, cfg.Dim),
		Y:       make([]int, cfg.N),
		Classes: cfg.Classes,
	}
	for i := 0; i < cfg.N; i++ {
		c := i % cfg.Classes // balanced classes
		ds.Y[i] = c
		row := ds.X.Row(i)
		mean := means.Row(c)
		r.FillNormFloat64(row)
		for j := range row {
			row[j] = mean[j] + cfg.Noise*row[j]
		}
		if cfg.LabelNoise > 0 && r.Float64() < cfg.LabelNoise {
			ds.Y[i] = r.Intn(cfg.Classes)
		}
	}
	shuffleRows(ds, r)
	return ds
}

// SynthImagesConfig parameterizes the CIFAR-like synthetic image dataset:
// each class has a random low-frequency "texture prototype"; examples are
// the prototype plus pixel noise and a random brightness shift. The spatial
// correlation gives convolutions an advantage over raw pixels, so the CNN
// models in internal/nn actually benefit from their structure.
type SynthImagesConfig struct {
	Classes int
	Shape   ImageShape
	N       int
	Noise   float64 // pixel noise stddev
	// LabelNoise flips this fraction of labels uniformly (see
	// GaussianBlobsConfig.LabelNoise for why).
	LabelNoise float64
}

// SynthImages generates an image-classification dataset ("SynthCIFAR").
func SynthImages(cfg SynthImagesConfig, r *rng.Rand) *Dataset {
	if cfg.Classes < 2 || cfg.N < cfg.Classes || cfg.Shape.Len() == 0 {
		panic("data: invalid SynthImagesConfig")
	}
	c, h, w := cfg.Shape.Channels, cfg.Shape.Height, cfg.Shape.Width
	// Per-class prototypes built from three random 2-D sinusoids: smooth
	// spatial structure that small conv kernels can detect.
	protos := make([][]float64, cfg.Classes)
	for cl := range protos {
		p := make([]float64, cfg.Shape.Len())
		for wv := 0; wv < 3; wv++ {
			fx := 1 + r.Float64()*3
			fy := 1 + r.Float64()*3
			phase := r.Float64() * 2 * math.Pi
			amp := 0.5 + r.Float64()
			ch := r.Intn(c)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v := amp * math.Sin(2*math.Pi*(fx*float64(x)/float64(w)+fy*float64(y)/float64(h))+phase)
					p[ch*h*w+y*w+x] += v
				}
			}
		}
		protos[cl] = p
	}
	ds := &Dataset{
		Task:    Classification,
		X:       tensor.NewMatrix(cfg.N, cfg.Shape.Len()),
		Y:       make([]int, cfg.N),
		Classes: cfg.Classes,
		Shape:   cfg.Shape,
	}
	for i := 0; i < cfg.N; i++ {
		cl := i % cfg.Classes
		ds.Y[i] = cl
		row := ds.X.Row(i)
		brightness := 0.2 * r.NormFloat64()
		r.FillNormFloat64(row)
		for j := range row {
			row[j] = protos[cl][j] + brightness + cfg.Noise*row[j]
		}
		if cfg.LabelNoise > 0 && r.Float64() < cfg.LabelNoise {
			ds.Y[i] = r.Intn(cfg.Classes)
		}
	}
	shuffleRows(ds, r)
	return ds
}

// TwoSpirals generates the classic two-intertwined-spirals binary dataset:
// non-linearly-separable, so linear models plateau while MLPs do not. Used
// in tests to verify the NN stack learns genuinely non-linear structure.
func TwoSpirals(n int, noise float64, r *rng.Rand) *Dataset {
	if n < 2 {
		panic("data: TwoSpirals needs n >= 2")
	}
	ds := &Dataset{
		Task:    Classification,
		X:       tensor.NewMatrix(n, 2),
		Y:       make([]int, n),
		Classes: 2,
	}
	for i := 0; i < n; i++ {
		cl := i % 2
		tpos := float64(i/2) / float64(n/2) * 3 * math.Pi
		radius := 0.5 + tpos/(3*math.Pi)*2
		angle := tpos
		if cl == 1 {
			angle += math.Pi
		}
		ds.X.Set(i, 0, radius*math.Cos(angle)+noise*r.NormFloat64())
		ds.X.Set(i, 1, radius*math.Sin(angle)+noise*r.NormFloat64())
		ds.Y[i] = cl
	}
	shuffleRows(ds, r)
	return ds
}

// LinearRegressionConfig parameterizes a y = <w*, x> + b* + noise dataset
// with a known ground-truth weight vector, for which SGD convergence theory
// (and the Theorem 1 constants L, sigma^2) can be computed exactly.
type LinearRegressionConfig struct {
	Dim   int
	N     int
	Noise float64
}

// LinearRegressionData generates the dataset and returns the ground truth
// (wStar includes the bias as its last element; inputs get an implicit 1
// appended by the Linear model in internal/nn — here X carries only raw
// features and the generator returns the true weights over raw features
// plus bias separately).
func LinearRegressionData(cfg LinearRegressionConfig, r *rng.Rand) (ds *Dataset, wStar []float64, bStar float64) {
	if cfg.Dim < 1 || cfg.N < 1 {
		panic("data: invalid LinearRegressionConfig")
	}
	wStar = make([]float64, cfg.Dim)
	r.FillNormFloat64(wStar)
	bStar = r.NormFloat64()
	ds = &Dataset{
		Task: Regression,
		X:    tensor.NewMatrix(cfg.N, cfg.Dim),
		T:    make([]float64, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		row := ds.X.Row(i)
		r.FillNormFloat64(row)
		ds.T[i] = tensor.Dot(row, wStar) + bStar + cfg.Noise*r.NormFloat64()
	}
	return ds, wStar, bStar
}

// SplitTrainTest splits one generated dataset into a train and a test part
// drawn from the same distribution (the same class prototypes) — the
// train/validation protocol of the paper's CIFAR experiments. Generators
// like GaussianBlobs and SynthImages draw fresh class prototypes on every
// call, so generating train and test separately would produce two DIFFERENT
// tasks; always split one dataset instead.
func SplitTrainTest(ds *Dataset, nTest int, r *rng.Rand) (train, test *Dataset) {
	if nTest <= 0 || nTest >= ds.N() {
		panic("data: SplitTrainTest needs 0 < nTest < N")
	}
	perm := r.Perm(ds.N())
	return ds.Subset(perm[nTest:]), ds.Subset(perm[:nTest])
}

// shuffleRows permutes examples in place so class order is not systematic.
func shuffleRows(ds *Dataset, r *rng.Rand) {
	r.Shuffle(ds.N(), func(i, j int) {
		ri, rj := ds.X.Row(i), ds.X.Row(j)
		for k := range ri {
			ri[k], rj[k] = rj[k], ri[k]
		}
		if ds.Y != nil {
			ds.Y[i], ds.Y[j] = ds.Y[j], ds.Y[i]
		}
		if ds.T != nil {
			ds.T[i], ds.T[j] = ds.T[j], ds.T[i]
		}
	})
}
