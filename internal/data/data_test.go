package data

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func blobs(t *testing.T, n int) *Dataset {
	t.Helper()
	ds := GaussianBlobs(GaussianBlobsConfig{
		Classes: 4, Dim: 8, N: n, Separation: 4, Noise: 1,
	}, rng.New(1))
	if err := ds.Validate(); err != nil {
		t.Fatalf("invalid dataset: %v", err)
	}
	return ds
}

func TestGaussianBlobsShape(t *testing.T) {
	ds := blobs(t, 100)
	if ds.N() != 100 || ds.Dim() != 8 || ds.Classes != 4 {
		t.Fatalf("bad shape: n=%d dim=%d classes=%d", ds.N(), ds.Dim(), ds.Classes)
	}
}

func TestGaussianBlobsBalanced(t *testing.T) {
	ds := blobs(t, 400)
	counts := make([]int, ds.Classes)
	for _, y := range ds.Y {
		counts[y]++
	}
	for c, n := range counts {
		if n != 100 {
			t.Fatalf("class %d has %d examples, want 100", c, n)
		}
	}
}

func TestGaussianBlobsDeterministic(t *testing.T) {
	a := GaussianBlobs(GaussianBlobsConfig{Classes: 3, Dim: 5, N: 30, Separation: 2, Noise: 0.5}, rng.New(7))
	b := GaussianBlobs(GaussianBlobsConfig{Classes: 3, Dim: 5, N: 30, Separation: 2, Noise: 0.5}, rng.New(7))
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed produced different data")
		}
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}

func TestGaussianBlobsSeparation(t *testing.T) {
	// With high separation and low noise, per-class means of the data
	// should be far apart relative to noise.
	ds := GaussianBlobs(GaussianBlobsConfig{Classes: 2, Dim: 4, N: 2000, Separation: 10, Noise: 0.1}, rng.New(2))
	mean := func(cls int) []float64 {
		m := make([]float64, ds.Dim())
		n := 0
		for i := 0; i < ds.N(); i++ {
			if ds.Y[i] == cls {
				for j, v := range ds.X.Row(i) {
					m[j] += v
				}
				n++
			}
		}
		for j := range m {
			m[j] /= float64(n)
		}
		return m
	}
	m0, m1 := mean(0), mean(1)
	dist := 0.0
	for j := range m0 {
		d := m0[j] - m1[j]
		dist += d * d
	}
	if math.Sqrt(dist) < 1 {
		t.Fatalf("class means too close: %v", math.Sqrt(dist))
	}
}

func TestSynthImages(t *testing.T) {
	shape := ImageShape{Channels: 3, Height: 8, Width: 8}
	ds := SynthImages(SynthImagesConfig{Classes: 10, Shape: shape, N: 200, Noise: 0.3}, rng.New(3))
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Dim() != shape.Len() {
		t.Fatalf("dim %d != shape len %d", ds.Dim(), shape.Len())
	}
	if ds.Shape != shape {
		t.Fatalf("shape not recorded: %+v", ds.Shape)
	}
}

func TestSynthImagesClassStructure(t *testing.T) {
	// Same-class examples must be closer (on average) than cross-class:
	// otherwise the dataset carries no learnable signal.
	shape := ImageShape{Channels: 1, Height: 8, Width: 8}
	ds := SynthImages(SynthImagesConfig{Classes: 4, Shape: shape, N: 200, Noise: 0.2}, rng.New(4))
	var within, between float64
	var nw, nb int
	for i := 0; i < 50; i++ {
		for j := i + 1; j < 50; j++ {
			d := 0.0
			ri, rj := ds.X.Row(i), ds.X.Row(j)
			for k := range ri {
				dd := ri[k] - rj[k]
				d += dd * dd
			}
			if ds.Y[i] == ds.Y[j] {
				within += d
				nw++
			} else {
				between += d
				nb++
			}
		}
	}
	if nw == 0 || nb == 0 {
		t.Skip("degenerate sample")
	}
	if within/float64(nw) >= between/float64(nb) {
		t.Fatalf("no class structure: within %v >= between %v", within/float64(nw), between/float64(nb))
	}
}

func TestTwoSpirals(t *testing.T) {
	ds := TwoSpirals(200, 0.05, rng.New(5))
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Classes != 2 || ds.Dim() != 2 {
		t.Fatal("bad spiral dataset")
	}
}

func TestLinearRegressionDataGroundTruth(t *testing.T) {
	ds, w, b := LinearRegressionData(LinearRegressionConfig{Dim: 6, N: 5000, Noise: 0}, rng.New(6))
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Zero noise: targets must match the linear model exactly.
	for i := 0; i < ds.N(); i++ {
		pred := b
		for j, v := range ds.X.Row(i) {
			pred += v * w[j]
		}
		if math.Abs(pred-ds.T[i]) > 1e-9 {
			t.Fatalf("target mismatch at %d: %v vs %v", i, pred, ds.T[i])
		}
	}
}

func TestSubset(t *testing.T) {
	ds := blobs(t, 50)
	sub := ds.Subset([]int{3, 7, 11})
	if sub.N() != 3 {
		t.Fatalf("subset size %d", sub.N())
	}
	for k, j := range []int{3, 7, 11} {
		if sub.Y[k] != ds.Y[j] {
			t.Fatal("subset labels wrong")
		}
		for c := 0; c < ds.Dim(); c++ {
			if sub.X.At(k, c) != ds.X.At(j, c) {
				t.Fatal("subset rows wrong")
			}
		}
	}
	// Mutating the subset must not affect the parent.
	sub.X.Row(0)[0] = 999
	if ds.X.At(3, 0) == 999 {
		t.Fatal("subset aliases parent")
	}
}

func TestShardIIDPartition(t *testing.T) {
	ds := blobs(t, 103) // deliberately not divisible by m
	shards := ShardIID(ds, 4, rng.New(8))
	total := 0
	for _, s := range shards {
		total += s.N()
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if total != 103 {
		t.Fatalf("shards cover %d rows, want 103", total)
	}
	// Sizes must be near-equal (differ by at most 1).
	for _, s := range shards {
		if s.N() < 25 || s.N() > 26 {
			t.Fatalf("unbalanced shard size %d", s.N())
		}
	}
}

func TestShardByLabelNonIID(t *testing.T) {
	ds := blobs(t, 400)
	shards := ShardByLabel(ds, 4, rng.New(9))
	// Each shard should be dominated by few classes: measure the max
	// class fraction; non-IID sharding should make it ~1.0, while IID
	// sharding gives ~1/classes = 0.25.
	for _, s := range shards {
		counts := make([]int, s.Classes)
		for _, y := range s.Y {
			counts[y]++
		}
		maxFrac := 0.0
		for _, c := range counts {
			if f := float64(c) / float64(s.N()); f > maxFrac {
				maxFrac = f
			}
		}
		if maxFrac < 0.9 {
			t.Fatalf("shard not label-skewed: max class fraction %v", maxFrac)
		}
	}
}

func TestSamplerEpochCoverage(t *testing.T) {
	ds := blobs(t, 100)
	s := NewSampler(ds, 32, rng.New(10))
	// One epoch = ceil(100/32) = 4 batches covering each row exactly once.
	seen := map[float64]int{}
	rows := 0
	for i := 0; i < 4; i++ {
		b := s.Next()
		rows += b.X.Rows
		for r := 0; r < b.X.Rows; r++ {
			seen[b.X.At(r, 0)]++
		}
	}
	if rows != 100 {
		t.Fatalf("epoch covered %d rows, want 100", rows)
	}
	if s.Epoch() != 0 {
		t.Fatalf("epoch counter %d, want 0 before wrap", s.Epoch())
	}
	s.Next()
	if s.Epoch() != 1 {
		t.Fatalf("epoch counter %d, want 1 after wrap", s.Epoch())
	}
	_ = seen
}

func TestSamplerBatchShapes(t *testing.T) {
	ds := blobs(t, 10)
	s := NewSampler(ds, 4, rng.New(11))
	sizes := []int{4, 4, 2, 4} // last batch of epoch is partial, then wraps
	for i, want := range sizes {
		b := s.Next()
		if b.X.Rows != want {
			t.Fatalf("batch %d size %d, want %d", i, b.X.Rows, want)
		}
		if len(b.Y) != want {
			t.Fatalf("batch %d labels %d, want %d", i, len(b.Y), want)
		}
	}
}

func TestSamplerDeterministic(t *testing.T) {
	ds := blobs(t, 64)
	s1 := NewSampler(ds, 16, rng.New(12))
	s2 := NewSampler(ds, 16, rng.New(12))
	for i := 0; i < 10; i++ {
		b1, b2 := s1.Next(), s2.Next()
		for j := range b1.X.Data {
			if b1.X.Data[j] != b2.X.Data[j] {
				t.Fatalf("samplers diverged at batch %d", i)
			}
		}
	}
}

// TestSamplerResetMatchesNewSampler walks one sampler over datasets of
// different sizes, widths and target kinds (mid-epoch, after a wrap, onto a
// larger one) and holds every batch, the epoch counter and the stream's
// position to a sampler built fresh for each — the async dispatch resets
// one sampler where it used to build one per client.
func TestSamplerResetMatchesNewSampler(t *testing.T) {
	reg, _, _ := LinearRegressionData(LinearRegressionConfig{Dim: 3, N: 23, Noise: 0.1}, rng.New(2))
	sets := []*Dataset{blobs(t, 40), blobs(t, 7), reg, blobs(t, 90), reg}
	var reused *Sampler
	for i, ds := range sets {
		seed := uint64(20 + i)
		rFresh, rReused := rng.New(seed), rng.New(seed)
		fresh := NewSampler(ds, 6, rFresh)
		if reused == nil {
			reused = NewSampler(ds, 6, rReused)
		} else {
			reused.Reset(ds, rReused)
		}
		for k := 0; k < 2+3*i; k++ { // stops mid-epoch on some sets, past a wrap on others
			want, got := fresh.Next(), reused.Next()
			if got.X.Rows != want.X.Rows || got.X.Cols != want.X.Cols || len(got.Y) != len(want.Y) || len(got.T) != len(want.T) {
				t.Fatalf("set %d batch %d: shape %dx%d/%d/%d, want %dx%d/%d/%d", i, k,
					got.X.Rows, got.X.Cols, len(got.Y), len(got.T), want.X.Rows, want.X.Cols, len(want.Y), len(want.T))
			}
			for j := range want.X.Data {
				if got.X.Data[j] != want.X.Data[j] {
					t.Fatalf("set %d batch %d: inputs differ at %d", i, k, j)
				}
			}
			for j := range want.Y {
				if got.Y[j] != want.Y[j] {
					t.Fatalf("set %d batch %d: labels differ at %d", i, k, j)
				}
			}
			for j := range want.T {
				if got.T[j] != want.T[j] {
					t.Fatalf("set %d batch %d: targets differ at %d", i, k, j)
				}
			}
			if reused.Epoch() != fresh.Epoch() {
				t.Fatalf("set %d batch %d: epoch %d, want %d", i, k, reused.Epoch(), fresh.Epoch())
			}
		}
		if rReused.Uint64() != rFresh.Uint64() {
			t.Fatalf("set %d: Reset drew differently from NewSampler", i)
		}
	}
	// Once its buffers have seen the largest dataset, resetting and sampling
	// allocate nothing.
	big, r := sets[3], rng.New(1)
	reused.Reset(big, r)
	if n := testing.AllocsPerRun(10, func() {
		reused.Reset(big, r)
		for k := 0; k < 20; k++ { // crosses an epoch: the reshuffle is in place
			reused.Next()
		}
	}); n != 0 {
		t.Fatalf("%v allocs per reset + 20 batches, want 0", n)
	}
}

// TestNextIntoFillsTheHoldersBatch: one Batch, filled in turn by samplers
// over datasets of different sizes, widths and target kinds (as an engine's
// compute slot steps its workers), holds each time exactly the batch a twin
// sampler's Next returns, with no target slice left over from another
// dataset, and refilling it from datasets of one kind allocates nothing
// once it has grown.
func TestNextIntoFillsTheHoldersBatch(t *testing.T) {
	reg, _, _ := LinearRegressionData(LinearRegressionConfig{Dim: 3, N: 23, Noise: 0.1}, rng.New(2))
	sets := []*Dataset{blobs(t, 40), reg, blobs(t, 7), reg, blobs(t, 90)}
	var fill, twin []*Sampler
	for i, ds := range sets {
		fill = append(fill, NewSampler(ds, 6, rng.New(uint64(30+i))))
		twin = append(twin, NewSampler(ds, 6, rng.New(uint64(30+i))))
	}
	var b Batch
	for round := 0; round < 12; round++ { // past a wrap on every set
		for i := range sets {
			fill[i].NextInto(&b)
			want := twin[i].Next()
			if b.X.Rows != want.X.Rows || b.X.Cols != want.X.Cols || len(b.Y) != len(want.Y) || len(b.T) != len(want.T) ||
				(b.Y == nil) != (want.Y == nil) || (b.T == nil) != (want.T == nil) {
				t.Fatalf("round %d, set %d: shape %dx%d/%d/%d, want %dx%d/%d/%d", round, i,
					b.X.Rows, b.X.Cols, len(b.Y), len(b.T), want.X.Rows, want.X.Cols, len(want.Y), len(want.T))
			}
			for j := range want.X.Data {
				if b.X.Data[j] != want.X.Data[j] {
					t.Fatalf("round %d, set %d: inputs differ at %d", round, i, j)
				}
			}
			for j := range want.Y {
				if b.Y[j] != want.Y[j] {
					t.Fatalf("round %d, set %d: labels differ at %d", round, i, j)
				}
			}
			for j := range want.T {
				if b.T[j] != want.T[j] {
					t.Fatalf("round %d, set %d: targets differ at %d", round, i, j)
				}
			}
			if fill[i].Epoch() != twin[i].Epoch() {
				t.Fatalf("round %d, set %d: epoch %d, want %d", round, i, fill[i].Epoch(), twin[i].Epoch())
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		for _, i := range []int{0, 2, 4} { // the classification sets
			fill[i].NextInto(&b)
		}
	}); n != 0 {
		t.Fatalf("%v allocs per round of fills, want 0", n)
	}
}

func TestFullBatch(t *testing.T) {
	ds := blobs(t, 20)
	b := FullBatch(ds)
	if b.X.Rows != 20 || len(b.Y) != 20 {
		t.Fatal("FullBatch shape wrong")
	}
	// A view, not a copy (PR 24): datasets are immutable after construction.
	if &b.X.Data[0] != &ds.X.Data[0] || &b.Y[0] != &ds.Y[0] {
		t.Fatal("FullBatch copied the dataset")
	}
}

func TestValidateCatchesBadLabels(t *testing.T) {
	ds := blobs(t, 10)
	ds.Y[0] = 99
	if err := ds.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range label")
	}
}

func TestSplitTrainTestPartition(t *testing.T) {
	ds := blobs(t, 100)
	train, test := SplitTrainTest(ds, 25, rng.New(30))
	if train.N() != 75 || test.N() != 25 {
		t.Fatalf("split sizes %d/%d, want 75/25", train.N(), test.N())
	}
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := test.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitTrainTestPanicsOnBadSize(t *testing.T) {
	ds := blobs(t, 10)
	for _, n := range []int{0, 10, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("accepted nTest=%d", n)
				}
			}()
			SplitTrainTest(ds, n, rng.New(1))
		}()
	}
}

func TestLabelNoise(t *testing.T) {
	// With huge separation and tiny feature noise the true class of each
	// example is recoverable as the nearest class centroid (estimated
	// from the majority-correct labels). The flip rate should then be
	// close to p*(1-1/K): a flip draws uniformly, so 1/K flips are no-ops.
	cfg := GaussianBlobsConfig{
		Classes: 4, Dim: 3, N: 4000, Separation: 20, Noise: 0.01, LabelNoise: 0.2,
	}
	noisy := GaussianBlobs(cfg, rng.New(55))
	if err := noisy.Validate(); err != nil {
		t.Fatal(err)
	}
	// Estimate class centroids from labeled data (80% correct labels keep
	// centroids essentially exact given the separation).
	centroids := make([][]float64, cfg.Classes)
	counts := make([]int, cfg.Classes)
	for c := range centroids {
		centroids[c] = make([]float64, cfg.Dim)
	}
	for i := 0; i < noisy.N(); i++ {
		y := noisy.Y[i]
		counts[y]++
		for j, v := range noisy.X.Row(i) {
			centroids[y][j] += v
		}
	}
	for c := range centroids {
		for j := range centroids[c] {
			centroids[c][j] /= float64(counts[c])
		}
	}
	flipped := 0
	for i := 0; i < noisy.N(); i++ {
		best, bestD := 0, math.Inf(1)
		for c := 0; c < cfg.Classes; c++ {
			d := 0.0
			for j, v := range noisy.X.Row(i) {
				diff := v - centroids[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best != noisy.Y[i] {
			flipped++
		}
	}
	rate := float64(flipped) / float64(noisy.N())
	want := 0.2 * (1 - 1.0/4)
	if math.Abs(rate-want) > 0.03 {
		t.Fatalf("flip rate %v, want ~%v", rate, want)
	}
}

// Property: sharding always partitions (sizes sum to N) for any m <= N.
func TestShardPartitionProperty(t *testing.T) {
	ds := blobs(t, 60)
	f := func(m8 uint8) bool {
		m := 1 + int(m8)%12
		shards := ShardIID(ds, m, rng.New(uint64(m8)))
		total := 0
		for _, s := range shards {
			total += s.N()
		}
		return total == ds.N() && len(shards) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
