package data

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The generators' outputs, pinned directly: FNV-1a hashes of every feature
// bit, label and target, and the generator's next draw, captured at the
// commit BEFORE the generators moved from one NormFloat64 call per value to
// rng.FillNormFloat64 (PR 24). A change that moves one of these changed what
// every seeded experiment trains on; recapture only deliberately.

func fnvWord(h *uint64, w uint64) {
	for i := 0; i < 8; i++ {
		*h ^= (w >> (8 * i)) & 0xff
		*h *= 1099511628211
	}
}

func fnvDataset(ds *Dataset) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range ds.X.Data {
		fnvWord(&h, math.Float64bits(v))
	}
	for _, y := range ds.Y {
		fnvWord(&h, uint64(y))
	}
	for _, v := range ds.T {
		fnvWord(&h, math.Float64bits(v))
	}
	return h
}

func TestGeneratorsGolden(t *testing.T) {
	for _, tc := range []struct {
		name       string
		gen        func(r *rng.Rand) *Dataset
		hash, next uint64
	}{
		{"blobs/wire_mix", func(r *rng.Rand) *Dataset {
			return GaussianBlobs(GaussianBlobsConfig{Classes: 16, Dim: 1024, N: 2304, Separation: 4, Noise: 1.5, LabelNoise: 0.1}, r)
		}, 0xa43dbd73fa4dd4ba, 0x1f78c96c65368976},
		{"blobs/async_fleet", func(r *rng.Rand) *Dataset {
			return GaussianBlobs(GaussianBlobsConfig{Classes: 10, Dim: 64, N: 8448, Separation: 4, Noise: 1.5, LabelNoise: 0.1}, r)
		}, 0xe62c15f0e3f6cf64, 0xc6f606f8a78618f6},
		{"blobs/odd", func(r *rng.Rand) *Dataset { // a row shorter than a tile, no label noise
			return GaussianBlobs(GaussianBlobsConfig{Classes: 3, Dim: 5, N: 31, Separation: 2, Noise: 0.5}, r)
		}, 0xe016c66ae2fc032a, 0xdb4365a959d717a6},
		{"images/fig9_quick", func(r *rng.Rand) *Dataset {
			return SynthImages(SynthImagesConfig{Classes: 10, Shape: ImageShape{Channels: 1, Height: 8, Width: 8}, N: 512, Noise: 0.8, LabelNoise: 0.1}, r)
		}, 0x5cff7c1cc9667f93, 0x4e83f4c3ade93852},
		{"images/rgb", func(r *rng.Rand) *Dataset {
			return SynthImages(SynthImagesConfig{Classes: 100, Shape: ImageShape{Channels: 3, Height: 8, Width: 8}, N: 300, Noise: 0.8, LabelNoise: 0.1}, r)
		}, 0x578fcf61dea122e9, 0x633c79d0d1e2d868},
		{"linreg", func(r *rng.Rand) *Dataset {
			ds, w, b := LinearRegressionData(LinearRegressionConfig{Dim: 131, N: 200, Noise: 0.3}, r)
			ds.T = append(append(ds.T, w...), b) // the ground truth is output too
			return ds
		}, 0x3ed78b324ea4e6e3, 0xfbc86eaa31162c2b},
	} {
		r := rng.New(24)
		got := fnvDataset(tc.gen(r))
		if next := r.Uint64(); got != tc.hash || next != tc.next {
			t.Errorf("%s: hash %#x next draw %#x, want %#x %#x", tc.name, got, next, tc.hash, tc.next)
		}
	}
}
