package nn

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/rng"
)

// InitParams' output, pinned directly: an FNV-1a hash of every parameter bit
// and the generator's next draw, captured at the commit BEFORE Dense.Init and
// Conv2D.Init moved from one NormFloat64 call per weight to
// rng.FillNormFloat64 (PR 24). Recapture only deliberately.
func TestInitParamsGolden(t *testing.T) {
	gray := data.ImageShape{Channels: 1, Height: 8, Width: 8}
	rgb := data.ImageShape{Channels: 3, Height: 8, Width: 8}
	for _, tc := range []struct {
		name       string
		net        *Network
		hash, next uint64
	}{
		{"logistic/quick", NewLogisticRegression(16, 10), 0x645dd08c7beeaa75, 0xa182ed9a127de48},
		{"logistic/wire_mix", NewLogisticRegression(1024, 16), 0xaf8bb16cf8cc49ea, 0x94cdbe856727abf5},
		{"vgg/quick", NewVGGNano(gray, 10), 0xde386661e5a01078, 0xdc4acac35ab60301},
		{"vgg/full", NewVGGNano(rgb, 100), 0x8105b192f50c4323, 0x40ac098c81141867},
		{"resnet/quick", NewResNetNano(gray, 10), 0x61b2b5b1f93714c6, 0x23ec139fe86d293e},
		{"resnet/full", NewResNetNano(rgb, 10), 0x1f962f229b3e0d9, 0x8d002fa4dd7e1d0},
	} {
		r := rng.New(24)
		tc.net.InitParams(r)
		h := uint64(14695981039346656037)
		for _, v := range tc.net.Params() {
			w := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				h ^= (w >> (8 * i)) & 0xff
				h *= 1099511628211
			}
		}
		if next := r.Uint64(); h != tc.hash || next != tc.next {
			t.Errorf("%s: hash %#x next draw %#x, want %#x %#x", tc.name, h, next, tc.hash, tc.next)
		}
	}
}
