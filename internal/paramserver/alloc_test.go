package paramserver

import (
	"testing"

	"repro/internal/compress"
)

// TestUpdateSteadyStateAllocFree: one server update — K arrivals computed,
// compressed into the push slot, decoded and summed, the model stepped, the
// workers restarted through a pull — allocates nothing after warm-up, in
// both modes, on the benchmark's wire (top-k+ef push, identity pull) and
// beside lossy pushes under free and identity pulls. Neither does the loss
// evaluation a trace point makes between updates (nn's chunked forward-only
// pass over the evaluation subset).
func TestUpdateSteadyStateAllocFree(t *testing.T) {
	topkEF := compress.Spec{Kind: compress.KindTopK, Ratio: 0.1, ErrorFeedback: true}
	for _, tc := range []struct {
		name       string
		push, pull compress.Spec
	}{
		{"raw", compress.Spec{}, compress.Spec{}},
		{"topk+ef push, identity pull", topkEF, compress.Spec{Kind: compress.KindIdentity}},
		{"qsgd push, identity pull", compress.Spec{Kind: compress.KindQSGD, Bits: 4}, compress.Spec{Kind: compress.KindIdentity}},
		{"identity+f32 push, free pull", compress.Spec{Wire: compress.WireFloat32}, compress.Spec{}},
	} {
		for _, mode := range []Mode{KSync, KAsync} {
			proto, shards, train := psSetup(t, 8)
			cfg := psConfig(mode)
			cfg.Compress, cfg.PullCompress, cfg.Bandwidth = tc.push, tc.pull, 1e4
			s, err := New(proto, shards, train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ctrl Controller = FixedK{K: 3, LR: 0.1}
			evalLoss := s.Loss
			update := func() {
				if _, _, ok := s.update(ctrl, evalLoss); !ok {
					t.Fatal("no worker could contribute")
				}
			}
			s.start()
			for i := 0; i < 20; i++ {
				update()
			}
			// Run's per-arrival staleness log grows by design; give it room.
			s.staleSamples = make([]float64, 0, 1<<12)
			if n := testing.AllocsPerRun(100, update); n != 0 {
				t.Errorf("%s %s: %v allocs per update, want 0", mode, tc.name, n)
			}
			if n := testing.AllocsPerRun(20, func() { s.Loss() }); n != 0 {
				t.Errorf("%s %s: %v allocs per Loss, want 0", mode, tc.name, n)
			}
		}
	}
}
