package cluster

import (
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/metrics"
	"repro/internal/paramserver"
	"repro/internal/rng"
	"repro/internal/sgd"
)

// TestConcurrentEnginesFromOneSpec: two lock-step engines (full and elastic
// averaging, each fanning its local updates over a pool of 3) and two
// parameter servers (K-sync and K-async), all built from one top-k spec with
// error feedback, run at once, and each reproduces its own serial run bit
// for bit. Every engine and server lends its compressors a Selection of its
// own; under -race two of them sharing one, or any other scratch, is
// reported as a race.
func TestConcurrentEnginesFromOneSpec(t *testing.T) {
	spec := compress.Spec{Kind: compress.KindTopK, Ratio: 0.1, ErrorFeedback: true}
	s := newSetup(t, 6, 1)
	// Each builder runs on the test goroutine and returns the run.
	builds := []func() func() *metrics.Trace{}
	for _, strat := range []Strategy{FullAveraging, ElasticAveraging} {
		cfg := baseCfg()
		cfg.Strategy, cfg.ComputeWorkers, cfg.Compress, cfg.MaxIters = strat, 3, spec, 120
		builds = append(builds, func() func() *metrics.Trace {
			e := s.engine(t, cfg)
			return func() *metrics.Trace {
				return e.Run(FixedTau{Tau: 4, Schedule: sgd.Const{Eta: 0.1}}, "concurrent")
			}
		})
	}
	for _, mode := range []paramserver.Mode{paramserver.KSync, paramserver.KAsync} {
		cfg := paramserver.Config{
			Mode: mode, BatchSize: 16, PushDelay: rng.Constant{Value: 0.1}, ComputeY: rng.Exponential{MeanVal: 1},
			Compress: spec, MaxUpdates: 40, EvalEvery: 5, Seed: 7,
		}
		builds = append(builds, func() func() *metrics.Trace {
			srv, err := paramserver.New(s.proto, s.shards, s.train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return func() *metrics.Trace {
				tr, _ := srv.Run(paramserver.FixedK{K: 3, LR: 0.1}, "concurrent")
				return tr
			}
		})
	}

	want := make([]uint64, len(builds))
	for i, build := range builds {
		want[i] = hashTrace(build()())
	}
	got := make([]uint64, len(builds))
	var wg sync.WaitGroup
	for i, build := range builds {
		run := build()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = hashTrace(run())
		}()
	}
	wg.Wait()
	for i := range builds {
		if got[i] != want[i] {
			t.Errorf("run %d: concurrent trace hash %#x, serial %#x", i, got[i], want[i])
		}
	}
}
