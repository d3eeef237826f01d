package cluster

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/nn"
	"repro/internal/paramserver"
	"repro/internal/rng"
	"repro/internal/sgd"
)

var networkType = reflect.TypeOf((*nn.Network)(nil))

// networksIn returns the distinct networks reachable from v through
// pointers, interfaces, slices, arrays, maps and struct fields, unexported
// ones included, without looking inside a network.
func networksIn(v reflect.Value) map[*nn.Network]bool {
	found := map[*nn.Network]bool{}
	type key struct {
		p uintptr
		t reflect.Type
	}
	seen := map[key]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			if v.Type() == networkType {
				found[(*nn.Network)(v.UnsafePointer())] = true
				return
			}
			if k := (key{v.Pointer(), v.Type()}); !seen[k] {
				seen[k] = true
				walk(v.Elem())
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			switch v.Type().Elem().Kind() {
			case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i))
				}
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(v)
	return found
}

// TestNetworksBelongToComputeSlots: a lock-step worker and a parameter-server
// worker hold no network, not even through their samplers or optimizers; an
// engine holds exactly one network per compute slot whatever the worker
// count and strategy (ring gossip's replicas are the workers themselves),
// and a server holds one.
func TestNetworksBelongToComputeSlots(t *testing.T) {
	for _, m := range []int{3, 8} {
		s := newSetup(t, m, 1)
		for _, strat := range []Strategy{FullAveraging, RingGossip, ElasticAveraging} {
			for _, pool := range []int{1, 2, 3, 8} {
				cfg := baseCfg()
				cfg.Strategy, cfg.ComputeWorkers, cfg.MaxIters = strat, pool, 10
				e := s.engine(t, cfg)
				e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "footprint")
				if got, want := len(networksIn(reflect.ValueOf(e))), min(pool, m); got != want {
					t.Errorf("m=%d, %s, pool %d: the engine holds %d networks, want %d", m, strat, pool, got, want)
				}
				for i, w := range e.workers {
					if n := len(networksIn(reflect.ValueOf(w))); n != 0 {
						t.Errorf("m=%d, %s, pool %d: worker %d holds %d networks", m, strat, pool, i, n)
					}
				}
			}
		}
	}

	ps := newSetup(t, 4, 1)
	srv, err := paramserver.New(ps.proto, ps.shards, ps.train, paramserver.Config{
		BatchSize: 16, PushDelay: rng.Constant{Value: 0.1}, ComputeY: rng.Exponential{MeanVal: 1},
		MaxUpdates: 20, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(paramserver.FixedK{K: 2, LR: 0.1}, "footprint")
	if n := len(networksIn(reflect.ValueOf(srv))); n != 1 {
		t.Errorf("the parameter server holds %d networks, want 1", n)
	}
	workers := reflect.ValueOf(srv).Elem().FieldByName("workers")
	for i := 0; i < workers.Len(); i++ {
		if n := len(networksIn(workers.Index(i))); n != 0 {
			t.Errorf("parameter-server worker %d holds %d networks", i, n)
		}
	}
}

// TestFirstRoundAllocatesOneNetworksArenas: the first round of a 4-worker
// VGGNano engine at pool width 1 grows one network's activation arenas, not
// one per worker. Its bytes (runtime.MemStats.TotalAlloc) must stay under
// twice what one network's first training step allocates — under half of
// the four networks' worth an engine that gives every worker its own
// network allocates.
func TestFirstRoundAllocatesOneNetworksArenas(t *testing.T) {
	shape := data.ImageShape{Channels: 1, Height: 8, Width: 8}
	train := data.SynthImages(data.SynthImagesConfig{Classes: 10, Shape: shape, N: 256, Noise: 0.5}, rng.New(110))
	proto := nn.NewVGGNano(shape, 10)
	proto.InitParams(rng.New(111))
	const m = 4
	dm := delaymodel.New(m, rng.Constant{Value: 1}, rng.Constant{Value: 1}, delaymodel.ConstantScaling{})
	cfg := baseCfg()
	cfg.ComputeWorkers = 1
	e, err := New(proto, data.ShardIID(train, m, rng.New(112)), train, nil, dm, cfg)
	if err != nil {
		t.Fatal(err)
	}

	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	net, grad := proto.Clone(), make([]float64, proto.ParamLen())
	b := data.NewSampler(train, cfg.BatchSize, rng.New(113)).Next()
	one := allocated(func() { net.LossGrad(b, grad) })
	round := allocated(func() {
		e.StepLocal(2, 0.05)
		e.SyncNow()
	})
	t.Logf("first round: %d bytes; one network's first step: %d bytes", round, one)
	if round >= 2*one {
		t.Errorf("the first round of %d workers at pool width 1 allocated %d bytes, one network's first step %d: want under %d",
			m, round, one, 2*one)
	}
}
