package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/paramserver"
	"repro/internal/rng"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

var (
	networkType = reflect.TypeOf((*nn.Network)(nil))
	datasetType = reflect.TypeOf((*data.Dataset)(nil))
	batchType   = reflect.TypeOf(data.Batch{})
)

// reach walks what is reachable from v through pointers, interfaces,
// slices, arrays, maps and struct fields, unexported ones included, calling
// visit on every value it meets; where visit returns false it does not look
// inside. A pointer is followed once.
func reach(v reflect.Value, visit func(reflect.Value) bool) {
	type key struct {
		p uintptr
		t reflect.Type
	}
	seen := map[key]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		if !visit(v) {
			return
		}
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
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
}

// pointersTo returns the distinct *T reachable from v, without looking
// inside a T.
func pointersTo[T any](v reflect.Value) map[*T]bool {
	want := reflect.TypeOf((*T)(nil))
	found := map[*T]bool{}
	reach(v, func(v reflect.Value) bool {
		if v.Kind() != reflect.Pointer || v.Type() != want {
			return true
		}
		if !v.IsNil() {
			found[(*T)(v.UnsafePointer())] = true
		}
		return false
	})
	return found
}

// scratchIn counts what v holds outside networks and datasets (the layers'
// arenas are counted as networks, and a dataset is shared, immutable
// training data): the distinct filled mini-batches (data.Batch with a
// matrix), less the evaluation batches in skip, and the float64 words the
// []float64 slices cover, each word once however many slices overlap it (a
// worker's replica is the head of its extended vector, its synced optimizer
// state the tail), the batches' own included.
func scratchIn(v reflect.Value, skip ...data.Batch) (batches, words int) {
	skipped := map[*tensor.Matrix]bool{}
	for _, b := range skip {
		skipped[b.X] = true
	}
	matrices := map[*tensor.Matrix]bool{}
	arrays := map[uintptr]int{} // first element -> most words seen through it
	reach(v, func(v reflect.Value) bool {
		switch {
		case v.Kind() == reflect.Pointer && (v.Type() == networkType || v.Type() == datasetType):
			return false
		case v.Type() == batchType:
			if x := v.FieldByName("X"); !x.IsNil() && !skipped[(*tensor.Matrix)(x.UnsafePointer())] {
				matrices[(*tensor.Matrix)(x.UnsafePointer())] = true
			}
		case v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Float64 && v.Len() > 0:
			p := v.Pointer()
			arrays[p] = max(arrays[p], v.Len())
		}
		return true
	})
	starts := make([]uintptr, 0, len(arrays))
	for p := range arrays {
		starts = append(starts, p)
	}
	slices.Sort(starts)
	var end uintptr // one past the last word counted
	for _, p := range starts {
		if e := p + uintptr(arrays[p])*8; e > end {
			words += int((e - max(p, end)) / 8)
			end = e
		}
	}
	return len(matrices), words
}

// TestNetworksBelongToComputeSlots: a lock-step worker and a
// parameter-server worker hold no network, gradient buffer or filled
// mini-batch, not even through their samplers or optimizers — a plain-SGD
// worker's float64 words are its replica's dim, a synced-Adam worker's its
// extended vector's and its first moment's; an engine holds exactly one
// network, gradient buffer and mini-batch buffer per compute slot whatever
// the worker count and strategy (ring gossip's replicas are the workers
// themselves) and one top-k selection, shared by its workers' compressors;
// a server holds one of each and one selection.
func TestNetworksBelongToComputeSlots(t *testing.T) {
	topk := compress.Spec{Kind: compress.KindTopK, Ratio: 0.25}
	for _, m := range []int{3, 8} {
		s := newSetup(t, m, 1)
		dim := s.proto.ParamLen()
		for _, strat := range []Strategy{FullAveraging, RingGossip, ElasticAveraging} {
			for _, pool := range []int{1, 2, 3, 8} {
				cfg := baseCfg()
				cfg.Strategy, cfg.ComputeWorkers, cfg.MaxIters = strat, pool, 10
				cfg.Compress = topk
				if strat == FullAveraging && pool == 2 {
					cfg.Compress = compress.Spec{} // the raw mean: no compressor selects
				}
				e := s.engine(t, cfg)
				e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "footprint")
				label := fmt.Sprintf("m=%d, %s, %s, pool %d", m, strat, cfg.Compress, pool)
				ev := reflect.ValueOf(e)
				if got, want := len(pointersTo[nn.Network](ev)), min(pool, m); got != want {
					t.Errorf("%s: the engine holds %d networks, want %d", label, got, want)
				}
				if got, _ := scratchIn(ev, e.evalBatch, e.testBatch); got != min(pool, m) {
					t.Errorf("%s: the engine holds %d filled mini-batches, want %d", label, got, min(pool, m))
				}
				grads := map[*float64]bool{}
				for _, g := range e.grads {
					if len(g) != dim {
						t.Errorf("%s: a gradient buffer of %d words, want %d", label, len(g), dim)
					}
					grads[&g[0]] = true
				}
				if len(grads) != min(pool, m) {
					t.Errorf("%s: the engine holds %d gradient buffers, want %d", label, len(grads), min(pool, m))
				}
				if n := len(pointersTo[compress.Selection](ev)); n != 1 {
					t.Errorf("%s: the engine holds %d selections, want 1", label, n)
				}
				for i, w := range e.workers {
					wv := reflect.ValueOf(w)
					if n := len(pointersTo[nn.Network](wv)); n != 0 {
						t.Errorf("%s: worker %d holds %d networks", label, i, n)
					}
					if b, words := scratchIn(wv); b != 0 || words != dim {
						t.Errorf("%s: worker %d holds %d filled mini-batches and %d float64 words, want none and its replica's %d", label, i, b, words, dim)
					}
				}
			}
		}
	}

	// adam+synced: a worker IS its extended vector — xdim words of replica
	// and synced second moment — plus its first moment, and the engine
	// keeps no per-worker extended rows. Against local Adam on the same
	// cluster, only the xdim-long vectors grow by the synced dim: the
	// reference and the three averaging vectors (extGlobal, sumBuf, avgBuf,
	// deltaBuf), and under gossip each node's CHOCO estimate and projection
	// and the decode scratch. A marshalling row per worker would add m*xdim
	// words more.
	for _, m := range []int{3, 8} {
		s := newSetup(t, m, 1)
		dim := s.proto.ParamLen()
		for _, strat := range []Strategy{FullAveraging, RingGossip} {
			own := map[bool]int{}
			for _, synced := range []bool{false, true} {
				cfg := baseCfg()
				cfg.Strategy, cfg.ComputeWorkers, cfg.MaxIters = strat, 2, 10
				cfg.Opt = opt.Config{Rule: opt.RuleAdam, SyncedMoments: synced}
				e := s.engine(t, cfg)
				e.Run(FixedTau{Tau: 5, Schedule: sgd.Const{Eta: 0.1}}, "footprint")
				for i, w := range e.workers {
					if b, words := scratchIn(reflect.ValueOf(w)); synced && (b != 0 || words != e.xdim+dim) {
						t.Errorf("m=%d, %s, %s: worker %d holds %d filled mini-batches and %d float64 words, want none and %d: its extended vector's %d and its first moment's %d",
							m, strat, cfg.Opt, i, b, words, e.xdim+dim, e.xdim, dim)
					}
				}
				_, all := scratchIn(reflect.ValueOf(e))
				_, workers := scratchIn(reflect.ValueOf(e.workers))
				own[synced] = all - workers
			}
			want := 4 * dim
			if strat == RingGossip {
				want += (2*m + 1) * dim
			}
			if got := own[true] - own[false]; got != want {
				t.Errorf("m=%d, %s: syncing the second moment grows the engine's own float64 words by %d, want %d (its xdim-long vectors by dim each, no per-worker rows)",
					m, strat, got, want)
			}
		}
	}

	ps := newSetup(t, 4, 1)
	dim := ps.proto.ParamLen()
	srv, err := paramserver.New(ps.proto, ps.shards, ps.train, paramserver.Config{
		BatchSize: 16, PushDelay: rng.Constant{Value: 0.1}, ComputeY: rng.Exponential{MeanVal: 1},
		Compress: compress.Spec{Kind: compress.KindTopK, Ratio: 0.25, ErrorFeedback: true}, MaxUpdates: 20, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(paramserver.FixedK{K: 2, LR: 0.1}, "footprint")
	sv := reflect.ValueOf(srv)
	if n := len(pointersTo[nn.Network](sv)); n != 1 {
		t.Errorf("the parameter server holds %d networks, want 1", n)
	}
	evalBatch := sv.Elem().FieldByName("evalBatch")
	if b, _ := scratchIn(sv, data.Batch{X: (*tensor.Matrix)(evalBatch.FieldByName("X").UnsafePointer())}); b != 1 {
		t.Errorf("the parameter server holds %d filled mini-batches, want 1", b)
	}
	if g := sv.Elem().FieldByName("grad"); g.Len() != dim {
		t.Errorf("the parameter server's gradient buffer has %d words, want %d", g.Len(), dim)
	}
	if n := len(pointersTo[compress.Selection](sv)); n != 1 {
		t.Errorf("the parameter server holds %d selections, want 1", n)
	}
	workers := sv.Elem().FieldByName("workers")
	for i := 0; i < workers.Len(); i++ {
		if n := len(pointersTo[nn.Network](workers.Index(i))); n != 0 {
			t.Errorf("parameter-server worker %d holds %d networks", i, n)
		}
		if b, words := scratchIn(workers.Index(i)); b != 0 || words != dim {
			t.Errorf("parameter-server worker %d holds %d filled mini-batches and %d float64 words, want none and its pulled model's %d", i, b, words, dim)
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

// allocated returns the bytes f allocates (runtime.MemStats.TotalAlloc).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCompressedWireKeepsStateNotScratch: a compressed wire's per-worker
// memory is its state — the error-feedback residual, the message — and
// nothing else: top-k's candidate keys and histogram are one selection per
// engine (compress.Selection), sized to the k-th radix bucket (about a fifth
// of the vector), and the gradients and batches are one per compute slot.
// The first rounds of a 16-worker elastic engine on topk:0.25+ef, and a
// 16-worker parameter server's first updates on topk:0.1+ef, must each
// allocate under 1.5*m*dim float64 words. Keys per worker (on top of the
// residual) come to about 1.7*m*dim, and a residual, a second copy of it and
// dim-long keys per worker to 3*m*dim. The model has 4 112 parameters and
// the batch is 2 rows of 256 features, so a worker's dim-sized state dwarfs
// its batch and the round's fixed costs.
func TestCompressedWireKeepsStateNotScratch(t *testing.T) {
	const m = 16
	r := rng.New(120)
	train := data.GaussianBlobs(data.GaussianBlobsConfig{Classes: 16, Dim: 256, N: 32 * m, Separation: 4, Noise: 1.5}, r)
	proto := nn.NewLogisticRegression(256, 16)
	proto.InitParams(r.Split())
	shards := data.ShardIID(train, m, r.Split())
	dim := proto.ParamLen()
	limit := uint64(3 * m * dim * 8 / 2)

	dm := delaymodel.New(m, rng.Constant{Value: 1}, rng.Constant{Value: 1}, delaymodel.ConstantScaling{})
	cfg := baseCfg()
	cfg.Strategy, cfg.ComputeWorkers, cfg.BatchSize = ElasticAveraging, 1, 2
	cfg.Compress = compress.Spec{Kind: compress.KindTopK, Ratio: 0.25, ErrorFeedback: true}
	e, err := New(proto, shards, train, nil, dm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := allocated(func() {
		for i := 0; i < 3; i++ {
			e.StepLocal(2, 0.05)
			e.SyncNow()
		}
	})
	t.Logf("elastic, m=%d, dim %d: the first 3 rounds allocated %d bytes, 1.5*m*dim words are %d", m, dim, rounds, limit)
	if rounds >= limit {
		t.Errorf("the first rounds of %d elastic workers on %s allocated %d bytes: want under 1.5*m*dim words, %d bytes",
			m, cfg.Compress, rounds, limit)
	}

	srv, err := paramserver.New(proto, shards, train, paramserver.Config{
		BatchSize: 2, PushDelay: rng.Constant{Value: 0.1}, ComputeY: rng.Exponential{MeanVal: 1},
		Compress:   compress.Spec{Kind: compress.KindTopK, Ratio: 0.1, ErrorFeedback: true},
		MaxUpdates: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	updates := allocated(func() { srv.Run(paramserver.FixedK{K: m, LR: 0.1}, "footprint") })
	t.Logf("parameter server, m=%d, dim %d: 4 K-sync updates of all %d allocated %d bytes, 1.5*m*dim words are %d", m, dim, m, updates, limit)
	if updates >= limit {
		t.Errorf("4 updates of a %d-worker server on topk:0.1+ef allocated %d bytes: want under 1.5*m*dim words, %d bytes",
			m, updates, limit)
	}
}
