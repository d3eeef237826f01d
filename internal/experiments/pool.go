package experiments

import (
	"runtime"
	"sync/atomic"

	"repro/internal/par"
)

var poolWorkers int64 = int64(runtime.GOMAXPROCS(0))

// SetWorkers bounds how many experiment configurations run concurrently
// (cmd/figures and cmd/sweep expose it as -workers). Values below 1 force
// serial execution. It returns the previous setting so tests can restore it.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(atomic.SwapInt64(&poolWorkers, int64(n)))
}

// Workers reports the current experiment-pool width.
func Workers() int { return int(atomic.LoadInt64(&poolWorkers)) }

// activeFanOuts counts grid fan-outs currently running with real
// parallelism. While it is non-zero, Workload.Engine defaults freshly built
// engines to a serial compute pool: the grid already saturates the cores,
// and stacking a GOMAXPROCS-wide engine pool under every concurrent config
// would only oversubscribe them. Single runs built outside any fan-out
// (cmd/adacomm, Fig 14) keep the full engine pool.
var activeFanOuts atomic.Int64

// poolBusy reports whether a parallel grid fan-out is in flight.
func poolBusy() bool { return activeFanOuts.Load() > 0 }

// forEach runs fn(i) for every i in [0, n), at most Workers() at a time.
// fn must only write state owned by (or indexed to) its own i.
func forEach(n int, fn func(i int)) {
	w := Workers()
	if w > 1 && n > 1 {
		activeFanOuts.Add(1)
		defer activeFanOuts.Add(-1)
	}
	par.ForEach(n, w, fn)
}
