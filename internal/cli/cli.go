// Package cli holds the few things cmd/adacomm, cmd/figures and cmd/sweep
// all repeat: the exit-2 contract for bad flag values, the -quick switch,
// the -cpuprofile switch, and the range checks of the flags the three share. It is deliberately not
// a flag-set framework — each command still declares its own flags.
//
// Exit statuses: 0 a run that finished; 1 an output that could not be
// written (adacomm's CSV, figures' -csv files); 2 a bad flag value, reported
// by Fatalf before anything ran. cmd/adacomm adds 3: the run finished, its
// output is written, and its final loss is NaN, infinite or more than ten
// times the loss it started from (the other two print tables of many runs, in
// which a diverged cell is a value, not a verdict).
package cli

import (
	"fmt"
	"os"
	"runtime/pprof"

	"repro/internal/experiments"
)

// Fatalf is the bad-input contract of every command: ONE line on stderr,
// "cmd: message", and exit status 2 — before any workload is built, never a
// goroutine trace, never a run that trains to NaN.
func Fatalf(cmd, format string, a ...any) {
	fmt.Fprintf(os.Stderr, cmd+": "+format+"\n", a...)
	os.Exit(2)
}

// Check is Fatalf on a non-nil error and nothing otherwise.
func Check(cmd string, err error) {
	if err != nil {
		Fatalf(cmd, "%v", err)
	}
}

// StartCPUProfile applies -cpuprofile: it starts a CPU profile of the whole
// process into path and returns the function that ends it and closes the
// file, which the command calls once its work is done — before it picks an
// exit status, so a run that exits 3 leaves a whole profile too. An empty
// path is the flag's default: nothing starts and stop does nothing. A path
// that cannot be created is a bad flag value (Fatalf).
func StartCPUProfile(cmd, path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		Fatalf(cmd, "-cpuprofile: %v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		Fatalf(cmd, "-cpuprofile: %v", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: -cpuprofile: %v\n", cmd, err)
		}
	}
}

// Scale maps the -quick flag to the experiment sizing.
func Scale(quick bool) experiments.Scale {
	if quick {
		return experiments.ScaleQuick
	}
	return experiments.ScaleFull
}

// PoolWorkers applies the experiment pool's -workers (0 keeps the
// GOMAXPROCS default, 1 is serial).
func PoolWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("-workers %d must be >= 0 (0 = GOMAXPROCS)", n)
	}
	if n > 0 {
		experiments.SetWorkers(n)
	}
	return nil
}

// OpenUnit checks a factor flag that must lie in the open interval (0, 1).
// Zero, the flags' "unset, use the default", passes; NaN does not.
func OpenUnit(flag string, v float64) error {
	if v != 0 && !(v > 0 && v < 1) {
		return fmt.Errorf("%s %g outside (0, 1)", flag, v)
	}
	return nil
}
