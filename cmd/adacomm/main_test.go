package main

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cli/clitest"
)

func TestCommandLine(t *testing.T) {
	bin := clitest.Build(t)

	// The conv nets, trained and evaluated end to end, print what they
	// printed when the golden was captured, byte for byte on either kernel
	// tier: each run's CSV, then its stderr summary.
	var conv strings.Builder
	for _, args := range []string{
		"-arch vgg -quick -method adacomm -tau0 10 -interval 6 -budget 60",
		"-arch resnet -quick -method fixed -tau 5 -budget 15",
	} {
		stdout, stderr, code := bin(strings.Fields(args)...)
		if code != 0 {
			t.Errorf("%s: exit %d, stderr %q", args, code, stderr)
		}
		conv.WriteString(stdout + stderr)
	}
	golden, err := os.ReadFile("testdata/conv-quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	if conv.String() != string(golden) {
		t.Errorf("the conv runs differ from testdata/conv-quick.golden:\n%s", conv.String())
	}

	// run executes a small logistic job plus extra flags (a later flag
	// overrides an earlier one, so a case can replace -tau). The job is
	// -method fixed -tau 5 unless the case names -method adacomm, which
	// rejects -tau, so it runs without one.
	run := func(extra ...string) (stdout, stderr string, code int) {
		base := "-arch logistic -method fixed -tau 5 -quick -budget 20"
		if slices.Contains(extra, "adacomm") {
			base = "-arch logistic -quick -budget 20"
		}
		return bin(append(strings.Fields(base), extra...)...)
	}

	// Every bad value a user can type exits 2 with one "adacomm: ..." line:
	// never a panic trace, never a run that trains to NaN, never a hang.
	for _, bad := range []string{
		"-optimizer momentum:1.5",
		"-optimizer momentum:NaN",
		"-global-momentum NaN",
		"-global-momentum 7",
		// Not flags since -momentum, -block-momentum and -wire, which only
		// respelled -optimizer momentum:F, -global-momentum and -compress's
		// +f32, went: an old command line is the flag package's own exit 2,
		// never a run under another rule.
		"-momentum 1.5",
		"-momentum NaN",
		"-block-momentum NaN",
		"-block-momentum 7",
		"-momentum 0.9 -optimizer adam",
		"-block-momentum 0.3 -global-momentum 0.3",
		"-wire float16",
		"-method adacomm -wire float32 -adapt-compression",
		"-faults crash:x@r1",
		"-topology torus:0x0",
		// rows*cols overflows to 4: the pin check passed and graph.Torus
		// panicked inside cluster.New.
		"-strategy ring -topology torus:4611686018427387905x4 -workers 4",
		// The workload builders and controllers panic on these.
		"-tau 0",
		"-workers 0",
		"-classes 1",
		"-arch foo",
		"-method bogus",
		"-method adacomm -tau0 0",
		"-method adacomm -interval 0",
		"-method adacomm -interval NaN",
		"-async -tau 0",
		"-async -workers 0",
		// More workers than the 512 quick-scale examples leave a shard
		// empty; more classes than examples, a class without one.
		"-workers 513",
		"-workers 513 -strategy ring",
		"-async -tau 1 -clients 100000 -participation 4",
		"-classes 100000",
		"-arch vgg -budget 3 -classes 100000",
		// These train to NaN.
		"-lr NaN",
		"-lr -1",
		// A run under these never stops: Time >= NaN is never true.
		"-budget NaN",
		"-budget +Inf",
		"-async -budget NaN",
		"-async -budget +Inf",
		"-budget 0",
		// Not a flag since the kernel pool's knob went: the flag
		// package's own exit 2.
		"-kernel-workers 0",
		"-adam-beta2 1 -optimizer adam",
		"-bandwidth NaN",
		// A subnormal rate: its reciprocal overflows, and every transfer
		// cost +Inf simulated seconds (the run exited 0 after 20 iters).
		"-bandwidth 1e-320",
		"-links 0:0,:,:,:",
		"-links 0:1e-320,:,:,:",
		"-strategy ring -edge-links 3-3:1:",
		"-strategy ring -edge-links 0-1:0:1e-320",
		// ROADMAP finding 3: error feedback on CHOCO gossip compensates
		// twice and blew the loss up to 205 702 at every gamma.
		"-budget 200 -tau 2 -workers 16 -strategy ring -topology torus:4x4 -compress topk:0.25+ef -bandwidth 65536 -batch 2",
		// Adam under another name, and a gossip flag the async engine
		// accepted and ignored.
		"-optimizer adamw",
		"-async -tau 3 -participation 2 -gossip-gamma 0.5",
		// The engines would clamp these to the 128-example shards.
		"-batch 100000",
		"-async -tau 2 -batch 129",
		"-cpuprofile /nonexistent-directory/cpu.prof",
		// A NaN keep-ratio ran as top-1; an argument to none or identity
		// was dropped.
		"-compress topk:NaN",
		"-compress randk:NaN",
		"-compress identity:5",
		"-compress none:x",
		// The joint controller ran with nothing to adapt over a wire-only
		// spec.
		"-method adacomm -compress none+f32 -adapt-compression",
		// An explicit zero beta ran the default (0.9, 0.999) in its place.
		"-optimizer adam:0",
		"-optimizer adam:0.9,0",
		// Period flags of the other method, ignored: the run was byte for
		// byte the one without them.
		"-tau0 10",
		"-interval 6",
		"-method adacomm -tau 5",
		// One activation of a billion steps outlasts any budget: the run
		// never returned.
		"-async -tau 1000000000",
	} {
		t.Run(bad, func(t *testing.T) {
			stdout, stderr, code := run(strings.Fields(bad)...)
			clitest.WantExit2(t, "adacomm", stdout, stderr, code)
		})
	}

	// An interval below the clock's resolution adapts at every round; the
	// controllers' boundary catch-up used to spin on it forever.
	for _, tiny := range []string{"-interval 1e-12", "-interval 1e-300 -adapt-compression -compress topk:0.25"} {
		stdout, stderr, code := run(append(strings.Fields("-method adacomm -budget 100"), strings.Fields(tiny)...)...)
		if code != 0 || !strings.HasPrefix(stdout, "name,time,") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q", tiny, code, stdout, stderr)
		}
	}

	// A round of a billion steps never returned; the lock-step engine cuts
	// it at 10x the 20 s budget's expected compute: 200 steps at one
	// simulated second each.
	stdout, stderr, code := run("-tau", "1000000000")
	if code != 0 || !strings.HasSuffix(strings.TrimSpace(stderr), "200 iters in 201.0 sim-s") {
		t.Errorf("-tau 1000000000: exit %d, stderr %q", code, stderr)
	}

	// A K-of-m barrier wider than the surviving population used to end the
	// run silently after 16 of 100 simulated seconds.
	stdout, stderr, code = run(strings.Fields("-budget 100 -async -tau 2 -workers 8 -participation 8 -faults crash:0@r3")...)
	rows := strings.Split(strings.TrimSpace(stdout), "\n")
	last := rows[len(rows)-1] // name,time,iter,...
	var at float64
	if f := strings.Split(last, ","); len(f) > 1 {
		at, _ = strconv.ParseFloat(f[1], 64)
	}
	if code != 0 || at < 90 {
		t.Errorf("crash under a full barrier: exit %d, last trace row %q (want time >= 90), stderr %q", code, last, stderr)
	}

	// A run that trains to a non-finite loss is a result, told apart by its
	// status: the CSV and the summary are written as for any run, then one
	// "adacomm: diverged:" line, exit 3 — on both engines.
	for _, engine := range []string{"-tau 2", "-tau 2 -async"} {
		stdout, stderr, code := run(strings.Fields(engine + " -lr 1e308")...)
		lines := strings.Split(strings.TrimSpace(stderr), "\n")
		csv := strings.Split(strings.TrimSpace(stdout), "\n")
		if code != 3 || !strings.HasPrefix(stdout, "name,time,") || !strings.Contains(csv[len(csv)-1], ",NaN,") ||
			len(lines) != 2 || !strings.HasPrefix(lines[0], "final loss NaN") ||
			!strings.HasPrefix(lines[1], "adacomm: diverged: final loss NaN after ") {
			t.Errorf("%s -lr 1e308: exit %d (want 3), stdout %q, stderr %q", engine, code, stdout, stderr)
		}
	}
	// So is one that blew up to a finite loss: exit 3, the line names the
	// multiple of the initial loss.
	stdout, stderr, code = run("-tau", "2", "-lr", "1000")
	if lines := strings.Split(strings.TrimSpace(stderr), "\n"); code != 3 || !strings.HasPrefix(stdout, "name,time,") ||
		len(lines) != 2 || !strings.HasPrefix(lines[0], "final loss ") ||
		!strings.HasPrefix(lines[1], "adacomm: diverged: final loss ") || !strings.Contains(lines[1], "x the initial ") {
		t.Errorf("finite blow-up: exit %d (want 3), stdout %q, stderr %q", code, stdout, stderr)
	}
	if stdout, stderr, code := run(); code != 0 || !strings.HasPrefix(stdout, "name,time,") || strings.Contains(stderr, "diverged") {
		t.Errorf("a run that converges: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}

	// -cpuprofile changes no output and leaves a whole profile, on the exit-3
	// path too.
	plain, _, _ := run("-tau", "2", "-lr", "1e308")
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	stdout, _, code = run("-tau", "2", "-lr", "1e308", "-cpuprofile", prof)
	if info, err := os.Stat(prof); code != 3 || stdout != plain || err != nil || info.Size() == 0 {
		t.Errorf("-cpuprofile: exit %d (want 3), same CSV %v, profile %v %v", code, stdout == plain, info, err)
	}
}
