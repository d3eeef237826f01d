package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli/clitest"
)

func TestCommandLine(t *testing.T) {
	run := clitest.Build(t)

	// The analytic figures are cheap enough to run here (the training
	// figures take a minute at -quick; experiments_test.go covers them),
	// and they print the numbers they printed when the golden was captured,
	// byte for byte: Figs 6 and 7 draw internal/bound's Theorem 1 bound and
	// Theorem 2's tau*. The golden is these runs' stdout in this order.
	ok := func(args string) string {
		stdout, stderr, code := run(append([]string{"-quick"}, strings.Fields(args)...)...)
		if code != 0 || !strings.HasPrefix(stdout, "== ") || stderr != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
		return stdout
	}
	var printed strings.Builder
	for _, args := range []string{"-fig 4", "-fig 5", "-fig 6", "-fig 7", "-fig 8",
		"-fig 5 -bytes 800000 -bandwidth 4e6", "-fig 7 -bytes 800000 -bandwidth 4e6",
		"-fig 8 -bytes 800000 -bandwidth 4e6"} {
		printed.WriteString(ok(args))
	}
	golden, err := os.ReadFile("testdata/analytic-quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	if printed.String() != string(golden) {
		t.Errorf("the analytic figures at -quick differ from testdata/analytic-quick.golden:\n%s", printed.String())
	}
	ok("-fig 4 -workers 1")

	for _, bad := range []string{
		"-fig 99",
		"-fig 2",
		"-table 7",
		"-fig 4 -table 7",
		"-workers -1",
		"-bytes -1",
		"-bandwidth NaN",
		// A subnormal rate: its reciprocal overflows, and figs 5, 7 and 8
		// printed +Inf transfer times and a NaN ratio, then exited 0.
		"-fig 5 -bytes 100 -bandwidth 1e-320",
		"-fig 7 -bytes 100 -bandwidth 1e-320",
		"-fig 8 -bytes 100 -bandwidth 1e-320",
		"-fig 5 -bytes 800000",
		"-fig 4 -cpuprofile /nonexistent-directory/cpu.prof",
		// The ablations are cmd/sweep's, and -kernel-workers went with the
		// kernel pool's knob: not flags here, so the flag package rejects
		// them.
		"-kernel-workers 0", "-gossip", "-async", "-topology", "-churn", "-optimizer",
		"-wire float32", "-faults drop:0.1", "-adam-beta2 0.99", "-global-momentum 0.2",
	} {
		t.Run(bad, func(t *testing.T) {
			stdout, stderr, code := run(append([]string{"-quick"}, strings.Fields(bad)...)...)
			clitest.WantExit2(t, "figures", stdout, stderr, code)
		})
	}

	// Under every comparison's AdaComm tau trajectory, eq 14's tau* at each
	// interval boundary, the same on every run: the constants it needs are
	// estimated on seeded streams.
	t.Run("-fig 1 eq 14 line", func(t *testing.T) {
		first, _, code := run("-quick", "-fig", "1")
		if code != 0 {
			t.Fatalf("exit %d", code)
		}
		lines := strings.Split(first, "\n")
		found := false
		for i, l := range lines[:len(lines)-1] {
			if strings.HasPrefix(l, "AdaComm tau trajectory:") {
				found = strings.HasPrefix(lines[i+1], "eq 14 tau*(T0) at each boundary: (t=0 tau*=")
			}
		}
		if !found {
			t.Fatalf("no eq 14 line under the tau trajectory:\n%s", first)
		}
		if again, _, _ := run("-quick", "-fig", "1"); again != first {
			t.Fatalf("two runs differ:\n%s\n---\n%s", first, again)
		}
	})

	// A -csv directory that cannot be created is found before Fig 9
	// trains (it used to train first, then exit 1).
	t.Run("-csv under a file", func(t *testing.T) {
		file := filepath.Join(t.TempDir(), "file")
		if err := os.WriteFile(file, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		stdout, stderr, code := run("-quick", "-fig", "9", "-csv", filepath.Join(file, "csv"))
		clitest.WantExit2(t, "figures", stdout, stderr, code)
	})
}
