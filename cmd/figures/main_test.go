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

	// The analytic figures are cheap enough to run here (the conv training
	// figures take a minute at -quick; experiments_test.go covers them),
	// and they print the numbers they printed when the golden was captured,
	// byte for byte: Figs 6 and 7 draw internal/bound's Theorem 1 bound and
	// Theorem 2's tau*. The golden is these runs' stdout in this order; only
	// Fig 5 reads -quick (its trial count).
	ok := func(args string) string {
		stdout, stderr, code := run(strings.Fields(args)...)
		if code != 0 || !strings.HasPrefix(stdout, "== ") || stderr != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
		return stdout
	}
	var printed strings.Builder
	for _, args := range []string{"-fig 4", "-quick -fig 5", "-fig 6", "-fig 7", "-fig 8",
		"-quick -fig 5 -bytes 800000 -bandwidth 4e6", "-fig 7 -bytes 800000 -bandwidth 4e6",
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

	// Every row exits before anything trains, so none needs -quick, and
	// none names it unless the row is about it: each exits on its own check.
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
		// Flags the selection ignored, exit 0: only figs 5, 7 and 8 price
		// a payload, and -bandwidth without -bytes printed the size-free
		// figure byte for byte.
		"-fig 4 -bytes 800000 -bandwidth 4e6",
		"-table 1 -bytes 800000 -bandwidth 4e6",
		"-fig 5 -bandwidth 4e6",
		"-fig 4 -cpuprofile /nonexistent-directory/cpu.prof",
		// The same: figs 4, 6, 7 and 8 print the same bytes with and
		// without -quick, Fig 5 runs no pool and Fig 14 trains one engine
		// outside it.
		"-fig 4 -workers 1",
		"-quick -fig 4",
		"-quick -fig 6",
		"-quick -fig 7 -bytes 800000 -bandwidth 4e6",
		"-quick -fig 8",
		"-quick -fig 5 -workers 2",
		"-quick -fig 14 -workers 2",
		// The ablations are cmd/sweep's, and -kernel-workers went with the
		// kernel pool's knob: not flags here, so the flag package rejects
		// them.
		"-kernel-workers 0", "-gossip", "-async", "-topology", "-churn", "-optimizer",
		"-wire float32", "-faults drop:0.1", "-adam-beta2 0.99", "-global-momentum 0.2",
	} {
		t.Run(bad, func(t *testing.T) {
			stdout, stderr, code := run(strings.Fields(bad)...)
			clitest.WantExit2(t, "figures", stdout, stderr, code)
		})
	}

	// Fig 1 trains its logistic comparison in ~20 ms at -quick, so its whole
	// stdout is pinned too: the table, the AdaComm tau trajectory and
	// nothing after it. The conv figures take seconds; cmd/adacomm's
	// conv-quick.golden pins conv training instead.
	t.Run("-fig 1 golden", func(t *testing.T) {
		golden, err := os.ReadFile("testdata/training-quick.golden")
		if err != nil {
			t.Fatal(err)
		}
		stdout, stderr, code := run("-quick", "-fig", "1")
		if code != 0 || stderr != "" || stdout != string(golden) {
			t.Errorf("-quick -fig 1: exit %d, stderr %q, stdout differs from testdata/training-quick.golden:\n%s",
				code, stderr, stdout)
		}
	})

	// -csv under a figure that writes no trace made the directory, wrote
	// nothing into it and exited 0.
	t.Run("-fig 5 -csv DIR", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "csv")
		stdout, stderr, code := run("-quick", "-fig", "5", "-csv", dir)
		clitest.WantExit2(t, "figures", stdout, stderr, code)
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("-csv %s exists after the exit (stat: %v)", dir, err)
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
