// Package clitest is the test side of internal/cli: it builds the command
// under test once and states the exit-2 contract in one place, for the
// table tests of cmd/adacomm, cmd/figures and cmd/sweep.
package clitest

import (
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Build compiles the main package in the test's directory and returns a
// function that runs the binary and reports stdout, stderr and exit status
// (-1 when a run is killed after a minute: a hang is a failure, not a wait).
func Build(t *testing.T) func(args ...string) (stdout, stderr string, code int) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cmd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return func(args ...string) (string, string, int) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		cmd := exec.CommandContext(ctx, bin, args...)
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
			t.Fatalf("%s %v: %v", bin, args, err)
		}
		return out.String(), errb.String(), cmd.ProcessState.ExitCode()
	}
}

// WantExit2 asserts the bad-input contract: exit status 2, nothing on
// stdout, and exactly one "cmd: ..." line on stderr — never a goroutine
// trace. A flag the command does not declare is the flag package's own
// exit 2, which prints its usage after the one-line error.
func WantExit2(t *testing.T, cmd, stdout, stderr string, code int) {
	t.Helper()
	if code != 2 || stdout != "" {
		t.Errorf("exit %d with %d bytes on stdout, want exit 2 and none", code, len(stdout))
	}
	if strings.HasPrefix(stderr, "flag provided but not defined: ") {
		return
	}
	if !strings.HasPrefix(stderr, cmd+": ") || strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine") {
		t.Errorf("stderr is not one %q line:\n%s", cmd+": ...", stderr)
	}
}
