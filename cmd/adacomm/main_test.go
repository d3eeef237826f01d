package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestCommandLine(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "adacomm")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run executes a small logistic job plus extra flags.
	run := func(extra ...string) (stdout, stderr string, code int) {
		cmd := exec.Command(bin, append(strings.Fields("-arch logistic -method fixed -tau 5 -quick -budget 20"), extra...)...)
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			code = cmd.ProcessState.ExitCode()
		}
		return out.String(), errb.String(), code
	}

	// Every bad value a user can type exits 2 with one "adacomm: ..." line:
	// never a panic trace, never a run that trains to NaN.
	for _, bad := range []string{
		"-momentum 1.5",
		"-momentum NaN",
		"-block-momentum NaN",
		"-block-momentum 7",
		"-momentum 0.9 -optimizer adam",
		"-block-momentum 0.3 -global-momentum 0.3",
		"-faults crash:x@r1",
		"-wire float16",
		"-topology torus:0x0",
	} {
		t.Run(bad, func(t *testing.T) {
			stdout, stderr, code := run(strings.Fields(bad)...)
			if code != 2 || stdout != "" {
				t.Errorf("exit %d with %d bytes of trace, want exit 2 and none", code, len(stdout))
			}
			if !strings.HasPrefix(stderr, "adacomm: ") || strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine") {
				t.Errorf("stderr is not one adacomm: line:\n%s", stderr)
			}
		})
	}

	// The alias contract: -momentum / -block-momentum fill exactly what
	// -optimizer momentum:F / -global-momentum fill.
	alias, _, code := run("-momentum", "0.9", "-block-momentum", "0.3")
	layered, _, code2 := run("-optimizer", "momentum:0.9", "-global-momentum", "0.3")
	if code != 0 || code2 != 0 || alias == "" || alias != layered {
		t.Errorf("alias spelling (exit %d) and layered spelling (exit %d) disagree:\n%s\nvs\n%s", code, code2, alias, layered)
	}
}
