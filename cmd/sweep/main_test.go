package main

import (
	"os"
	"strings"
	"testing"

	"repro/internal/cli/clitest"
	"repro/internal/experiments"
)

func TestCommandLine(t *testing.T) {
	run := clitest.Build(t)

	// Every registry row, and all of them, prints a table at -quick.
	all, err := experiments.SelectAblations("all")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"all"}
	for _, a := range all {
		names = append(names, a.Name)
	}
	tables := map[string]string{}
	for _, name := range names {
		stdout, stderr, code := run("-quick", "-ablation", name)
		if code != 0 || !strings.HasPrefix(stdout, "== ") || stderr != "" {
			t.Errorf("-ablation %s: exit %d, stdout %q, stderr %q", name, code, stdout, stderr)
		}
		tables[name] = stdout
	}
	// "all" is the rows in registry order, nothing more.
	var joined string
	for _, a := range all {
		joined += tables[a.Name]
	}
	if tables["all"] != joined {
		t.Errorf("-ablation all is not the concatenation of the %d rows", len(all))
	}
	// And it prints the numbers it printed when the golden was captured,
	// byte for byte: every strategy, gossip, churn and optimizer path the
	// rows run is pinned here, not only that it ran.
	golden, err := os.ReadFile("testdata/all-quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	if tables["all"] != string(golden) {
		t.Errorf("-ablation all -quick differs from testdata/all-quick.golden:\n%s", tables["all"])
	}

	// The tuning flags reach the rows that honour them.
	for _, tuned := range []string{
		"-ablation gossip -wire float32",
		"-ablation churn -faults blip:0@r8-20,drop:0.1",
		"-ablation optimizer -adam-beta2 0.99 -global-momentum 0.2",
	} {
		args := strings.Fields(tuned)
		stdout, _, code := run(append([]string{"-quick"}, args...)...)
		if code != 0 || stdout == "" || stdout == tables[args[1]] {
			t.Errorf("%s: exit %d, table unchanged from the untuned one: %v", tuned, code, stdout == tables[args[1]])
		}
	}

	for _, bad := range []string{
		"-ablation bogus",
		"-wire float16",
		"-faults crash:x@r1",
		"-ablation churn -faults crash:50@r1",
		"-ablation all -faults crash:50@r1",
		"-wire float32 -ablation tau0",
		"-faults drop:0.1 -ablation gossip",
		"-adam-beta2 0.99 -ablation churn",
		"-global-momentum 0.2 -ablation wire",
		"-adam-beta2 1",
		"-global-momentum NaN",
		"-workers -3",
		"-cpuprofile /nonexistent-directory/cpu.prof",
		// Not flags here: the flag package's own exit 2. -kernel-workers
		// went with the kernel pool's knob.
		"-gossip", "-kernel-workers 0",
	} {
		t.Run(bad, func(t *testing.T) {
			stdout, stderr, code := run(append([]string{"-quick"}, strings.Fields(bad)...)...)
			clitest.WantExit2(t, "sweep", stdout, stderr, code)
		})
	}

	// -h is generated from the registry.
	_, usage, _ := run("-h")
	for _, name := range names {
		if !strings.Contains(usage, "\n    \t  "+name+" ") {
			t.Errorf("sweep -h does not list %q:\n%s", name, usage)
		}
	}
}
