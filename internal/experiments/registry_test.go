package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestAblationRegistry(t *testing.T) {
	usage := AblationUsage()
	seen := map[string]bool{"all": true} // "all" is the selector, never a row
	for _, a := range ablations {
		if a.Name == "" || seen[a.Name] {
			t.Errorf("registry name %q is empty or taken", a.Name)
		}
		seen[a.Name] = true
		if a.Help == "" || strings.Contains(a.Help, "\n") || a.run == nil {
			t.Errorf("%s: needs a one-line Help and a Run", a.Name)
		}
		if !strings.Contains(usage, "\n  "+a.Name+" ") || !strings.Contains(usage, a.Help) {
			t.Errorf("generated usage does not list %s:\n%s", a.Name, usage)
		}
		sel, err := SelectAblations(a.Name)
		if err != nil || len(sel) != 1 || sel[0].Name != a.Name {
			t.Errorf("SelectAblations(%q) = %v, %v", a.Name, sel, err)
		}
	}
	if len(ablations) != 16 || !strings.Contains(usage, "\n  all ") {
		t.Errorf("%d rows (want the sixteen ablations), usage:\n%s", len(ablations), usage)
	}
	all, err := SelectAblations("all")
	if err != nil || len(all) != len(ablations) {
		t.Fatalf("SelectAblations(all) = %d rows, %v", len(all), err)
	}
	if _, err := SelectAblations("bogus"); err == nil || !strings.Contains(err.Error(), "tau0 | gamma") {
		t.Errorf("unknown name error does not list the valid ones: %v", err)
	}
}

// A tuning option is accepted exactly when a selected row honours it, and
// the refusal names the rows that would.
func TestAblationOptionsValidate(t *testing.T) {
	tuned := map[Tuning]AblationOptions{
		TuneWire:      {Wire: "float32"},
		TuneFaults:    {Faults: "drop:0.1"},
		TuneOptimizer: {GlobalMomentum: 0.2},
	}
	all, _ := SelectAblations("all")
	for tune, o := range tuned {
		if err := o.Validate(all); err != nil {
			t.Errorf("tuning %d rejected with every row selected: %v", tune, err)
		}
		takers := 0
		for i, a := range ablations {
			err := o.Validate(ablations[i : i+1])
			if honours := a.Tunes&tune != 0; honours != (err == nil) {
				t.Errorf("%s honours tuning %d = %v, Validate: %v", a.Name, tune, honours, err)
			} else if honours {
				takers++
			} else if !strings.Contains(err.Error(), "-ablation "+a.Name+" ignores") {
				t.Errorf("refusal does not name the ignoring row: %v", err)
			}
		}
		if takers == 0 {
			t.Errorf("no row honours tuning %d", tune)
		}
	}
	if err := (AblationOptions{}).Validate(ablations[:1]); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	for _, o := range []AblationOptions{{Wire: "float16"}, {Faults: "crash:x@r1"}, {Faults: "crash:50@r1"},
		{AdamBeta2: 1}, {GlobalMomentum: math.NaN()}} {
		if err := o.Validate(all); err == nil {
			t.Errorf("malformed %+v accepted", o)
		}
	}
}
