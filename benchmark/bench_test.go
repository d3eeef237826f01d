package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpec checks the declared names against the driver's limits and that
// BENCHMARK.json is what spec.go generates.
func TestSpec(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is declared twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEndSpec {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(perLayerSpec) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(perLayerSpec))
	}
	for _, m := range perLayerSpec {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if !strings.HasPrefix(m.Name, m.layer+".") {
			t.Errorf("%s is not named after its layer %q", m.Name, m.layer)
		}
		if m.moves == "" {
			t.Errorf("%s does not say which end-to-end metric it should move", m.Name)
		}
	}

	if err := checkBenchmarkJSON(); err != nil {
		t.Error(err)
	}
}

// TestSmoke runs every workload at smoke size: every declared metric is
// emitted, a second run of the same seed agrees exactly on the simulated
// side, and another seed changes it without failing an operation.
func TestSmoke(t *testing.T) {
	tr := newTracer()
	for _, w := range workloads {
		traced, err := runWorkload(io.Discard, w, 1, smokeSizes, 0, true, tr)
		if err != nil {
			t.Fatal(err)
		}
		if traced.OpsFailed != 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, traced.OpsFailed, traced.OpsAttempted)
		}
		for _, m := range endToEndSpec {
			s, ok := traced.EndToEnd[m.Name]
			if !ok || s.Value == 0 || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
				t.Errorf("%s: end-to-end metric %s reads %v", w.name, m.Name, s.Value)
			}
		}
		if len(traced.PerLayer) != len(perLayerSpec) {
			t.Errorf("%s: traced pass emitted %d metrics, %d are declared", w.name, len(traced.PerLayer), len(perLayerSpec))
		}
		for _, m := range perLayerSpec {
			v, ok := traced.PerLayer[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s reads %v (emitted: %v)", w.name, m.Name, v, ok)
			}
		}

		again, err := runWorkload(io.Discard, w, 1, smokeSizes, 0, false, tr)
		if err != nil {
			t.Fatal(err)
		}
		other, err := runWorkload(io.Discard, w, 2, smokeSizes, 0, false, tr)
		if err != nil {
			t.Fatal(err)
		}
		if other.OpsFailed != 0 {
			t.Errorf("%s: seed 2 failed %d operations", w.name, other.OpsFailed)
		}
		moved := false
		for _, m := range []string{"wire_mb", "sim_s_per_kiter"} {
			a, b, c := traced.EndToEnd[m].Value, again.EndToEnd[m].Value, other.EndToEnd[m].Value
			if a != b {
				t.Errorf("%s: %s read %v then %v on the same seed", w.name, m, a, b)
			}
			moved = moved || a != c
		}
		if !moved {
			t.Errorf("%s: seed 2 left every simulated metric where seed 1 had it", w.name)
		}
	}
	if len(tr.spans) == 0 {
		t.Error("the traced passes recorded no spans")
	}
}

// TestCompare covers every verdict of -compare: only ok and unresolved rows
// let it pass.
func TestCompare(t *testing.T) {
	mk := func(edit func(*result)) string {
		r := &result{Seed: 1, Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			e := map[string]stat{}
			for _, m := range endToEndSpec {
				e[m.Name] = stat{Value: 10, Min: 9.9, Max: 10.1, Unit: m.Unit}
			}
			l := map[string]float64{}
			for _, m := range perLayerSpec {
				l[m.Name] = 0.25
			}
			r.Workloads[w.name] = &workloadResult{EndToEnd: e, PerLayer: l}
		}
		edit(r)
		f, err := os.CreateTemp(t.TempDir(), "result*.json")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(f).Encode(r); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return f.Name()
	}
	setStat := func(metric string, v, lo, hi float64) func(*result) {
		return func(r *result) {
			r.Workloads["wire_mix"].EndToEnd[metric] = stat{Value: v, Min: lo, Max: hi}
		}
	}
	base := mk(func(*result) {})
	for _, c := range []struct {
		name    string
		edit    func(*result)
		verdict string
		fails   bool
	}{
		{"same", setStat("wall_s", 10.2, 10.1, 10.3), "ok", false},
		{"slower", setStat("wall_s", 14, 13.9, 14.1), "WORSE", true},
		{"noisy", setStat("wall_s", 14, 10, 18), "unresolved", false},
		{"zero", setStat("wall_s", 0, 0, 0), "MISSING", true},
		{"no metric", func(r *result) { delete(r.Workloads["wire_mix"].EndToEnd, "alloc_mb") }, "MISSING", true},
		{"no workload", func(r *result) { delete(r.Workloads, "wire_mix") }, "MISSING", true},
		{"failed ops", func(r *result) { r.Workloads["wire_mix"].OpsFailed = 1 }, "FAILED", true},
		{"wire moved, same seed", setStat("wire_mb", 10.01, 10.01, 10.01), "DIFFERS", true},
		{"wire moved, other seed", func(r *result) {
			r.Seed = 2
			setStat("wire_mb", 10.01, 10.01, 10.01)(r)
		}, "seeds differ", false},
		{"loss moved", func(r *result) { r.Workloads["wire_mix"].PerLayer["metrics.final_loss"] = 0.26 }, "DIFFERS", true},
		{"no trace", func(r *result) { r.Workloads["wire_mix"].PerLayer = nil }, "MISSING", true},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, base, mk(c.edit))
		if (err != nil) != c.fails {
			t.Errorf("%s: error %v, want failure %v\n%s", c.name, err, c.fails, out.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: no %q in\n%s", c.name, c.verdict, out.String())
		}
	}
}
