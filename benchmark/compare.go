package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (end-to-end metric, workload): b's median
// against a's, as a share of a's, beside the metric's bound. The verdicts:
//
//	ok          b is no worse than a by more than the bound
//	WORSE       it is
//	unresolved  the recorded repeat-to-repeat range on either side is wider
//	            than the bound, so the two sets of runs cannot tell
//	DIFFERS     the files share a seed and disagree on a pure function of it
//	MISSING     a file lacks the workload or the metric, or the metric reads 0
//	FAILED      a file recorded failed operations on the workload
//
// When the seeds match, the exact end-to-end metrics and the headline's
// metrics.* records (final loss, time to target) must be equal to the last
// bit: that is the convergence side of "the two sets of runs agree", which no
// timing bound can show. Every verdict but ok and unresolved fails the
// comparison.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	sameSeed := a.Seed == b.Seed
	if !sameSeed {
		fmt.Fprintf(w, "seeds differ (%d and %d): simulated metrics are held to their bounds, not to equality\n", a.Seed, b.Seed)
	}
	fmt.Fprintf(w, "%-12s %-26s %14s %14s %9s %6s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	bad := 0
	row := func(workload, metric string, va, vb, worse float64, bound, verdict string) {
		fmt.Fprintf(w, "%-12s %-26s %14.6g %14.6g %+8.2f%% %6s  %s\n", workload, metric, va, vb, 100*worse, bound, verdict)
		if verdict != "ok" && verdict != "unresolved" {
			bad++
		}
	}
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-12s MISSING from one file\n", wl.name)
			bad++
			continue
		}
		if ra.OpsFailed+rb.OpsFailed > 0 {
			fmt.Fprintf(w, "%-12s FAILED operations: a %d, b %d\n", wl.name, ra.OpsFailed, rb.OpsFailed)
			bad++
		}
		for _, em := range endToEndSpec {
			sa, sb := ra.EndToEnd[em.Name], rb.EndToEnd[em.Name] // absent reads 0
			worse := worseBy(sa.Value, sb.Value, em.Better)
			verdict, bound := "ok", fmt.Sprintf("%.0f%%", 100*em.Bound)
			switch {
			case sa.Value == 0 || sb.Value == 0:
				verdict = "MISSING"
			case em.exact && sameSeed:
				bound = "exact"
				if sa.Value != sb.Value {
					verdict = "DIFFERS"
				}
			case spread(sa) > em.Bound || spread(sb) > em.Bound:
				verdict = "unresolved"
			case worse > em.Bound:
				verdict = "WORSE"
			}
			row(wl.name, em.Name, sa.Value, sb.Value, worse, bound, verdict)
		}
		if !sameSeed {
			continue
		}
		for _, lm := range perLayerSpec {
			if lm.layer != "metrics" {
				continue
			}
			va, okA := ra.PerLayer[lm.Name]
			vb, okB := rb.PerLayer[lm.Name]
			verdict := "ok"
			switch {
			case !okA || !okB:
				verdict = "MISSING"
			case va != vb:
				verdict = "DIFFERS"
			}
			row(wl.name, lm.Name, va, vb, worseBy(va, vb, lm.Better), "exact", verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are WORSE, DIFFERS, MISSING or FAILED", bad)
	}
	return nil
}

// worseBy is how much worse b reads than a, as a share of a.
func worseBy(a, b float64, better string) float64 {
	d := (b - a) / a
	if better == "higher" {
		return -d
	}
	return d
}

// spread is a stat's recorded range as a share of its median.
func spread(s stat) float64 { return (s.Max - s.Min) / s.Value }
