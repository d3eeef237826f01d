// Command figures regenerates the data behind every table and figure of
// the paper's evaluation — and nothing else: the ablations that are not in
// the paper live behind cmd/sweep. By default it runs everything at full
// scale and prints text tables to stdout; -csv additionally dumps raw
// training traces for external plotting.
//
// Usage:
//
//	figures                 # all figures, full scale
//	figures -fig 9          # only Figure 9
//	figures -table 1        # only Table 1
//	figures -quick          # reduced sizes (smoke test)
//	figures -csv out/       # also write trace CSVs into out/
//	figures -workers 8      # run up to 8 methods per figure concurrently
//
// A -fig or -table number the paper does not have exits 2.
//
// Each figure's methods are independent training runs, so they execute
// concurrently on the experiment pool (default width GOMAXPROCS); the
// output is byte-identical at any -workers setting.
//
// The Monte-Carlo runtime figures (5, 8) and the bound-driven schedule
// (fig 7) can be regenerated for a bandwidth-constrained link by pricing
// each broadcast's payload:
//
//	figures -fig 5 -bytes 800000 -bandwidth 4e6   # 0.2 s/transfer
//	figures -fig 8 -bytes 800000 -bandwidth 4e6
//
// With the default -bytes 0 the output is bit-identical to the size-free
// paper model.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate only this figure number (0 = all)")
	table := flag.Int("table", 0, "regenerate only this table number (0 = all)")
	quick := flag.Bool("quick", false, "use reduced experiment sizes")
	csvDir := flag.String("csv", "", "directory to write trace CSVs into")
	bytes := flag.Int("bytes", 0,
		"per-broadcast payload in bytes for the runtime figures 5/7/8 (0 = the paper's size-free model)")
	bandwidth := flag.Float64("bandwidth", 0,
		"per-link bandwidth in bytes per simulated second for -bytes pricing (0 = infinite)")
	workers := flag.Int("workers", 0,
		"concurrent experiment configurations per grid (0 = GOMAXPROCS, 1 = serial); output is identical at any width")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected figures' runs to this file")
	flag.Parse()

	cli.Check("figures", cli.PoolWorkers(*workers))
	if *bytes < 0 || !(*bandwidth >= 0) {
		cli.Fatalf("figures", "-bytes %d and -bandwidth %g must be >= 0", *bytes, *bandwidth)
	}
	if *bytes > 0 && *bandwidth <= 0 {
		cli.Fatalf("figures", "-bytes needs a finite -bandwidth to price the transfer")
	}
	if *csvDir != "" {
		// Now, not after the first panel has trained.
		cli.Check("figures", os.MkdirAll(*csvDir, 0o755))
	}
	scale := cli.Scale(*quick)
	out := os.Stdout

	// writeCSV dumps one comparison's traces into the -csv directory.
	writeCSV := func(name string, cmp *experiments.Comparison) error {
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		var traces []*metrics.Trace
		for _, n := range cmp.Order {
			traces = append(traces, cmp.Traces[n])
		}
		return metrics.WriteCSV(f, traces...)
	}
	// trains is a figure made of training comparisons: panels a, b, c...
	// when there are several, each printed and (with -csv) written out.
	trains := func(name string, specs ...experiments.TrainSpec) func() {
		return func() {
			for i, spec := range specs {
				panel := name
				if len(specs) > 1 {
					panel += string(rune('a' + i))
				}
				if i > 0 {
					fmt.Fprintln(out)
				}
				cmp := experiments.RunComparison(spec)
				cmp.Print(out)
				experiments.PrintOptimalTaus(out, cmp.OptimalTaus())
				if *csvDir == "" {
					continue
				}
				if err := writeCSV(panel, cmp); err != nil {
					fmt.Fprintf(os.Stderr, "figures: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}

	// The paper's evaluation in print order, one row per figure or table:
	// what -fig / -table select from, and what an unknown number is checked
	// against. A blank line follows each row.
	items := []struct {
		fig, table int
		run        func()
	}{
		{fig: 1, run: trains("fig1", experiments.Fig1Spec(scale))},
		{fig: 4, run: func() { experiments.PrintFig4(out, experiments.Fig4()) }},
		{fig: 5, run: func() {
			trials := 200000
			if *quick {
				trials = 20000
			}
			experiments.PrintFig5(out, experiments.Fig5Bytes(trials, 1, *bytes, *bandwidth))
		}},
		{fig: 6, run: func() { experiments.PrintFig6(out, experiments.Fig6(200)) }},
		{fig: 7, run: func() {
			c := experiments.SizeAwareConstants(experiments.Fig6Constants(), *bytes, *bandwidth)
			experiments.PrintFig7(out, experiments.Fig7(c, 60, 10, 64))
		}},
		{fig: 8, run: func() { experiments.PrintFig8(out, experiments.Fig8Bytes(4, 2, *bytes, *bandwidth)) }},
		{fig: 9, run: trains("fig9", experiments.Fig9Spec(10, true, scale),
			experiments.Fig9Spec(10, false, scale), experiments.Fig9Spec(100, false, scale))},
		{fig: 10, run: trains("fig10", experiments.Fig10Spec(10, true, scale),
			experiments.Fig10Spec(10, false, scale), experiments.Fig10Spec(100, false, scale))},
		{fig: 11, run: trains("fig11", experiments.Fig11Spec(experiments.ArchResNet, 10, scale),
			experiments.Fig11Spec(experiments.ArchVGG, 10, scale), experiments.Fig11Spec(experiments.ArchResNet, 100, scale))},
		{fig: 12, run: trains("fig12", experiments.Fig12Spec(10, true, scale), experiments.Fig12Spec(100, false, scale))},
		{fig: 13, run: trains("fig13", experiments.Fig13Spec(10, true, scale), experiments.Fig13Spec(100, false, scale))},
		{fig: 14, run: func() { experiments.PrintFig14(out, experiments.Fig14(scale, 5)) }},
		{table: 1, run: func() { experiments.PrintTable1(out, experiments.Table1(scale)) }},
	}

	figOK, tableOK := *fig == 0, *table == 0
	var figs, tables []int
	for _, it := range items {
		if it.fig != 0 {
			figs = append(figs, it.fig)
			figOK = figOK || it.fig == *fig
		} else {
			tables = append(tables, it.table)
			tableOK = tableOK || it.table == *table
		}
	}
	if !figOK {
		cli.Fatalf("figures", "-fig %d: the paper's evaluation has figures %v (ablations beyond the paper are cmd/sweep's)", *fig, figs)
	}
	if !tableOK {
		cli.Fatalf("figures", "-table %d: the paper's evaluation has tables %v", *table, tables)
	}
	all := *fig == 0 && *table == 0
	defer cli.StartCPUProfile("figures", *cpuProfile)()
	for _, it := range items {
		if all || (it.fig != 0 && it.fig == *fig) || (it.table != 0 && it.table == *table) {
			it.run()
			fmt.Fprintln(out)
		}
	}
}
