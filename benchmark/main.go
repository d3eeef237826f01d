// Command benchmark is the repository's end-to-end benchmark: five named
// workloads over the three engines, six end-to-end metrics measured with
// tracing off, and one traced pass that attributes each workload's
// wall-clock to layers from outside the engines. See README.md.
//
//	go run -C benchmark . -workload wire_mix -seed 3 -seconds 15 -trace 0
//	go run -C benchmark .                      # all five, writes out/result.json
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// host is the guard record: what the numbers were measured on.
type host struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	LoadAvg    float64 `json:"loadavg_start"`
}

// workloadResult is one workload's row of the result file.
type workloadResult struct {
	EndToEnd     map[string]stat    `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	Repeats      int                `json:"repeats"`
	OpsAttempted int                `json:"ops_attempted"`
	OpsFailed    int                `json:"ops_failed"`
	LoadMin      float64            `json:"loadavg_min"`
	LoadMax      float64            `json:"loadavg_max"`
}

// result is what a run over all workloads writes. Claim is always null:
// the benchmark measures, a later change claims.
type result struct {
	Claim     *string                    `json:"claim"`
	Host      host                       `json:"host"`
	Seed      uint64                     `json:"seed"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	spec     bool
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the one-line JSON result (default: all five)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: data, sharding, initialization and every engine stream derive from it")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one untraced run measures")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 1 prints the per-layer metrics of a traced pass, 0 the end-to-end metrics")
	flag.StringVar(&o.out, "out", "out/result.json", "where a run over all workloads writes its result")
	flag.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json and exit")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.spec:
		b, err := benchmarkJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	// The driver reads the declared metrics from BENCHMARK.json and this run
	// prints spec.go's: a stale copy must not measure anything.
	if err := checkBenchmarkJSON(); err != nil {
		return err
	}
	sz := fullSizes

	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), LoadAvg: loadavg()}
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s, loadavg %.2f\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.LoadAvg)
	warnLoad(h.LoadAvg)
	tr := newTracer()

	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		traced := o.trace != 0
		if traced {
			// The traced pass needs two untraced repeats to stand on, not
			// a full measurement.
			sz.minRepeats, o.seconds = 2, 0
		}
		res, err := runWorkload(os.Stdout, w, o.seed, sz, o.seconds, traced, tr)
		if err != nil {
			return err
		}
		if traced {
			if err := tr.write("out/trace.json"); err != nil {
				return err
			}
		}
		return printContractLine(res, traced)
	}

	all := result{Host: h, Seed: o.seed, Workloads: map[string]*workloadResult{}}
	failed := 0
	for _, w := range workloads {
		res, err := runWorkload(os.Stdout, w, o.seed, sz, o.seconds, true, tr)
		if err != nil {
			return err
		}
		failed += res.OpsFailed
		all.Workloads[w.name] = res
	}
	if err := tr.write(filepath.Join(filepath.Dir(o.out), "trace.json")); err != nil {
		return err
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", o.out)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// warnLoad is the host guard: a self-loaded VM once inflated a recording by
// 40%, so a host that is busy before the run starts is called out, not
// failed. (During the run the benchmark is the load; that range is recorded
// per workload.)
func warnLoad(load float64) {
	if n := runtime.NumCPU(); load > 0.5*float64(n) {
		fmt.Fprintf(os.Stderr, "benchmark: WARNING: loadavg %.2f on %d CPUs; timings from a busy host are not comparable\n", load, n)
	}
}

// runWorkload measures one workload untraced and, when traced is set, runs
// the traced pass on top of that measurement. Repeats that disagree on the
// simulated side are an error: nothing measured on a run like that is
// comparable.
func runWorkload(log io.Writer, w *workload, seed uint64, sz sizes, seconds float64, traced bool, tr *tracer) (*workloadResult, error) {
	m, err := measure(w, seed, sz, seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if !m.stable {
		return nil, fmt.Errorf("%s: repeats of one seed disagree on the simulated side", w.name)
	}
	res := &workloadResult{
		EndToEnd: m.endToEnd(), Repeats: len(m.reps),
		OpsAttempted: m.attempted, OpsFailed: m.failed,
		LoadMin: m.reps[0].load, LoadMax: m.reps[0].load,
	}
	for _, r := range m.reps {
		res.LoadMin, res.LoadMax = min(res.LoadMin, r.load), max(res.LoadMax, r.load)
	}

	fmt.Fprintf(log, "%s: %d repeats, %d operations, %d failed, loadavg %.2f-%.2f\n",
		w.name, res.Repeats, res.OpsAttempted, res.OpsFailed, res.LoadMin, res.LoadMax)
	for _, em := range endToEndSpec {
		s := res.EndToEnd[em.Name]
		fmt.Fprintf(log, "  %-28s %14.6g %-5s (min %.6g, max %.6g)\n", em.Name, s.Value, s.Unit, s.Min, s.Max)
	}
	if !traced || m.failed > 0 {
		return res, nil // a failed cell has nothing to replay
	}
	layer, mismatches := tracedPass(w, m, sz, tr)
	res.PerLayer = layer
	res.OpsAttempted += int(layer["cluster.replay_parity"]) + mismatches
	res.OpsFailed += mismatches
	for _, lm := range perLayerSpec {
		fmt.Fprintf(log, "  %-28s %14.6g %s\n", lm.Name, layer[lm.Name], lm.Unit)
	}
	return res, nil
}

// printContractLine ends the run with the one JSON object the driver reads.
func printContractLine(res *workloadResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		if res.PerLayer == nil {
			return fmt.Errorf("%d operations failed before the traced pass", res.OpsFailed)
		}
		for _, lm := range perLayerSpec {
			metrics[lm.Name] = value{res.PerLayer[lm.Name], lm.Unit}
		}
	} else {
		for _, em := range endToEndSpec {
			metrics[em.Name] = value{res.EndToEnd[em.Name].Value, em.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.OpsFailed == 0, res.OpsAttempted, res.OpsFailed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
