// Command benchmark is the repository's benchmark: four named workloads,
// end-to-end metrics from an untraced run, per-layer metrics from a
// traced one. See README.md beside this file and BENCHMARK.json at the
// repository root.
//
// With -workload it runs that one workload in this process and prints one
// JSON object as its last line of output. Without, it runs every workload
// in a fresh child process each, prints every metric by name and writes a
// JSON report; -trace 1 adds the traced run, -repeat 2 runs two sets and
// compares them, -compare a.json b.json compares two reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the JSON object a single-workload run ends with.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command-line settings shared by every mode.
type options struct {
	seed    uint64
	seconds float64
	trace   int
	outDir  string
}

const (
	// setupRuns is how many times an untraced run sets its workload up;
	// the median set-up time is reported. A set-up takes 1 to 10 ms.
	setupRuns = 101
	// specPath is the benchmark description, relative to the repository
	// root, which run.sh makes the working directory.
	specPath = "BENCHMARK.json"
)

func main() {
	var opt options
	workloadName := flag.String("workload", "", "run only this workload, in this process, and end with one JSON line")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&opt.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&opt.trace, "trace", 0, "1: traced run reporting the per-layer metrics (0: end-to-end metrics)")
	flag.StringVar(&opt.outDir, "out", "benchmark/out", "directory for the report, span files and scratch files")
	repeat := flag.Int("repeat", 1, "run this many sets; with 2, compare the second against the first")
	compare := flag.Bool("compare", false, "compare the two report files given as arguments")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareFiles(specPath, flag.Args(), os.Stdout)
	case *workloadName != "":
		err = runSingle(*workloadName, opt, os.Stdout)
	default:
		err = runAll(opt, *repeat, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// warmFor is the untimed warm-up before a measured window: 3 s, less for
// windows too short to afford it.
func warmFor(measure time.Duration) time.Duration {
	return min(3*time.Second, measure/4)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runSingle runs one workload in this process: human-readable lines
// first, the result object as the last line. A run whose outputs are
// wrong still reports (correct=false, failed>0) and exits non-zero.
func runSingle(name string, opt options, out io.Writer) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	fmt.Fprintf(out, "%s: load: %s\n", w.name, w.loop)
	var res *runOutput
	var err error
	if opt.trace != 0 {
		res, err = runTraced(w, opt, out)
	} else {
		res, err = runUntraced(w, opt, setupRuns, out)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// runUntraced measures the end-to-end metrics: stage tracer off, the
// workload set up `setups` times, one window of opt.seconds after the
// warm-up.
func runUntraced(w *workload, opt options, setups int, out io.Writer) (*runOutput, error) {
	measure := seconds(opt.seconds)
	res, err := runLive(w, liveConfig{seed: opt.seed, warm: warmFor(measure), measure: measure,
		setups: setups, outDir: opt.outDir})
	if err != nil {
		return nil, err
	}
	printChecks(out, w.name, res)
	values := map[string]float64{
		"setup_s":         res.setupS,
		"delivered_eps":   median(res.win.rates),
		"latency_p50_us":  res.lat.quantile(0.5),
		"latency_p99_us":  res.lat.quantile(0.99),
		"cpu_us_per_krec": perKrec(w.cpu(res.win), res.win.delivered),
		"peak_rss_mb":     res.win.peakRSS,
	}
	fmt.Fprintf(out, "%s: latency n=%d (p99.9 %.1f us), %d intervals over %.2f s, %d set-ups\n",
		w.name, res.lat.n, res.lat.quantile(0.999), len(res.win.rates), res.win.seconds, setups)
	fmt.Fprintf(out, "%s: CPU per 1000 records: user %.1f us + system %.1f us\n", w.name,
		perKrec(res.win.cpu, res.win.delivered), perKrec(res.win.cpuSys, res.win.delivered))
	// What the user sees and not every workload has; the traced run
	// reports them as per-layer metrics.
	for _, k := range []string{"ols.inversion_frac", "sensor.notice_ns", "subscribe.query_p50_us"} {
		if v, ok := res.layer[k]; ok && v != 0 {
			fmt.Fprintf(out, "%s: %s %.4f (per-layer: not every workload has it)\n", w.name, k, v)
		}
	}
	return output(out, w.name, res.attempted, res.failed, endToEnd, values)
}

// perKrec is CPU time in µs per thousand records delivered.
func perKrec(cpu time.Duration, delivered uint64) float64 {
	if delivered == 0 {
		return 0
	}
	return float64(cpu) / float64(time.Microsecond) / float64(delivered) * 1000
}

func printChecks(out io.Writer, name string, res *liveResult) {
	for _, c := range res.checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED: " + c.Detail
		}
		fmt.Fprintf(out, "%s: check %s: %s\n", name, c.Name, verdict)
	}
	fmt.Fprintf(out, "%s: attempted %d, delivered %d, failed %d, gen.input_sha %x\n",
		name, res.attempted, res.delivered, res.failed, res.inputSHA[:8])
}

// output prints every metric of defs by name with its unit and builds the
// run's result object. values must hold exactly the metrics of defs,
// except that a metric a workload does not exercise may be absent (0).
func output(out io.Writer, name string, attempted, failed uint64, defs []metricDef, values map[string]float64) (*runOutput, error) {
	res := &runOutput{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(out, "%s: %-36s %14.4f %s\n", name, d.name, values[d.name], d.unit)
	}
	for k := range values {
		if !known[k] {
			return nil, fmt.Errorf("%s: metric %q is reported but not declared", name, k)
		}
	}
	return res, nil
}
