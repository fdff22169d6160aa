// Command briskbench regenerates the measurements of the paper's
// evaluation (Section 4). Each subcommand corresponds to one experiment;
// "all" runs the complete suite and prints one table per experiment.
//
// Usage:
//
//	briskbench all
//	briskbench notice [-iters 2000000]
//	briskbench exsutil [-dur 2s]
//	briskbench throughput [-events 500000]
//	briskbench latency [-events 200]
//	briskbench scale [-nodes 8] [-events 100000]
//	briskbench clocksync [-seed 1]
//	briskbench ols [-seed 1]
//	briskbench sync [-seed 1] [-assert-reduction 5]
//	briskbench matrix [-scenarios scenarios] [-filter smoke] [-out BENCH_scenarios.json]
//	briskbench intrusion [-iters 2000000]
//
// Absolute numbers depend on the host; the paper's qualitative shape —
// who wins, roughly by what factor, where the knees are — is what the
// suite reproduces (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"brisk/internal/bench"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "notice":
		err = runNotice(args)
	case "exsutil":
		err = runEXSUtil(args)
	case "throughput":
		err = runThroughput(args)
	case "latency":
		err = runLatency(args)
	case "scale":
		err = runScale(args)
	case "clocksync":
		err = runClockSync(args)
	case "ols":
		err = runOLS(args)
	case "sync":
		err = runSyncEfficiency(args)
	case "matrix":
		err = runMatrix(args)
	case "intrusion":
		err = runIntrusion(args)
	case "all":
		err = runAll(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "briskbench %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: briskbench <experiment> [flags]

experiments:
  notice      E1: per-notice CPU cost
  exsutil     E2: external-sensor CPU share at fixed rates
  throughput  E3: max EXS→ISM event throughput
  latency     E4: end-to-end latency vs batching knobs
  scale       E5: aggregate throughput vs node count
  clocksync   E6: clock-synchronization quality and convergence
  ols         E7: on-line sorting parameter sweep
  sync        probe efficiency: fixed-cadence vs model-based clock sync (CI sync-gate)
  matrix      scenario matrix: workload × topology × clock × fault cells with contract checks
  intrusion   ablation: instrumentation overhead on a computation
  all         every experiment in sequence`)
}

func runNotice(args []string) error {
	fs := flag.NewFlagSet("notice", flag.ExitOnError)
	iters := fs.Int("iters", 2_000_000, "iterations per variant")
	fs.Parse(args)
	bench.RunNoticeCost(*iters).Table().Render(os.Stdout)
	return nil
}

func runEXSUtil(args []string) error {
	fs := flag.NewFlagSet("exsutil", flag.ExitOnError)
	dur := fs.Duration("dur", 2*time.Second, "measurement duration per rate")
	fs.Parse(args)
	rows, err := bench.RunEXSUtil(nil, *dur)
	if err != nil {
		return err
	}
	bench.UtilTable(rows).Render(os.Stdout)
	return nil
}

func runThroughput(args []string) error {
	fs := flag.NewFlagSet("throughput", flag.ExitOnError)
	events := fs.Int("events", 500_000, "events to push")
	sweep := fs.Bool("batches", false, "also sweep the batch-size knob")
	fs.Parse(args)
	res, err := bench.RunThroughput(*events)
	if err != nil {
		return err
	}
	res.Table().Render(os.Stdout)
	if *sweep {
		fmt.Println()
		rows, err := bench.RunBatchAblation(*events / 2)
		if err != nil {
			return err
		}
		bench.BatchTable(rows).Render(os.Stdout)
	}
	return nil
}

func runLatency(args []string) error {
	fs := flag.NewFlagSet("latency", flag.ExitOnError)
	events := fs.Int("events", 200, "events per knob setting")
	fs.Parse(args)
	rows, err := bench.RunLatency(*events)
	if err != nil {
		return err
	}
	bench.LatencyTable(rows).Render(os.Stdout)
	return nil
}

func runScale(args []string) error {
	fs := flag.NewFlagSet("scale", flag.ExitOnError)
	nodes := fs.Int("nodes", 8, "maximum node count")
	events := fs.Int("events", 100_000, "events per node")
	fs.Parse(args)
	rows, err := bench.RunScale(*nodes, *events)
	if err != nil {
		return err
	}
	bench.ScaleTable(rows).Render(os.Stdout)
	return nil
}

func runClockSync(args []string) error {
	fs := flag.NewFlagSet("clocksync", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "simulation seed")
	series := fs.Bool("series", false, "also print the per-round skew series")
	ablation := fs.Bool("ablation", false, "also run the probe-filter ablation")
	fs.Parse(args)
	var results []bench.SyncResult
	for _, sc := range bench.DefaultSyncScenarios(*seed) {
		results = append(results, bench.RunSync(sc))
	}
	bench.SyncTable(results).Render(os.Stdout)
	if *ablation {
		fmt.Println()
		var ab []bench.SyncResult
		for _, sc := range bench.FilterAblationScenarios(*seed) {
			ab = append(ab, bench.RunSync(sc))
		}
		t := bench.SyncTable(ab)
		t.Title = "E6 ablation: probe-sample reduction under the disturbed LAN"
		t.Render(os.Stdout)
	}
	if *series {
		for _, r := range results {
			fmt.Printf("\n# %s: max mutual skew per round (µs)\n", r.Scenario.Name)
			for i, s := range r.Series {
				fmt.Printf("%d %d\n", i+1, s)
			}
		}
	}
	return nil
}

func runIntrusion(args []string) error {
	fs := flag.NewFlagSet("intrusion", flag.ExitOnError)
	iters := fs.Int("iters", 2_000_000, "work iterations per density")
	fs.Parse(args)
	rows, err := bench.RunIntrusion(*iters)
	if err != nil {
		return err
	}
	bench.IntrusionTable(rows).Render(os.Stdout)
	return nil
}

// runSyncEfficiency compares fixed-cadence against model-based probe
// scheduling on identical simulated clusters and, when -assert-reduction
// is set, fails unless the model matches fixed-cadence steady-state skew
// at the required probe-RTT reduction. This is the CI sync-gate. The
// assertion is skipped below 4 CPUs, on boxes too small to run the
// gate's companion -race property test meaningfully, so a laptop
// `make check` and CI behave the same.
func runSyncEfficiency(args []string) error {
	fs := flag.NewFlagSet("sync", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "simulation seed")
	assert := fs.Float64("assert-reduction", 0,
		"fail unless model-based sync reduces probe RTTs by at least this factor at equal-or-better steady skew (0 = report only)")
	fs.Parse(args)
	results := bench.RunSyncEfficiency(bench.SyncEfficiencyScenarios(*seed))
	bench.SyncEfficiencyTable(results).Render(os.Stdout)
	if *assert <= 0 {
		return nil
	}
	if procs := runtime.GOMAXPROCS(0); procs < 4 {
		fmt.Printf("sync: SKIP probe-reduction gate (GOMAXPROCS=%d < 4)\n", procs)
		return nil
	}
	var bad []string
	for _, r := range results {
		if r.Reduction < *assert {
			bad = append(bad, fmt.Sprintf("%s: probe reduction %.1fx < %.1fx", r.Name, r.Reduction, *assert))
		}
		if r.Model.SteadyMaxMicros > r.Fixed.SteadyMaxMicros {
			bad = append(bad, fmt.Sprintf("%s: model steady max %.0f µs worse than fixed %.0f µs",
				r.Name, r.Model.SteadyMaxMicros, r.Fixed.SteadyMaxMicros))
		}
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintf(os.Stderr, "sync: FAIL %s\n", b)
		}
		return fmt.Errorf("%d sync-gate failure(s)", len(bad))
	}
	fmt.Printf("sync: PASS probe reduction >= %.1fx at equal-or-better steady skew\n", *assert)
	return nil
}

func runOLS(args []string) error {
	fs := flag.NewFlagSet("ols", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "stream seed")
	fs.Parse(args)
	var results []bench.OLSResult
	for _, sc := range bench.DefaultOLSScenarios(*seed) {
		results = append(results, bench.RunOLS(sc))
	}
	bench.OLSTable(results).Render(os.Stdout)
	return nil
}

func runAll(args []string) error {
	fmt.Println("BRISK evaluation suite (paper Section 4)")
	fmt.Println()
	if err := runNotice(nil); err != nil {
		return err
	}
	fmt.Println()
	if err := runEXSUtil(nil); err != nil {
		return err
	}
	fmt.Println()
	if err := runThroughput(nil); err != nil {
		return err
	}
	fmt.Println()
	if err := runLatency(nil); err != nil {
		return err
	}
	fmt.Println()
	if err := runScale(nil); err != nil {
		return err
	}
	fmt.Println()
	if err := runClockSync(nil); err != nil {
		return err
	}
	fmt.Println()
	if err := runOLS(nil); err != nil {
		return err
	}
	fmt.Println()
	return runIntrusion(nil)
}
