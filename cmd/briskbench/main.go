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
//	briskbench ingest [-sessions 1,8] [-records 150000] [-batch 256] [-json FILE]
//	briskbench sorter [-cores calendar,heap] [-shards 1,2,4,8] [-sources 8] [-records 100000]
//	briskbench subscribe [-subs 0,64,1024] [-records 150000] [-batch 256]
//	briskbench sync [-seed 1] [-assert-reduction 5]
//	briskbench benchgate -baseline BENCH_baseline.json [-out BENCH_current.json]
//	briskbench matrix [-scenarios scenarios] [-filter smoke] [-out BENCH_scenarios.json]
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
	"strconv"
	"strings"
	"time"

	"brisk/internal/bench"
	"brisk/internal/ols"
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
	case "ingest":
		err = runIngest(args)
	case "sorter":
		err = runSorter(args)
	case "subscribe":
		err = runSubscribe(args)
	case "sync":
		err = runSyncEfficiency(args)
	case "benchgate":
		err = runBenchGate(args)
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
  ingest      manager ingest capacity vs session count (bench-check suite)
  sorter      sorter-stage throughput vs core (calendar/heap) and shard count
  subscribe   ingest capacity with the subscription tap at each idle-subscriber count
  sync        probe efficiency: fixed-cadence vs model-based clock sync (CI sync-gate)
  benchgate   run the ingest suite and fail on regression vs a baseline file
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

// parseSessionCounts turns "1,8" into []int{1, 8}.
func parseSessionCounts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad session count %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no session counts in %q", s)
	}
	return out, nil
}

func runIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	sessions := fs.String("sessions", "1,8", "comma-separated session counts")
	records := fs.Int("records", 150_000, "records per session")
	batch := fs.Int("batch", 256, "records per data batch")
	jsonPath := fs.String("json", "", "also write results as a bench-check reference file")
	fs.Parse(args)
	counts, err := parseSessionCounts(*sessions)
	if err != nil {
		return err
	}
	rows, err := bench.RunIngestSuite(counts, *records, *batch)
	if err != nil {
		return err
	}
	bench.IngestTable(rows).Render(os.Stdout)
	if *jsonPath != "" {
		return bench.WriteBenchFile(*jsonPath, rows, nil)
	}
	return nil
}

// parseCores turns "calendar,heap" into sorter core kinds.
func parseCores(s string) ([]ols.CoreKind, error) {
	var out []ols.CoreKind
	for _, f := range strings.Split(s, ",") {
		switch strings.TrimSpace(f) {
		case "":
		case "calendar":
			out = append(out, ols.CoreCalendar)
		case "heap":
			out = append(out, ols.CoreHeap)
		default:
			return nil, fmt.Errorf("bad sorter core %q (want calendar or heap)", f)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sorter cores in %q", s)
	}
	return out, nil
}

func runSorter(args []string) error {
	fs := flag.NewFlagSet("sorter", flag.ExitOnError)
	cores := fs.String("cores", "calendar,heap", "comma-separated sorter cores (calendar, heap)")
	shards := fs.String("shards", "1,2,4,8", "comma-separated shard counts")
	sources := fs.Int("sources", 8, "parallel pushing sources")
	records := fs.Int("records", 100_000, "records per source")
	fs.Parse(args)
	kinds, err := parseCores(*cores)
	if err != nil {
		return err
	}
	counts, err := parseSessionCounts(*shards)
	if err != nil {
		return err
	}
	rows, err := bench.RunSorterSuite(kinds, counts, *sources, *records)
	if err != nil {
		return err
	}
	bench.SorterTable(rows).Render(os.Stdout)
	return nil
}

func runSubscribe(args []string) error {
	fs := flag.NewFlagSet("subscribe", flag.ExitOnError)
	subs := fs.String("subs", "0,64,1024", "comma-separated idle subscriber counts")
	records := fs.Int("records", 150_000, "records pushed through the tapped manager")
	batch := fs.Int("batch", 256, "records per data batch")
	fs.Parse(args)
	var counts []int
	for _, f := range strings.Split(*subs, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 {
			return fmt.Errorf("bad subscriber count %q", f)
		}
		counts = append(counts, n)
	}
	rows, err := bench.RunSubscribeSuite(counts, *records, *batch)
	if err != nil {
		return err
	}
	bench.SubscribeTable(rows).Render(os.Stdout)
	return nil
}

// runSyncEfficiency compares fixed-cadence against model-based probe
// scheduling on identical simulated clusters and, when -assert-reduction
// is set, fails unless the model matches fixed-cadence steady-state skew
// at the required probe-RTT reduction. This is the CI sync-gate. Like
// the sorter-stage gates, the assertion is skipped on boxes too small to
// run the gate's companion -race property test meaningfully, so a laptop
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

func runBenchGate(args []string) error {
	fs := flag.NewFlagSet("benchgate", flag.ExitOnError)
	baseline := fs.String("baseline", "BENCH_baseline.json", "committed reference file")
	out := fs.String("out", "BENCH_current.json", "where to write this run's results")
	records := fs.Int("records", 150_000, "records per session")
	batch := fs.Int("batch", 256, "records per data batch")
	sorterRecords := fs.Int("sorter-records", 100_000, "records per source in the sorter-stage sweep")
	shardRatio := fs.Float64("shardratio", 1.5, "required sorter-stage speedup of 4 shards over 1 (skipped below 4 CPUs)")
	coreRatio := fs.Float64("coreratio", 1.3, "required single-shard speedup of the calendar core over the heap core (skipped below 4 CPUs)")
	maxLoss := fs.Float64("maxloss", 0.15, "tolerated fractional throughput regression")
	allocSlack := fs.Float64("allocslack", 0.25, "tolerated extra allocations per record")
	fs.Parse(args)
	base, err := bench.ReadBenchFile(*baseline)
	if err != nil {
		return err
	}
	counts := make([]int, 0, len(base.Results))
	for _, r := range base.Results {
		counts = append(counts, r.Sessions)
	}
	rows, err := bench.RunIngestSuite(counts, *records, *batch)
	if err != nil {
		return err
	}
	bench.IngestTable(rows).Render(os.Stdout)
	fmt.Println()
	// The sorter-stage matrix runs both cores (calendar and heap) at 1 and
	// 4 shards. The 4-shard configurations need real parallelism to mean
	// anything: on fewer than 4 CPUs they run 4× SLOWER than one shard, a
	// number that would poison any cross-box comparison. Below 4 CPUs they
	// are not run at all — the rendered table carries explicit SKIP rows,
	// and WriteBenchFile omits those rows from the JSON body entirely so
	// downstream tooling never sees a `records: 0` configuration.
	procs := runtime.GOMAXPROCS(0)
	benchCores := []ols.CoreKind{ols.CoreCalendar, ols.CoreHeap}
	shardCounts := []int{1, 4}
	if procs < 4 {
		shardCounts = []int{1}
	}
	srows, err := bench.RunSorterSuite(benchCores, shardCounts, 8, *sorterRecords)
	if err != nil {
		return err
	}
	if procs < 4 {
		for _, core := range benchCores {
			srows = append(srows, bench.IngestResult{
				Name:    fmt.Sprintf("sorter/%s/shards=4", core),
				Shards:  4,
				Core:    core.String(),
				Skipped: fmt.Sprintf("GOMAXPROCS=%d < 4: shard scaling not measurable on this box", procs),
			})
		}
	}
	bench.SorterTable(srows).Render(os.Stdout)
	ratios := bench.SorterIngestRatios(rows, srows)
	fmt.Println()
	bench.RatioTable(ratios).Render(os.Stdout)
	// The relay-hop row prices federated delivery (leaf→relay→root) at
	// the largest baseline session count. It is informational this round:
	// CompareBench only gates rows named in the baseline, so the row
	// lands in the output file without failing anyone's gate until a
	// baseline number is committed for it.
	relaySessions := 1
	for _, n := range counts {
		if n > relaySessions {
			relaySessions = n
		}
	}
	rrow, err := bench.RunRelayIngest(relaySessions, *records, *batch)
	if err != nil {
		return err
	}
	fmt.Println()
	bench.RelayTable([]bench.IngestResult{rrow}).Render(os.Stdout)
	if *out != "" {
		all := append(append([]bench.IngestResult{}, rows...), srows...)
		all = append(all, rrow)
		if err := bench.WriteBenchFile(*out, all, ratios); err != nil {
			return err
		}
	}
	bad := bench.CompareBench(base.Results, rows, *maxLoss, *allocSlack)
	// The sorter-stage gates are likewise only enforced where the hardware
	// can express them: shard scaling on the calendar (production) core,
	// and the calendar-over-heap single-shard speedup.
	byName := make(map[string]bench.IngestResult, len(srows))
	for _, r := range srows {
		byName[r.Name] = r
	}
	if procs >= 4 {
		c1 := byName["sorter/calendar/shards=1"]
		c4 := byName["sorter/calendar/shards=4"]
		h1 := byName["sorter/heap/shards=1"]
		if ratio := c4.RecordsPerSec / c1.RecordsPerSec; ratio < *shardRatio {
			bad = append(bad, fmt.Sprintf("sorter/calendar/shards=4: ×%.2f over one shard, need ×%.2f", ratio, *shardRatio))
		} else {
			fmt.Printf("benchgate: sorter-stage scaling ×%.2f at 4 shards (need ×%.2f)\n", ratio, *shardRatio)
		}
		if ratio := c1.RecordsPerSec / h1.RecordsPerSec; ratio < *coreRatio {
			bad = append(bad, fmt.Sprintf("sorter/calendar/shards=1: ×%.2f over the heap core, need ×%.2f", ratio, *coreRatio))
		} else {
			fmt.Printf("benchgate: calendar core ×%.2f over heap single-shard (need ×%.2f)\n", ratio, *coreRatio)
		}
	} else {
		fmt.Printf("benchgate: SKIP sorter shard-scaling and core-speedup gates (GOMAXPROCS=%d < 4)\n", procs)
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s\n", b)
		}
		return fmt.Errorf("%d regression(s) vs %s", len(bad), *baseline)
	}
	fmt.Printf("benchgate: PASS vs %s\n", *baseline)
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
