package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// report is one set of runs: every workload once, untraced and — when
// asked for — traced.
type report struct {
	Env       environment                  `json:"env"`
	Seed      uint64                       `json:"seed"`
	Seconds   float64                      `json:"seconds"`
	Workloads map[string]*workloadOutcomes `json:"workloads"`
}

// workloadOutcomes holds a workload's two result objects.
type workloadOutcomes struct {
	EndToEnd *runOutput `json:"end_to_end"`
	PerLayer *runOutput `json:"per_layer,omitempty"`
}

// runAll runs `repeat` sets. Each workload of a set runs in a fresh
// child process, so heap state and the resident-set high-water mark do
// not leak from one workload into the next. Every set is written to
// <out>/report-<n>.json; with two sets the second is compared against the
// first.
func runAll(opt options, repeat int, out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	var paths []string
	incorrect := 0
	for set := 1; set <= repeat; set++ {
		rep := &report{Env: currentEnvironment(), Seed: opt.seed, Seconds: opt.seconds,
			Workloads: make(map[string]*workloadOutcomes)}
		fmt.Fprintf(out, "set %d: seed %d, %g s per run, nproc %d, GOMAXPROCS %d, %s, commit %s\n", set, opt.seed,
			opt.seconds, rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Commit)
		for _, w := range workloads {
			oc := &workloadOutcomes{}
			if oc.EndToEnd, err = runChild(self, w.name, opt, 0, out); err != nil {
				return err
			}
			if opt.trace != 0 {
				if oc.PerLayer, err = runChild(self, w.name, opt, 1, out); err != nil {
					return err
				}
			}
			if !oc.EndToEnd.Correct || oc.PerLayer != nil && !oc.PerLayer.Correct {
				incorrect++
			}
			rep.Workloads[w.name] = oc
		}
		path := filepath.Join(opt.outDir, fmt.Sprintf("report-%d.json", set))
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "set %d: report written to %s\n", set, path)
		paths = append(paths, path)
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workload runs failed their correctness checks", incorrect)
	}
	if repeat == 2 {
		return compareFiles(specPath, paths, out)
	}
	return nil
}

// runChild runs one workload in a child process, passes its readable
// lines through, and parses the result object that ends them. A child
// that reports failed operations is not an error here; one that reports
// nothing is.
func runChild(self, name string, opt options, trace int, out io.Writer) (*runOutput, error) {
	cmd := exec.Command(self,
		"-workload", name,
		"-seed", strconv.FormatUint(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-out", opt.outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimRight(stdout.Bytes(), "\n"), []byte("\n"))
	last := lines[len(lines)-1]
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintf(out, "%s\n", l)
	}
	var res runOutput
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s (trace %d): no result (%v): %s", name, trace, runErr, last)
	}
	return &res, nil
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload and end-to-end metric, both values,
// how much worse the second is than the first, and the bound from the
// benchmark description; then the same for the gated per-layer metrics
// (layerGates) where both reports hold a traced run. It fails when any
// second value is worse than the first by more than its bound; a second
// value that is better is never outside.
func compareFiles(specPath string, paths []string, out io.Writer) error {
	if len(paths) != 2 {
		return fmt.Errorf("compare needs two report files, got %d", len(paths))
	}
	spec, err := readBenchmarkFile(specPath)
	if err != nil {
		return err
	}
	a, err := readReport(paths[0])
	if err != nil {
		return err
	}
	b, err := readReport(paths[1])
	if err != nil {
		return err
	}
	if a.Env != b.Env || a.Seconds != b.Seconds {
		fmt.Fprintf(out, "WARNING: the sets are not like for like:\n  %s: %+v, %g s\n  %s: %+v, %g s\n",
			paths[0], a.Env, a.Seconds, paths[1], b.Env, b.Seconds)
	}
	fmt.Fprintf(out, "%-15s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	outside := 0
	// row prints one pair; slack is how much worse, in the metric's own
	// unit, the second value may be whatever the bound says.
	row := func(workload, metric string, va, vb float64, higherIsBetter bool, bound, slack float64) {
		worse := vb - va
		if higherIsBetter {
			worse = -worse
		}
		verdict := ""
		if worse > max(bound*va, slack) {
			verdict = "  OUTSIDE"
			outside++
		}
		fmt.Fprintf(out, "%-15s %-24s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
			workload, metric, va, vb, 100*worse/va, 100*bound, verdict)
	}
	for _, w := range spec.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from a report", w.Name)
		}
		for _, m := range spec.EndToEnd {
			slack := 0.0
			if m.Name == "setup_s" {
				slack = setupSlack
			}
			row(w.Name, m.Name, wa.EndToEnd.Metrics[m.Name].Value, wb.EndToEnd.Metrics[m.Name].Value,
				m.Better == "higher", m.Bound, slack)
		}
		if wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for _, g := range layerGates {
			if g.workload != w.Name || g.sameSeed && a.Seed != b.Seed {
				continue
			}
			row(w.Name, g.metric, wa.PerLayer.Metrics[g.metric].Value, wb.PerLayer.Metrics[g.metric].Value,
				false, g.bound, 0)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d of the pairs are worse by more than their bound", outside)
	}
	return nil
}
