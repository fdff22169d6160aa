package main

import (
	"io"
	"regexp"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, with 0.3 s windows
// and checks that what the program emits is what BENCHMARK.json declares:
// the same workloads with the same why-sentences, the same end-to-end and
// per-layer metric names and units, every name well-formed, and the
// counts inside the benchmark contract's limits. It asserts no timing.
func TestSmoke(t *testing.T) {
	spec, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := func(kind string, names, units []string) map[string]string {
		m := make(map[string]string)
		for i, n := range names {
			if !name.MatchString(n) {
				t.Errorf("%s metric name %q is malformed", kind, n)
			}
			if _, dup := m[n]; dup {
				t.Errorf("%s metric %q is declared twice", kind, n)
			}
			m[n] = units[i]
		}
		return m
	}
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	wantE2E := declared("end-to-end", names, units)
	names, units = nil, nil
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	wantLayer := declared("per-layer", names, units)

	opt := options{seed: 1, seconds: 0.3, outDir: t.TempDir()}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !name.MatchString(w.name) {
			t.Errorf("workload name %q is malformed", w.name)
		}
		for _, traced := range []bool{false, true} {
			want := wantE2E
			var res *runOutput
			var err error
			if traced {
				want = wantLayer
				res, err = runTraced(w, opt, io.Discard)
			} else {
				res, err = runUntraced(w, opt, 1, io.Discard)
			}
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d operations failed",
					w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for n, m := range res.Metrics {
				if unit, ok := want[n]; !ok {
					t.Errorf("%s emits %q, which BENCHMARK.json does not declare", w.name, n)
				} else if unit != m.Unit {
					t.Errorf("%s emits %q in %q, BENCHMARK.json says %q", w.name, n, m.Unit, unit)
				}
			}
			for n := range want {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("%s does not emit %q, which BENCHMARK.json declares", w.name, n)
				}
			}
		}
	}
}
