package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// IngestResult is one configuration of the manager-side ingest benchmark:
// N synthetic sessions flood the manager with pre-encoded record batches
// over TCP, and the decode → merge → sort → sink path is measured end to
// end at the manager. The clients reuse one pre-encoded payload, so the
// manager is the bottleneck and the number reported is the ISM's ingest
// capacity, not the sensors'.
type IngestResult struct {
	Name            string  `json:"name"`
	Sessions        int     `json:"sessions"`
	Shards          int     `json:"shards,omitempty"`
	Core            string  `json:"core,omitempty"`
	Records         int     `json:"records"`
	ElapsedMicros   int64   `json:"elapsed_micros"`
	RecordsPerSec   float64 `json:"records_per_sec"`
	MBPerSec        float64 `json:"mb_per_sec"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
	// Skipped, when non-empty, says why this configuration was not run
	// on this box (e.g. a shard-scaling number that would be misleading
	// without enough CPUs). Skipped rows carry no numbers and are
	// excluded from baseline comparison.
	Skipped string `json:"skipped,omitempty"`
}

// BenchEnv records the machine a bench file was produced on, so numbers
// from incomparable boxes are never compared silently.
type BenchEnv struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

// BenchFile is the JSON layout of BENCH_baseline.json (the committed
// reference numbers) and BENCH_current.json (the bench-check gate's
// per-run output, compared against the baseline and never committed).
type BenchFile struct {
	Schema int `json:"schema"`
	// Env is the producing machine; absent in files written before it
	// was recorded.
	Env     *BenchEnv      `json:"env,omitempty"`
	Results []IngestResult `json:"results"`
	// Ratios are derived, non-gating comparisons between result rows
	// (see SorterIngestRatios); absent from the committed baseline.
	Ratios []StageRatio `json:"ratios,omitempty"`
}

// BenchSchema versions the BenchFile layout.
const BenchSchema = 1

// RunIngest floods a manager with pre-encoded record batches from
// `sessions` synthetic sensors and reports the sustained delivery rate at
// the sinks, plus the whole-process allocation cost per record.
func RunIngest(sessions, perSession, batchRecords int) (IngestResult, error) {
	if sessions <= 0 {
		sessions = 1
	}
	m, err := floodSink(nil)
	if err != nil {
		return IngestResult{}, err
	}
	defer m.Close()
	return newFlood(perSession, batchRecords).run(
		fmt.Sprintf("ingest/sessions=%d", sessions), sessions, sessions, m.Addr(), m)
}

// RunIngestSuite runs the ingest benchmark at each session count.
func RunIngestSuite(sessionCounts []int, perSession, batchRecords int) ([]IngestResult, error) {
	if len(sessionCounts) == 0 {
		sessionCounts = []int{1, 8}
	}
	var out []IngestResult
	for _, n := range sessionCounts {
		r, err := RunIngest(n, perSession, batchRecords)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// IngestTable renders the suite.
func IngestTable(rows []IngestResult) *Table {
	return floodTable("ingest: manager decode→merge→sink capacity vs session count", "sessions", rows)
}

// WriteBenchFile writes the suite results as a bench-check reference
// file, stamped with the producing machine's CPU budget. Skipped rows
// are omitted from the file entirely — they carry no numbers, and a
// `records: 0` row in the JSON invites downstream tooling to divide by
// zero; the skip reason still appears on the rendered table and in the
// gate's log.
func WriteBenchFile(path string, results []IngestResult, ratios []StageRatio) error {
	kept := make([]IngestResult, 0, len(results))
	for _, r := range results {
		if r.Skipped == "" {
			kept = append(kept, r)
		}
	}
	f := BenchFile{
		Schema:  BenchSchema,
		Env:     &BenchEnv{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()},
		Results: kept,
		Ratios:  ratios,
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadBenchFile loads a bench-check reference file.
func ReadBenchFile(path string) (BenchFile, error) {
	var f BenchFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != BenchSchema {
		return f, fmt.Errorf("%s: schema %d, want %d", path, f.Schema, BenchSchema)
	}
	return f, nil
}

// CompareBench checks the current results against a baseline: every
// baseline configuration must be present, within maxLoss fractional
// throughput regression, and within allocSlack extra allocations per
// record (absolute; the exact zero-allocation floor is asserted separately
// by the AllocsPerRun tests, this guards the whole-process number against
// reintroduced hot-path allocations while tolerating GC/runtime noise).
// It returns a description of each violation, empty when the gate passes.
func CompareBench(baseline, current []IngestResult, maxLoss, allocSlack float64) []string {
	cur := make(map[string]IngestResult, len(current))
	for _, r := range current {
		cur[r.Name] = r
	}
	var bad []string
	for _, b := range baseline {
		if b.Skipped != "" {
			continue
		}
		c, ok := cur[b.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: missing from current run", b.Name))
			continue
		}
		// A configuration this box cannot run honestly is announced, not
		// compared: a SKIP row beats a misleading number.
		if c.Skipped != "" {
			continue
		}
		if c.RecordsPerSec < b.RecordsPerSec*(1-maxLoss) {
			bad = append(bad, fmt.Sprintf("%s: throughput %.0f rec/s is %.1f%% below baseline %.0f",
				b.Name, c.RecordsPerSec, 100*(1-c.RecordsPerSec/b.RecordsPerSec), b.RecordsPerSec))
		}
		if c.AllocsPerRecord > b.AllocsPerRecord+allocSlack {
			bad = append(bad, fmt.Sprintf("%s: %.2f allocs/record exceeds baseline %.2f (+%.2f slack)",
				b.Name, c.AllocsPerRecord, b.AllocsPerRecord, allocSlack))
		}
	}
	return bad
}
