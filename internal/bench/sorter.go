package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"brisk/internal/ols"
	"brisk/internal/record"
)

// sorterBatch is how many records a pusher hands the sorter per call,
// the size of the wire batches the manager's decode workers push.
const sorterBatch = 256

// RunSorterStage measures the on-line sorter stage in isolation: `sources`
// parallel pushers feed batches of scanned, encoded-body records — what a
// decode worker holds after record.ScanAppend — into a sharded sorter
// through PushBatch while a single merger loop extracts the
// k-way-merged output, mirroring the manager's decode-workers/merger
// split without the wire and scan cost. This is the number that should
// scale with shard count on multi-core machines; the end-to-end ingest
// benchmark dilutes it with TCP and scan work. The core axis (calendar vs
// heap) isolates the per-shard data-structure cost on the same workload.
func RunSorterStage(core ols.CoreKind, shards, sources, perSource int) (IngestResult, error) {
	if shards <= 0 {
		shards = 1
	}
	if sources <= 0 {
		sources = 8
	}
	if perSource <= 0 {
		perSource = 100_000
	}
	total := sources * perSource

	// Fixed tiny T: every record is past its deadline the moment it
	// arrives, so the merger is always busy and the measurement is pure
	// sorter+merge throughput, not window latency.
	sh := ols.NewSharded(ols.Config{InitialT: 1, Grow: ols.GrowFixed, Core: core}, shards)
	batches := make([][]record.Record, sources)
	for i := range batches {
		proto := record.New(1,
			record.TSVal(0),
			record.I32Val(int32(i)), record.I32Val(2), record.I32Val(3),
			record.I32Val(4), record.I32Val(5), record.I32Val(6))
		var payload []byte
		for j := 0; j < sorterBatch; j++ {
			var err error
			if payload, err = proto.Append(payload); err != nil {
				return IngestResult{}, err
			}
		}
		var err error
		if batches[i], err = record.ScanAppend(nil, payload); err != nil {
			return IngestResult{}, err
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for src := int32(1); src <= int32(sources); src++ {
		wg.Add(1)
		go func(src int32) {
			defer wg.Done()
			for i := 0; i < perSource; i += sorterBatch {
				batch := batches[src-1][:min(sorterBatch, perSource-i)]
				// Interleaved globally-unique timestamps, already aged
				// far past T at push time. Only the header moves; the
				// sorter patches it into its copy of the bytes.
				var ts int64
				for j := range batch {
					ts = int64(i+j)*int64(sources) + int64(src)
					batch[j].SetTS(ts)
				}
				sh.PushBatch(src, batch, ts+1_000_000)
			}
		}(src)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	emitted := 0
	emit := func(record.Record) { emitted++ }
	horizon := int64(perSource)*int64(sources) + 2_000_000
loop:
	for {
		select {
		case <-done:
			sh.Flush(emit)
			break loop
		default:
			sh.Extract(horizon, emit)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if emitted != total {
		return IngestResult{}, fmt.Errorf("bench: sorter emitted %d of %d", emitted, total)
	}
	return IngestResult{
		Name:            fmt.Sprintf("sorter/%s/shards=%d", core, shards),
		Sessions:        sources,
		Shards:          shards,
		Core:            core.String(),
		Records:         total,
		ElapsedMicros:   elapsed.Microseconds(),
		RecordsPerSec:   float64(total) / elapsed.Seconds(),
		AllocsPerRecord: float64(ms1.Mallocs-ms0.Mallocs) / float64(total),
	}, nil
}

// RunSorterSuite runs the sorter-stage benchmark for each core at each
// shard count.
func RunSorterSuite(cores []ols.CoreKind, shardCounts []int, sources, perSource int) ([]IngestResult, error) {
	if len(cores) == 0 {
		cores = []ols.CoreKind{ols.CoreCalendar, ols.CoreHeap}
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	var out []IngestResult
	for _, core := range cores {
		for _, n := range shardCounts {
			r, err := RunSorterStage(core, n, sources, perSource)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// SorterTable renders the sorter-stage suite. Skipped configurations
// render their skip reason in place of numbers; WriteBenchFile drops
// them from the JSON entirely.
func SorterTable(rows []IngestResult) *Table {
	t := &Table{
		Title:  "sorter: shard→merge stage throughput vs core and shard count",
		Header: []string{"core", "shards", "sources", "records", "elapsed", "records/s", "allocs/record"},
	}
	for _, r := range rows {
		if r.Skipped != "" {
			t.Add(r.Core, r.Shards, "-", "-", "-", "SKIP: "+r.Skipped, "-")
			continue
		}
		t.Add(r.Core, r.Shards, r.Sessions, r.Records,
			(time.Duration(r.ElapsedMicros) * time.Microsecond).Round(time.Millisecond),
			r.RecordsPerSec, r.AllocsPerRecord)
	}
	return t
}

// StageRatio compares two benchmark rows' throughputs: Ratio is the
// numerator row's records/s over the denominator row's.
type StageRatio struct {
	Name        string  `json:"name"`
	Numerator   string  `json:"numerator"`
	Denominator string  `json:"denominator"`
	Ratio       float64 `json:"ratio"`
}

// SorterIngestRatios prices every sorter-stage row against the ingest
// stage: its throughput over that of the fastest ingest row. ROADMAP's
// sorter-parity item asks for this to reach 1 on the whole core × shard
// matrix; until it gates, the rows are reported beside the numbers they
// derive from.
func SorterIngestRatios(ingest, sorter []IngestResult) []StageRatio {
	var best IngestResult
	for _, r := range ingest {
		if r.Skipped == "" && r.RecordsPerSec > best.RecordsPerSec {
			best = r
		}
	}
	var out []StageRatio
	for _, r := range sorter {
		if r.Skipped != "" || best.RecordsPerSec == 0 {
			continue
		}
		out = append(out, StageRatio{
			Name:        "sorter-over-ingest/" + r.Core + fmt.Sprintf("/shards=%d", r.Shards),
			Numerator:   r.Name,
			Denominator: best.Name,
			Ratio:       r.RecordsPerSec / best.RecordsPerSec,
		})
	}
	return out
}

// RatioTable renders stage ratios.
func RatioTable(rows []StageRatio) *Table {
	t := &Table{
		Title:  "sorter stage ÷ ingest stage (not gating; parity is 1.00)",
		Header: []string{"ratio", "sorter row", "ingest row", "sorter/ingest"},
	}
	for _, r := range rows {
		t.Add(r.Name, r.Numerator, r.Denominator, r.Ratio)
	}
	return t
}
