package main

import (
	"encoding/json"
	"fmt"
	"os"

	"brisk"
)

// workloads is the benchmark's load shapes, in the order they run. The
// why-sentences are repeated in BENCHMARK.json; the smoke test keeps the
// two in step.
var workloads = []*workload{
	{
		name: "notice_paced",
		loop: "open, 50 k notices/s",
		why: "The paper's intrusion, latency and CPU experiments in one run: the only workload where sensor, " +
			"shm rings, exs batching, cre and picl do real work, so it shows the latency cost of a throughput trick.",
		setup:            setupNotice,
		userCPUOnly:      true,
		maxInversionFrac: 0.04,
		syncSim:          true,
		replay:           replaySpec{notices: true, shards: 1, picl: true},
	},
	{
		name: "ingest_flood",
		loop: "closed, 2 DATA sessions, 2 unacknowledged batches each",
		why: "Pre-encoded in-order batches make wire + decode + sink dominate and leave the sorter its cheapest case, " +
			"so a decode or sink change shows here and a sorter change should not.",
		setup: setupFlood(floodSpec{sessions: 2, shards: 1, window: 256,
			sorter: brisk.SorterOptions{InitialT: 100}}),
		replay: replaySpec{shards: 1, sorter: brisk.SorterOptions{InitialT: 100}, batchMicros: 100},
	},
	{
		name: "sort_disorder",
		loop: "closed, 2 RELAY_DATA sessions x 32 origins, 2 unacknowledged batches each",
		why: "64 sources with seeded base delay, jitter and stalls keep the 4-shard calendar sorter full (rate x T), " +
			"so ols does most of the work: where sorter parity and interval ordering must show.",
		// T adapts between its 1 ms start and a 10 ms cap around the
		// generated lateness (2 ms base + jitter + 5 ms stall). Uncapped,
		// scheduler delays on a saturated box feed back into T until the
		// flood is bound by T instead of by CPU, and throughput swings
		// by a third from run to run.
		setup: setupFlood(floodSpec{sessions: 2, relay: 32, shards: 4, window: 256, disorder: true,
			sorter: brisk.SorterOptions{HalfLife: 500_000, MaxT: 10_000}}),
		maxInversionFrac: 0.30,
		// One batch per 197 µs of virtual time is the 1.3 million records
		// a second the live flood reaches on the reference box, so the
		// replayed sorter holds what the live one holds.
		replay: replaySpec{relay: 32, disorder: true, shards: 4, batchMicros: 197,
			sorter: brisk.SorterOptions{HalfLife: 500_000, MaxT: 10_000}},
	},
	{
		name: "subscribe_tail",
		loop: "open, 100 k records/s",
		why: "Reads beside writes: an HTTP tail, a selective subscriber, 256 parked subscribers and a query ticker " +
			"behind the sink tap, which ingest_flood does not have, so tap or spool cost shows only here.",
		setup:  setupTail,
		replay: replaySpec{shards: 1, subscribe: true, batchMicros: tailPeriod.Microseconds()},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports
// every one of them from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"delivered_eps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_krec", "us/krec"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is what single layers report from a traced run: their own
// counters read after a live run, the busy times of the staged replay,
// and the clock-synchronization simulation. A metric a workload does not
// exercise is reported as 0.
var perLayer = []metricDef{
	// Live counters.
	{"exs.batches", "count"},
	{"exs.recs_per_batch", "count"},
	{"exs.credit_stalls", "count"},
	{"exs.ring_dropped", "count"},
	{"exs.retransmits", "count"},
	{"ism.batches", "count"},
	{"ism.acks", "count"},
	{"ism.ack_deferred", "count"},
	{"ism.deduped_batches", "count"},
	{"ism.loss_markers", "count"},
	{"ism.backlog_max_recs", "count"},
	{"ism.backlog_slope_rps", "1/s"},
	{"ols.inversions", "count"},
	{"ols.inversion_frac", "fraction"},
	{"ols.heap_fallbacks", "count"},
	{"ols.calendar_rebuilds", "count"},
	{"ols.timeframe_us", "us"},
	{"ols.grown_to_us", "us"},
	{"ols.dropped_full", "count"},
	{"ols.merge_stalls", "count"},
	{"cre.matched", "count"},
	{"cre.tachyons", "count"},
	{"cre.held_timed_out", "count"},
	{"subscribe.delivered", "count"},
	{"subscribe.dropped", "count"},
	{"subscribe.read_markers", "count"},
	{"subscribe.query_p50_us", "us"},
	{"sensor.notice_ns", "ns"},
	{"proc.loss_frac", "fraction"},
	{"proc.sys_us_per_krec", "us/krec"},
	{"proc.allocs_per_krec", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.trace_overhead_frac", "fraction"},
	{"gen.lag_p99_us", "us"},
	{"gen.offered_eps", "1/s"},
	{"gen.cpu_us_per_krec", "us/krec"},
	{"gen.input_sha32", "hash"},
	{"ism.stage_age_p50_us.ring_drain", "us"},
	{"ism.stage_age_p50_us.wire_send", "us"},
	{"ism.stage_age_p50_us.ism_ingest", "us"},
	{"ism.stage_age_p50_us.sorter_emit", "us"},
	{"ism.stage_age_p50_us.sink_deliver", "us"},
	// Staged replay.
	{"sensor.notice6i_ns", "ns"},
	{"sensor.notice_dyn_ns", "ns"},
	{"shm.ring_write_ns", "ns"},
	{"shm.ring_drain_ns_per_rec", "ns"},
	{"shm.buffer_publish_ns_per_rec", "ns"},
	{"record.encode_ns_per_rec", "ns"},
	{"record.decode_ns_per_rec", "ns"},
	{"record.allocs_per_krec", "count"},
	{"wire.send_ns_per_batch", "ns"},
	{"wire.recv_ns_per_batch", "ns"},
	{"wire.bytes_per_rec", "bytes"},
	{"ols.push_ns_per_rec", "ns"},
	{"ols.extract_ns_per_rec", "ns"},
	{"ols.max_buffered", "count"},
	{"cre.process_ns_per_rec", "ns"},
	{"picl.write_ns_per_rec", "ns"},
	{"subscribe.publish_ns_per_rec", "ns"},
	{"subscribe.next_ns_per_event", "ns"},
	{"subscribe.query_ns", "ns"},
	{"consumer.next_ns_per_rec", "ns"},
	{"sensor.share", "fraction"},
	{"shm.share", "fraction"},
	{"record.share", "fraction"},
	{"wire.share", "fraction"},
	{"ols.share", "fraction"},
	{"cre.share", "fraction"},
	{"picl.share", "fraction"},
	{"subscribe.share", "fraction"},
	{"consumer.share", "fraction"},
	// Clock-synchronization simulation (notice_paced's traced run).
	{"clocksync.rounds", "count"},
	{"clocksync.probe_rtts", "count"},
	{"clocksync.model_fallbacks", "count"},
	{"clocksync.skew_p95_us", "us"},
	{"clocksync.round_ns", "ns"},
}

// setupSlack is how much worse, in seconds, -compare lets setup_s be
// whatever its relative bound says: a set-up takes 1 to 10 ms, and two
// single runs differ by a millisecond for no reason in the code.
const setupSlack = 0.05

// layerGate bounds one per-layer metric, lower being better, on the one
// workload that exercises it. BENCHMARK.json has no place for such a
// bound, so the driver does not see these; -compare applies them when
// both reports hold traced runs. They are the user-visible numbers that
// cannot be end-to-end metrics because only one workload has them. The
// third, ols.inversion_frac, differs by a factor of five between two runs
// of sort_disorder and has a ceiling instead (workload.maxInversionFrac).
type layerGate struct {
	workload, metric string
	bound            float64 // share of the first value
	sameSeed         bool    // an exact count: compared only between runs of one seed
}

var layerGates = []layerGate{
	{workload: "notice_paced", metric: "sensor.notice_ns", bound: 0.10},
	{workload: "subscribe_tail", metric: "subscribe.query_p50_us", bound: 0.20},
	{workload: "notice_paced", metric: "clocksync.probe_rtts", sameSeed: true},
	{workload: "notice_paced", metric: "clocksync.skew_p95_us", sameSeed: true},
}

// benchmarkFile is BENCHMARK.json, as far as this program reads it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
