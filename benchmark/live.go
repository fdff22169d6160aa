package main

import (
	"fmt"
	"sync"
	"time"

	"brisk"
)

// liveConfig is what one live run of a workload is given.
type liveConfig struct {
	seed          uint64
	warm, measure time.Duration
	// setups is how many times the workload is set up (all but the first
	// are torn down again at once); the median set-up time is reported.
	setups int
	// stageTrace turns the pipeline's own stage tracer on (it is off for
	// every end-to-end number).
	stageTrace bool
	// outDir holds files a workload writes (the PICL trace).
	outDir string
}

func (c liveConfig) traceSampleEvery() int {
	if c.stageTrace {
		return 0 // the library default, every 64th record
	}
	return -1
}

// liveResult is what one live run yields: the end-to-end numbers, the
// outcome of every correctness check, and the layers' own counters.
type liveResult struct {
	setupS float64
	win    window

	lat *hist // µs, every latency sample of the measured window

	attempted, delivered, failed uint64
	inversions                   uint64 // records stamped below the running maximum, inside the window
	checks                       []check
	layer                        map[string]float64
	inputSHA                     [32]byte
}

// rig is one set-up instance of a workload: the pipeline is up, every
// consumer is attached, and the first record has been delivered.
type rig interface {
	// start begins offering load.
	start()
	meter() *meter
	// backlog is the manager's Received − Emitted right now.
	backlog() int64
	// finish stops the load, drains and closes the pipeline, runs the
	// correctness checks and reads every layer's counters. On a rig that
	// was never started it only tears down.
	finish() (*liveResult, error)
}

// workload is one named load shape.
type workload struct {
	name  string
	loop  string // "open" or "closed", with its rate or client count
	why   string
	setup func(cfg liveConfig) (rig, error)
	// userCPUOnly leaves system time out of the workload's
	// cpu_us_per_krec (see cpu).
	userCPUOnly bool
	// maxInversionFrac is the ordering the workload's consumer must see:
	// the run fails when a larger share of the measured window's records
	// arrives stamped below the running maximum. It is twice the largest
	// share seen in any window on the reference box (1.8 % on
	// notice_paced; 18 % on sort_disorder, where it says how often the
	// saturated box delayed a batch by more than the time frame's cap),
	// and 0 where the input is in order. The share itself is the
	// per-layer ols.inversion_frac, which cannot be an end-to-end metric
	// because it is 0 on two workloads.
	maxInversionFrac float64
	// syncSim makes the workload's traced run carry the clock
	// synchronization simulation. Synchronization is off the data path,
	// so it belongs to no workload's load; one of them reports it so
	// that a set of runs simulates once, not once per workload.
	syncSim bool
	// replay says how the traced run replays the workload's input stage
	// by stage.
	replay replaySpec
}

// cpu is the CPU time cpu_us_per_krec charges to a window: user and
// system time. notice_paced charges user time only: the box is mostly
// idle under it, its system time is the price of waking threads, and on
// a small virtual machine that price takes one of two values for the
// whole run, depending on how the kernel placed the threads at start.
func (w *workload) cpu(win window) time.Duration {
	if w.userCPUOnly {
		return win.cpu
	}
	return win.cpu + win.cpuSys
}

// orderingMinWindow is the shortest measured window the ordering ceiling
// is checked on. In the smoke test's 0.1 to 0.3 s windows the share of
// out-of-order records is whatever the sorter's start-up made it: 2 to
// 14 % on sort_disorder.
const orderingMinWindow = 2 * time.Second

// runLive sets the workload up, measures one window on that instance,
// and then sets it up cfg.setups−1 times more for the set-up time alone.
// The further set-ups come last: what set-ups leave on the heap is then
// not in the window's peak resident set, and they all run in a process
// with the same recent past, which is what makes their times repeat.
func runLive(w *workload, cfg liveConfig) (*liveResult, error) {
	var setups []float64
	timedSetup := func() (rig, error) {
		begin := time.Now()
		r, err := w.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(begin).Seconds())
		return r, nil
	}
	r, err := timedSetup()
	if err != nil {
		return nil, err
	}
	r.start()
	win := measure(r.meter(), cfg.warm, cfg.measure, r.backlog)
	res, err := r.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	inverted := frac(res.inversions, win.delivered)
	res.layer["ols.inversion_frac"] = inverted
	if cfg.measure >= orderingMinWindow {
		ordering := check{Name: "ordering", OK: inverted <= w.maxInversionFrac}
		if !ordering.OK {
			ordering.Detail = fmt.Sprintf("%.4f of the window's records are out of order, above the ceiling of %.4f",
				inverted, w.maxInversionFrac)
		}
		res.checks = append(res.checks, ordering)
	}
	for len(setups) < cfg.setups {
		r, err := timedSetup()
		if err != nil {
			return nil, err
		}
		if _, err := r.finish(); err != nil {
			return nil, fmt.Errorf("%s: tear-down: %w", w.name, err)
		}
	}
	res.setupS = median(setups)
	res.win = win
	res.failed = res.attempted - min(res.delivered, res.attempted)
	for _, c := range res.checks {
		if !c.OK {
			res.failed++
		}
	}
	return res, nil
}

// managerLayer copies the manager-side counters every workload reports.
// Call it while the pipeline is still loaded: the time frame is a gauge.
func managerLayer(layer map[string]float64, mgr *brisk.Manager) {
	st := mgr.Stats()
	layer["ism.batches"] = float64(st.Batches)
	layer["ism.ack_deferred"] = float64(st.AckDeferred)
	layer["ism.deduped_batches"] = float64(st.DedupedBatches)
	layer["ism.loss_markers"] = float64(st.LossMarkers)
	layer["ols.inversions"] = float64(st.Sorter.Inversions)
	layer["ols.heap_fallbacks"] = float64(st.Sorter.HeapFallbacks)
	layer["ols.calendar_rebuilds"] = float64(st.Sorter.CalendarRebuilds)
	layer["ols.grown_to_us"] = float64(st.Sorter.GrownTo)
	layer["ols.dropped_full"] = float64(st.Sorter.DroppedFull)
	layer["cre.matched"] = float64(st.CRE.Matched)
	layer["cre.tachyons"] = float64(st.CRE.Tachyons)
	layer["cre.held_timed_out"] = float64(st.CRE.HeldTimedOut)
	layer["ols.timeframe_us"] = seriesSum(mgr.Metrics(), "brisk_ols_window_microseconds")
	layer["ols.merge_stalls"] = seriesSum(mgr.Metrics(), "brisk_ols_merge_stalls_total")
}

// managerBacklog is what the manager has received and not yet emitted.
func managerBacklog(mgr *brisk.Manager) int64 {
	st := mgr.Stats()
	return int64(st.Received) - int64(st.Emitted)
}

// stageNames are the pipeline tracer's stages, node side first.
var stageNames = []string{"ring_drain", "wire_send", "ism_ingest", "sorter_emit", "sink_deliver"}

// stageAges copies the stage tracer's median ages out of the registries
// (the manager's, and each node's where the workload has nodes). A stage
// no registry traced stays 0.
func stageAges(layer map[string]float64, regs ...*brisk.Metrics) {
	for _, reg := range regs {
		for _, f := range reg.Snapshot() {
			if f.Name != "brisk_pipeline_stage_age_microseconds" {
				continue
			}
			for _, s := range f.Series {
				if s.Hist == nil || s.Hist.Count == 0 {
					continue
				}
				for _, l := range s.Labels {
					if l.Key == "stage" {
						layer["ism.stage_age_p50_us."+l.Value] = s.Hist.Quantile(0.5)
					}
				}
			}
		}
	}
}

// seriesSum adds up the values of a metric family's series (0 when the
// family is not registered).
func seriesSum(reg *brisk.Metrics, family string) float64 {
	var sum float64
	for _, f := range reg.Snapshot() {
		if f.Name == family {
			for _, s := range f.Series {
				sum += s.Value
			}
		}
	}
	return sum
}

// firstSignal lets a consumer announce the first record it sees, which
// ends the workload's set-up.
type firstSignal struct {
	once sync.Once
	ch   chan struct{}
}

func newFirstSignal() *firstSignal { return &firstSignal{ch: make(chan struct{})} }

func (f *firstSignal) fire() { f.once.Do(func() { close(f.ch) }) }

// wait blocks until the first record arrived, or fails after a bound no
// healthy pipeline comes near.
func (f *firstSignal) wait() error {
	select {
	case <-f.ch:
		return nil
	case <-time.After(20 * time.Second):
		return fmt.Errorf("first record not delivered within 20 s")
	}
}

func quietLog(string, ...any) {}
