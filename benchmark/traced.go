package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"brisk/internal/wire"
)

// runTraced produces the per-layer metrics. It spends about as long as an
// untraced run, in four parts: a live window with the pipeline's stage
// tracer off (the layers' own counters), the same window with it on
// (stage ages, and the tracer's cost as the difference in CPU per
// record), the staged replay (busy time per layer), and — on the one
// workload that carries it — the clock synchronization simulation. Spans
// go to <out>/trace-<workload>.json.
func runTraced(w *workload, opt options, out io.Writer) (*runOutput, error) {
	measure := seconds(opt.seconds * 0.3)
	cfg := liveConfig{seed: opt.seed, warm: warmFor(measure), measure: measure, setups: 1, outDir: opt.outDir}
	plain, err := runLive(w, cfg)
	if err != nil {
		return nil, err
	}
	printChecks(out, w.name, plain)
	cfg.stageTrace = true
	staged, err := runLive(w, cfg)
	if err != nil {
		return nil, err
	}
	printChecks(out, w.name, staged)

	tr := newTracer(w.name)
	replay, err := runReplay(w, opt.seed, replayBatchesFor(opt.seconds), tr)
	if err != nil {
		return nil, err
	}
	var sim map[string]float64
	identical := true
	if w.syncSim {
		sim, identical = syncSim(opt.seed, tr)
		fmt.Fprintf(out, "%s: check sync simulation repeats exactly: %v\n", w.name, identical)
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(opt.outDir, "trace-"+w.name+".json")
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s: %d spans written to %s\n", w.name, len(tr.spans), tracePath)

	values := plain.layer
	win := plain.win
	values["ism.backlog_max_recs"] = float64(win.backlogMax)
	values["ism.backlog_slope_rps"] = win.backlogSlope
	values["proc.loss_frac"] = frac(plain.attempted-min(plain.delivered, plain.attempted), plain.attempted)
	values["proc.allocs_per_krec"] = frac(win.mallocs, win.delivered) * 1000
	values["proc.gc_pause_ms"] = float64(win.gcPause) / float64(time.Millisecond)
	values["gen.offered_eps"] = float64(win.offered) / win.seconds
	values["gen.input_sha32"] = float64(binary.BigEndian.Uint32(plain.inputSHA[:4]))
	values["gen.cpu_us_per_krec"] = generatorCost(w, opt.seed)
	values["proc.sys_us_per_krec"] = perKrec(win.cpuSys, win.delivered)
	if base := perKrec(w.cpu(win), win.delivered); base > 0 {
		values["proc.trace_overhead_frac"] = (perKrec(w.cpu(staged.win), staged.win.delivered) - base) / base
	}
	for _, stage := range stageNames {
		key := "ism.stage_age_p50_us." + stage
		values[key] = staged.layer[key]
	}
	for k, v := range replay {
		values[k] = v
	}
	for k, v := range sim {
		values[k] = v
	}
	failed := plain.failed + staged.failed
	if !identical {
		failed++
	}
	return output(out, w.name, plain.attempted+staged.attempted, failed, perLayer, values)
}

// replayBatchesFor sizes the replay: 4000 batches (a million records)
// for a full-length run, fewer for short smoke runs.
func replayBatchesFor(runSeconds float64) int {
	return max(40, min(4000, int(runSeconds*200)))
}

// generatorCost is the load generator's own CPU per thousand records,
// measured alone into a null sink: for the batch workloads stamping and
// framing batches onto a discarded stream, for the notice workload the
// pacing loop's bookkeeping around a call that does nothing.
func generatorCost(w *workload, seed uint64) float64 {
	const rounds = 2000
	gen := rng(seed)
	spec := w.replay
	cpu0, _ := cpuTime()
	var records int
	if spec.notices {
		table := newNoticeTable(&gen)
		var seq int32
		for k := 0; k < rounds*batchRecords/noticeBlock; k++ {
			for slot := 0; slot < noticeBlock; slot++ {
				seq++
				v := &table[slot]
				nullNotice(seq, int32(k), v[0], v[1], v[2], v[3])
			}
			records += noticeBlock
		}
	} else {
		t, err := newTemplate(&gen, spec.relay, relayFirstNode)
		if err != nil {
			return 0
		}
		var dis *disorder
		if spec.disorder {
			dis = newDisorder(&gen, t.sources)
		}
		st := newStamper(t, 0, dis)
		conn := wire.NewConn(struct {
			io.Reader
			io.Writer
		}{nil, io.Discard})
		for k := 0; k < rounds; k++ {
			payload := st.stamp(time.Now().UnixMicro(), int64(k))
			if conn.Send(&wire.DataBatch{Seq: uint64(k + 1), Count: batchRecords, Payload: payload}) != nil {
				return 0
			}
			records += batchRecords
		}
	}
	cpu1, _ := cpuTime()
	return perKrec(cpu1-cpu0, uint64(records))
}

// nullNotice stands in for Notice6i when pricing the generator alone.
//
//go:noinline
func nullNotice(a, b, c, d, e, f int32) {}
