package ism

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"brisk/internal/clocksync"
	"brisk/internal/picl"
	"brisk/internal/record"
	"brisk/internal/vclock"
	"brisk/internal/wire"
	"brisk/internal/workload"
)

// goldenTrace runs a fixed-seed workload through a full manager — raw
// session connections, per-session decode workers, sorter, sinks — and
// returns the PICL trace it produced. The manager clock is pinned below
// every record timestamp so nothing is emitted until Close's ordered
// flush; unique timestamps then make the merged order, and therefore the
// trace bytes, a pure function of the workload — for any shard count.
func goldenTrace(t *testing.T, shards int, tap SinkTap) []byte {
	t.Helper()
	trace, _ := goldenTraceSync(t, shards, tap, false)
	return trace
}

// goldenTraceSync is goldenTrace with an optional model-based sync
// scheduler: when sync is true the manager runs the uncertainty-driven
// probe master over the same raw sessions — a round forced between
// batches, probes answered from the pinned clock — so control traffic
// interleaves with the data batches on the same connections. Returns the
// trace plus the manager's final counters.
func goldenTraceSync(t *testing.T, shards int, tap SinkTap, sync bool) ([]byte, Stats) {
	t.Helper()
	var trace bytes.Buffer
	pw := picl.NewWriter(&trace, picl.TimeUTC, 0)
	clock := vclock.NewManual(1)
	cfg := Config{
		Addr:              "127.0.0.1:0",
		Clock:             clock,
		Sinks:             []SinkTap{pw},
		MergeInterval:     time.Millisecond,
		HeartbeatInterval: -1,
		OLSShards:         shards,
		Logf:              quietLog,
	}
	if tap != nil {
		cfg.Sinks = append(cfg.Sinks, tap)
	}
	if sync {
		// Rounds are driven explicitly via SyncRound; the hour-long
		// period keeps the ticker from racing the forced rounds.
		cfg.SyncPeriod = time.Hour
		cfg.Sync = clocksync.Config{
			UncertaintyBound: 100,
			MinProbeInterval: 1_000,
			MaxProbeInterval: 50_000,
			MeasurementNoise: 30,
			DriftWalkPPM:     0.01,
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()

	// The paper's delayed-stream workload, fixed seed. Timestamps are
	// spread so no two sources ever collide (ts*4+source), keeping the
	// merged (TS, Seq) order independent of cross-session merge races.
	const sources = 3
	specs := make([]workload.StreamSpec, sources)
	for i := range specs {
		specs[i] = workload.StreamSpec{
			Source:  int32(i + 1),
			MeanGap: 300,
			Delay:   workload.DelayParams{Base: 50, JitterMean: 200, SpikeProb: 0.05, SpikeMean: 3000},
		}
	}
	events := workload.GenDelayedStreams(specs, 120, 0xB1253)
	perSource := make(map[int32][]record.Record, sources)
	for _, ev := range events {
		rec := record.New(1, record.TSVal(ev.TS*4+int64(ev.Source)), record.I32Val(ev.Source))
		perSource[ev.Source] = append(perSource[ev.Source], rec)
	}

	// Sessions attach sequentially so node ids are deterministic. Every
	// batch is acked before the next is sent, so by the time Close runs
	// the ordered shutdown (readers → workers → merger flush), each
	// record is queued and none can be lost.
	const batchLen = 7
	for src := int32(1); src <= sources; src++ {
		wc, ack, closeFn := dialRaw(t, m, 0xD00+uint64(src), false)
		if ack.Node != src {
			t.Fatalf("session %d got node id %d; connect order must pin ids", src, ack.Node)
		}
		recs := perSource[src]
		seq := uint64(0)
		for off := 0; off < len(recs); off += batchLen {
			end := off + batchLen
			if end > len(recs) {
				end = len(recs)
			}
			var payload []byte
			for i := off; i < end; i++ {
				var err error
				payload, err = recs[i].Append(payload)
				if err != nil {
					t.Fatal(err)
				}
			}
			seq++
			if err := wc.Send(&wire.DataBatch{Seq: seq, Count: uint32(end - off), Payload: payload}); err != nil {
				t.Fatal(err)
			}
			if sync && end < len(recs) {
				m.SyncRound()
			}
			if a := recvAckSync(t, wc, clock); a.Seq != seq {
				t.Fatalf("ack %d, want %d", a.Seq, seq)
			}
		}
		closeFn()
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if got, want := int(st.Emitted), len(events); got != want {
		t.Fatalf("emitted %d records, want %d", got, want)
	}
	return trace.Bytes(), st
}

// recvAckSync reads until a DataAck arrives, answering the sync master's
// probes from the pinned slave clock along the way (and ignoring any
// other control frames) — the client half of the control plane the
// sync-enabled golden run exercises.
func recvAckSync(t *testing.T, wc *wire.Conn, slave vclock.Clock) *wire.DataAck {
	t.Helper()
	for {
		msg, err := wc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch f := msg.(type) {
		case *wire.DataAck:
			return f
		case *wire.Probe:
			reply := &wire.ProbeReply{Seq: f.Seq, MasterSend: f.MasterSend, SlaveTime: slave.NowMicros()}
			if err := wc.Send(reply); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestGoldenTraceDeterminism locks the pipeline's output bytes: the same
// fixed-seed workload must produce the identical PICL trace on every run
// — across the pooled decode path, parallel session workers, and batched
// sink delivery — and that trace must match the committed golden file.
// Regenerate with GOLDEN_UPDATE=1 after an intentional format change.
func TestGoldenTraceDeterminism(t *testing.T) {
	first := goldenTrace(t, 1, nil)
	second := goldenTrace(t, 1, nil)
	if !bytes.Equal(first, second) {
		t.Fatal("two identical runs produced different traces (nondeterminism in the pipeline)")
	}
	golden := filepath.Join("testdata", "golden_trace.picl")
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden file (regenerate with GOLDEN_UPDATE=1): %v", err)
	}
	if !bytes.Equal(first, want) {
		t.Fatalf("trace differs from %s: got %d bytes, want %d bytes", golden, len(first), len(want))
	}
}

// TestGoldenTraceShardTransparent locks the tentpole's shard-transparency
// contract at the byte level: because the workload's timestamps are
// unique, the k-way merged emission order is pure timestamp order, so a
// sharded sorter must produce the exact trace bytes the single sorter
// does — same golden file, any shard count.
func TestGoldenTraceShardTransparent(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_trace.picl"))
	if err != nil {
		t.Fatalf("read golden file (regenerate with GOLDEN_UPDATE=1): %v", err)
	}
	for _, shards := range []int{2, 4, 8} {
		got := goldenTrace(t, shards, nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: trace diverges from the single-sorter golden trace (%d bytes vs %d)",
				shards, len(got), len(want))
		}
	}
}

// TestGoldenTraceModelSyncTransparent locks the probe scheduler's
// data-path transparency at the byte level: with the model-based sync
// master enabled, probes and replies interleave with the data batches on
// the same session connections, yet the emitted trace must equal the
// committed golden file byte for byte. The scheduler may touch slave-side
// corrections, never the records in flight.
func TestGoldenTraceModelSyncTransparent(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_trace.picl"))
	if err != nil {
		t.Fatalf("read golden file (regenerate with GOLDEN_UPDATE=1): %v", err)
	}
	got, st := goldenTraceSync(t, 1, nil, true)
	if st.SyncProbes == 0 {
		t.Fatal("sync master issued no probes; the scheduler never engaged")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sync-enabled trace diverges from the golden file (%d bytes vs %d): control traffic must not perturb the data path",
			len(got), len(want))
	}
}
