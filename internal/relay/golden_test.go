package relay

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"brisk/internal/clocksync"
	"brisk/internal/ism"
	"brisk/internal/picl"
	"brisk/internal/record"
	"brisk/internal/vclock"
	"brisk/internal/workload"
)

// goldenFederatedTrace runs the ism package's golden workload through a
// federated topology — three sources split across `relays` relay tiers
// (0 = direct attachment) — and returns the root's PICL trace.
//
// Every tier's clock is pinned below all record timestamps, so nothing
// is emitted until the ordered shutdown flushes: the relay tier flushes
// (and ships) in its merged order first, then the root flushes in pure
// timestamp order. With skew-free clocks the corrections are zero, the
// relays rebase origin ids onto exactly the ids a direct run assigns,
// and the workload's unique timestamps make the final order — and the
// trace bytes — a pure function of the workload, whatever the topology.
func goldenFederatedTrace(t *testing.T, relays, shards int) []byte {
	t.Helper()
	trace, _ := goldenFederatedTraceSync(t, relays, shards, false)
	return trace
}

// goldenFederatedTraceSync is goldenFederatedTrace with an optional
// model-based sync scheduler at BOTH tiers: the root's master probes the
// relay uplinks (which answer natively and apply adjusts), each relay's
// embedded manager probes its leaf sessions (answered by waitAck from the
// pinned clock), and the control traffic shares every connection with the
// data batches. Returns the trace plus the root's probe count.
func goldenFederatedTraceSync(t *testing.T, relays, shards int, sync bool) ([]byte, uint64) {
	t.Helper()
	syncCfg := clocksync.Config{
		UncertaintyBound: 100,
		MinProbeInterval: 1_000,
		MaxProbeInterval: 50_000,
		MeasurementNoise: 30,
		DriftWalkPPM:     0.01,
	}
	var trace bytes.Buffer
	pw := picl.NewWriter(&trace, picl.TimeUTC, 0)
	rootCfg := ism.Config{
		Addr:              "127.0.0.1:0",
		Clock:             vclock.NewManual(1),
		Sinks:             []ism.SinkTap{pw},
		MergeInterval:     time.Millisecond,
		HeartbeatInterval: -1,
		OLSShards:         shards,
		Logf:              quietLog,
	}
	if sync {
		rootCfg.SyncPeriod = time.Millisecond
		rootCfg.Sync = syncCfg
	}
	root, err := ism.New(rootCfg)
	if err != nil {
		t.Fatal(err)
	}
	root.Start()

	const sources = 3
	// Contiguous split: relay r owns sources [r*per, ...), its NodeBase
	// the count of sources before it — so relay-local session ids (pinned
	// by serial connect order) rebase onto the direct topology's ids.
	owner := make([]int, sources+1)
	base := make([]int, relays)
	if relays > 0 {
		per := (sources + relays - 1) / relays
		for s := 1; s <= sources; s++ {
			owner[s] = (s - 1) / per
		}
		for r := 1; r < relays; r++ {
			base[r] = r * per
		}
	}
	tier := make([]*Relay, relays)
	for r := 0; r < relays; r++ {
		relayISM := ism.Config{
			MergeInterval:     time.Millisecond,
			HeartbeatInterval: -1,
			OLSShards:         shards,
			Logf:              quietLog,
		}
		if sync {
			relayISM.SyncPeriod = time.Millisecond
			relayISM.Sync = syncCfg
		}
		tier[r], err = New(Config{
			Addr:          "127.0.0.1:0",
			Parent:        root.Addr(),
			Name:          fmt.Sprintf("relay%d", r),
			NodeBase:      int32(base[r]),
			Clock:         vclock.NewManual(1),
			ISM:           relayISM,
			FlushInterval: time.Millisecond,
			Logf:          quietLog,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// The exact workload the committed ism golden trace was generated
	// from: fixed seed, timestamps spread so no two sources collide.
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

	const batchLen = 7
	for src := int32(1); src <= sources; src++ {
		addr := root.Addr()
		wantNode := src
		if relays > 0 {
			r := owner[src]
			addr = tier[r].Addr()
			wantNode = src - int32(base[r])
		}
		leaf := dialLeaf(t, addr, 0xD00+uint64(src))
		if leaf.node != wantNode {
			t.Fatalf("source %d got session node id %d, want %d (serial connect order must pin ids)",
				src, leaf.node, wantNode)
		}
		recs := perSource[src]
		for off := 0; off < len(recs); off += batchLen {
			end := off + batchLen
			if end > len(recs) {
				end = len(recs)
			}
			seq := leaf.send(recs[off:end]...)
			leaf.waitAck(seq)
		}
		leaf.close()
	}

	// Tier-ordered shutdown: each relay's Close flushes its sorter
	// through the uplink and waits for the root's acks, then the root's
	// Close emits the globally ordered trace.
	for r, rl := range tier {
		if err := rl.Close(); err != nil {
			t.Fatalf("relay %d close: %v", r, err)
		}
		if st := rl.Stats(); st.Dropped != 0 {
			t.Fatalf("relay %d dropped %d records at close", r, st.Dropped)
		}
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	st := root.Stats()
	if got, want := int(st.Emitted), len(events); got != want {
		t.Fatalf("relays=%d shards=%d: emitted %d records, want %d", relays, shards, got, want)
	}
	return trace.Bytes(), st.SyncProbes
}

// TestGoldenTraceFederationTransparent locks the federation tier's
// transparency at the byte level: the skew-free fixed-seed workload must
// produce the IDENTICAL root PICL trace whether the sources attach
// directly (relays=0) or through one or two relay tiers, at one and at
// four sorter shards — and that trace must match the golden file the
// direct pipeline committed. A relay may batch, re-sort, re-encode and
// re-attribute, but it may not change a single emitted byte.
func TestGoldenTraceFederationTransparent(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "ism", "testdata", "golden_trace.picl"))
	if err != nil {
		t.Fatalf("read golden file (regenerate in internal/ism with GOLDEN_UPDATE=1): %v", err)
	}
	direct := goldenFederatedTrace(t, 0, 1)
	if !bytes.Equal(direct, want) {
		t.Fatalf("direct trace diverges from the committed golden file (%d bytes vs %d)", len(direct), len(want))
	}
	for _, relays := range []int{1, 2} {
		for _, shards := range []int{1, 4} {
			got := goldenFederatedTrace(t, relays, shards)
			if !bytes.Equal(got, want) {
				t.Fatalf("relays=%d shards=%d: trace diverges from the direct golden trace (%d bytes vs %d)",
					relays, shards, len(got), len(want))
			}
		}
	}
}

// TestGoldenTraceFederatedModelSync locks the probe scheduler's data-path
// transparency across the federation: with the model-based sync master
// running at both the root tier (probing relay uplinks) and the relay
// tier (probing leaf sessions), the root's trace must still equal the
// committed golden file byte for byte. Control traffic shares every
// connection with the data batches; it may never reorder, drop, or
// mutate a record.
func TestGoldenTraceFederatedModelSync(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "ism", "testdata", "golden_trace.picl"))
	if err != nil {
		t.Fatalf("read golden file (regenerate in internal/ism with GOLDEN_UPDATE=1): %v", err)
	}
	var probes uint64
	for _, relays := range []int{1, 2} {
		got, p := goldenFederatedTraceSync(t, relays, 1, true)
		probes += p
		if !bytes.Equal(got, want) {
			t.Fatalf("relays=%d: sync-enabled trace diverges from the golden file (%d bytes vs %d)",
				relays, len(got), len(want))
		}
	}
	if probes == 0 {
		t.Fatal("root sync master issued no probes across both topologies; the scheduler never engaged")
	}
}
