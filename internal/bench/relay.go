package bench

import (
	"fmt"
	"time"

	"brisk/internal/ism"
	"brisk/internal/ols"
	"brisk/internal/relay"
)

// RunRelayIngest is the federated counterpart of RunIngest: `sessions`
// synthetic sensors flood ONE relay with pre-encoded batches, the relay
// locally sorts and forwards its merged regional stream upstream as a
// single RelayBatch session, and the root re-merges it. The reported rate
// is sustained end-to-end delivery at the root's sinks, so it prices the
// whole extra hop: relay decode → sort → forward tap → uplink encode →
// root decode → merge. Compare against ingest/sessions=N for the relay
// tier's overhead.
func RunRelayIngest(sessions, perSession, batchRecords int) (IngestResult, error) {
	if sessions <= 0 {
		sessions = 1
	}
	f := newFlood(perSession, batchRecords)
	root, err := floodSink(nil)
	if err != nil {
		return IngestResult{}, err
	}
	defer root.Close()

	rl, err := relay.New(relay.Config{
		Addr:   "127.0.0.1:0",
		Parent: root.Addr(),
		Name:   "bench-relay",
		ISM: ism.Config{
			MergeInterval:     time.Millisecond,
			BufferRecords:     1 << 16,
			Sorter:            ols.Config{InitialT: 100},
			HeartbeatInterval: -1,
		},
		BatchRecords:  f.batchRecords,
		FlushInterval: time.Millisecond,
		Logf:          quiet,
	})
	if err != nil {
		return IngestResult{}, err
	}
	defer rl.Close()
	return f.run(fmt.Sprintf("relay/sessions=%d", sessions), sessions, sessions, rl.Addr(), root)
}

// RelayTable renders the relay-hop rows next to nothing else: the
// interesting comparison (direct ingest at the same session count) lives
// in the ingest table above it.
func RelayTable(rows []IngestResult) *Table {
	return floodTable("relay: leaf→relay→root federated delivery vs session count", "sessions", rows)
}
