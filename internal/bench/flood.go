package bench

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"brisk/internal/ism"
	"brisk/internal/ols"
	"brisk/internal/record"
	"brisk/internal/wire"
)

// flood is the raw driver the ingest-style benchmarks share: sessionless
// connections that each send the same pre-encoded batch a fixed number of
// times, so the system under test — never the client — is the bottleneck.
type flood struct {
	batches      int // per session
	batchRecords int
}

// newFlood sizes a flood from the benchmarks' common knobs; non-positive
// values take the defaults (150k records per session, 256 per batch).
func newFlood(perSession, batchRecords int) flood {
	if perSession <= 0 {
		perSession = 150_000
	}
	if batchRecords <= 0 {
		batchRecords = 256
	}
	batches := perSession / batchRecords
	if batches == 0 {
		batches = 1
	}
	return flood{batches: batches, batchRecords: batchRecords}
}

// floodSink starts the manager every flood benchmark measures delivery
// at: a 100 µs sorter window (the records are stamped in the past, so
// extraction never waits on T) and no heartbeats.
func floodSink(sinks ...ism.SinkTap) (*ism.Manager, error) {
	m, err := ism.New(ism.Config{
		Addr:              "127.0.0.1:0",
		MergeInterval:     time.Millisecond,
		BufferRecords:     1 << 16,
		Sorter:            ols.Config{InitialT: 100},
		HeartbeatInterval: -1,
		Sinks:             sinks,
		Logf:              quiet,
	})
	if err != nil {
		return nil, err
	}
	m.Start()
	return m, nil
}

// run opens `sessions` connections to addr, floods them concurrently, and
// waits for sink to emit every record. It reports the sustained delivery
// rate at sink plus the whole-process allocation cost per record; label
// fills the row's Sessions column.
func (f flood) run(name string, label, sessions int, addr string, sink *ism.Manager) (IngestResult, error) {
	total := sessions * f.batches * f.batchRecords

	// The evaluation record: an embedded timestamp plus six ints, 40 bytes
	// on the wire. Stamped well in the past so extraction never waits on T.
	ts := time.Now().UnixMicro() - 10_000_000
	var payload []byte
	var err error
	for i := 0; i < f.batchRecords; i++ {
		rec := record.New(1,
			record.TSVal(ts),
			record.I32Val(int32(i)), record.I32Val(2), record.I32Val(3),
			record.I32Val(4), record.I32Val(5), record.I32Val(6))
		payload, err = rec.Append(payload)
		if err != nil {
			return IngestResult{}, err
		}
	}

	conns := make([]*wire.Conn, sessions)
	for i := range conns {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return IngestResult{}, err
		}
		defer raw.Close()
		wc := wire.NewConn(raw)
		if err := wc.Send(&wire.Hello{Version: wire.ProtocolVersion, Name: "bench"}); err != nil {
			return IngestResult{}, err
		}
		if _, err := wc.Recv(); err != nil {
			return IngestResult{}, fmt.Errorf("bench: %s: hello ack: %w", name, err)
		}
		conns[i] = wc
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	errs := make(chan error, sessions)
	var wg sync.WaitGroup
	for _, wc := range conns {
		wg.Add(1)
		go func(wc *wire.Conn) {
			defer wg.Done()
			b := &wire.DataBatch{Count: uint32(f.batchRecords), Payload: payload}
			for i := 0; i < f.batches; i++ {
				if err := wc.Send(b); err != nil {
					errs <- err
					return
				}
			}
		}(wc)
	}
	wg.Wait()
	deadline := time.Now().Add(120 * time.Second)
	for int(sink.Stats().Emitted) < total && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	select {
	case err := <-errs:
		return IngestResult{}, err
	default:
	}
	st := sink.Stats()
	if int(st.Emitted) < total {
		return IngestResult{}, fmt.Errorf("bench: %s: sink emitted %d of %d", name, st.Emitted, total)
	}
	return IngestResult{
		Name:            name,
		Sessions:        label,
		Records:         total,
		ElapsedMicros:   elapsed.Microseconds(),
		RecordsPerSec:   float64(total) / elapsed.Seconds(),
		MBPerSec:        float64(st.BytesIn) / 1e6 / elapsed.Seconds(),
		AllocsPerRecord: float64(ms1.Mallocs-ms0.Mallocs) / float64(total),
	}, nil
}

// floodTable renders flood rows; first names the Sessions column.
func floodTable(title, first string, rows []IngestResult) *Table {
	t := &Table{
		Title:  title,
		Header: []string{first, "records", "elapsed", "records/s", "MB/s", "allocs/record"},
	}
	for _, r := range rows {
		t.Add(r.Sessions, r.Records,
			(time.Duration(r.ElapsedMicros) * time.Microsecond).Round(time.Millisecond),
			r.RecordsPerSec, r.MBPerSec, r.AllocsPerRecord)
	}
	return t
}
