package ism

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"brisk/internal/picl"
	"brisk/internal/record"
	"brisk/internal/wire"
)

// TestFullWidthRecordWithoutTimestampIsDelivered is the regression test
// for a silent loss: a record of MaxFields fields and no TS field used to
// get a ninth field prepended by the sorter, fail to encode at the sink
// after it had been counted emitted, and vanish with no marker covering
// it. It must be sorted by its arrival time and delivered as the bytes
// it arrived as, on every shard count and core, with the counters adding
// up: received = emitted = what the buffer holds.
func TestFullWidthRecordWithoutTimestampIsDelivered(t *testing.T) {
	full := record.New(9, record.I32Val(1), record.I32Val(2), record.I32Val(3), record.I32Val(4),
		record.I32Val(5), record.I32Val(6), record.I32Val(7), record.StrVal("eight"))
	stamped := record.New(9, record.TSVal(time.Now().UnixMicro()), record.I32Val(1))
	var payload []byte
	var want [][]byte
	for _, r := range []record.Record{stamped, full, stamped} {
		start := len(payload)
		var err error
		if payload, err = r.Append(payload); err != nil {
			t.Fatal(err)
		}
		want = append(want, payload[start:])
	}
	for _, shards := range []int{1, 4} {
		var trace bytes.Buffer
		m := newManager(t, Config{HeartbeatInterval: -1, OLSShards: shards,
			Sinks: []SinkTap{picl.NewWriter(&trace, picl.TimeUTC, 0)}})
		wc, ack, closeFn := dialRaw(t, m, 0x8F1E1D5, false)
		if err := wc.Send(&wire.DataBatch{Seq: 1, Count: 3, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		recvAck(t, wc)

		cur := m.NewCursor()
		var got [][]byte
		deadline := time.Now().Add(10 * time.Second)
		for len(got) < 3 && time.Now().Before(deadline) {
			raw, _, ok := cur.TryNext()
			if !ok {
				time.Sleep(time.Millisecond)
				continue
			}
			got = append(got, raw)
		}
		if len(got) != 3 {
			t.Fatalf("shards=%d: %d of 3 records reached the buffer (stats %+v)", shards, len(got), m.Stats())
		}
		seen := 0
		for _, raw := range got {
			rec, err := DecodeBuffered(raw)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Node != ack.Node {
				t.Fatalf("shards=%d: node %d, want %d", shards, rec.Node, ack.Node)
			}
			if len(rec.Fields) == record.MaxFields {
				seen++
				if !bytes.Equal(raw[4:], want[1]) {
					t.Fatalf("shards=%d: full-width record changed on the way:\n got  % x\n want % x", shards, raw[4:], want[1])
				}
			}
		}
		if seen != 1 {
			t.Fatalf("shards=%d: full-width record delivered %d times, want 1", shards, seen)
		}
		st := m.Stats()
		if st.Received != 3 || st.Emitted != 3 || st.LossMarkers != 0 || m.Buffer().Written() != 3 {
			t.Fatalf("shards=%d: conservation broken: received %d, emitted %d, markers %d, buffered %d",
				shards, st.Received, st.Emitted, st.LossMarkers, m.Buffer().Written())
		}
		closeFn()
		m.Close()
		// The PICL line of the record carries the time it was sorted by and
		// all eight fields.
		if !strings.Contains(trace.String(), ` 8 i32:1 i32:2 i32:3 i32:4 i32:5 i32:6 i32:7 str:"eight"`) {
			t.Fatalf("shards=%d: PICL trace lacks the full-width record:\n%s", shards, trace.String())
		}
	}
}
