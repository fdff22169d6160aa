package subscribe

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"testing"

	"brisk/internal/record"
)

// wireEvent, wireLoss, wireField and renderEvent are the encoding/json
// rendering the HTTP endpoints used before appendEvent, kept as the
// reference FuzzAppendEventVsJSON holds appendEvent to.
type wireEvent struct {
	Seq   uint64      `json:"seq"`
	Node  int32       `json:"node"`
	Event uint8       `json:"event"`
	TS    *int64      `json:"ts,omitempty"`
	Loss  *wireLoss   `json:"loss,omitempty"`
	Field []wireField `json:"fields,omitempty"`
}

type wireLoss struct {
	Count   uint64 `json:"count"`
	Shard   int    `json:"shard"`
	FirstTS int64  `json:"first_ts"`
	LastTS  int64  `json:"last_ts"`
}

type wireField struct {
	Type string  `json:"type"`
	Int  *int64  `json:"int,omitempty"`
	Uint *uint64 `json:"uint,omitempty"`
	F    *string `json:"float,omitempty"`
	Str  *string `json:"str,omitempty"`
	Bool *bool   `json:"bool,omitempty"`
}

func renderEvent(ev *Event) wireEvent {
	w := wireEvent{Seq: ev.Seq, Node: ev.Record.Node, Event: ev.Record.Event}
	if count, firstTS, lastTS, ok := record.LossInfo(&ev.Record); ok {
		w.Loss = &wireLoss{Count: count, Shard: ev.Shard, FirstTS: firstTS, LastTS: lastTS}
		return w
	}
	if ev.Record.HasTS {
		ts := ev.Record.TS
		w.TS = &ts
	}
	for _, f := range ev.Record.Fields {
		wf := wireField{Type: f.Type.String()}
		switch f.Type {
		case record.TS:
			continue // already on the event envelope
		case record.Int8, record.Int16, record.Int32, record.Int64:
			v := f.Int()
			wf.Int = &v
		case record.Uint8, record.Uint16, record.Uint32, record.Uint64,
			record.Reason, record.Conseq:
			v := f.Uint()
			wf.Uint = &v
		case record.Float32, record.Float64:
			v := strconv.FormatFloat(f.Float(), 'g', -1, 64)
			wf.F = &v
		case record.String:
			s := f.Str
			wf.Str = &s
		case record.Bool:
			v := f.Bool()
			wf.Bool = &v
		}
		w.Field = append(w.Field, wf)
	}
	return w
}

// goldenEncodings returns the encoded bodies (no node prefix) of the golden
// record set plus a read-side overrun marker.
func goldenEncodings(t testing.TB) [][]byte {
	t.Helper()
	recs := append(goldenRecords(), record.NewLossMarker(3, 0, 502))
	bodies := make([][]byte, len(recs))
	for i := range recs {
		b, err := recs[i].Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	return bodies
}

// FuzzAppendEventVsJSON holds appendEvent to the encoding/json rendering
// it replaced: for any body record.Scan accepts, the bytes must be
// exactly json.Marshal(renderEvent(...)) plus the NDJSON newline.
func FuzzAppendEventVsJSON(f *testing.F) {
	for i, body := range goldenEncodings(f) {
		f.Add(body, uint64(i), i%4, int32(2*i-3))
	}
	f.Fuzz(func(t *testing.T, body []byte, seq uint64, shard int, node int32) {
		var scan record.Record
		n, err := record.Scan(&scan, body)
		if err != nil {
			return
		}
		body = body[:n]
		var dec record.Record
		if _, err := record.DecodeInto(&dec, body); err != nil {
			t.Fatalf("Scan accepted a body DecodeInto rejects: %v", err)
		}
		dec.Node = node
		want, err := json.Marshal(renderEvent(&Event{Seq: seq, Shard: shard, Record: dec}))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		prefix := []byte("prefix")
		got := appendEvent(prefix[:len(prefix):len(prefix)], seq, shard, node, body)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("appendEvent differs from encoding/json\n got: %q\nwant: %q", got, want)
		}
	})
}

// TestAllocsAppendEvent: rendering the golden set into a buffer that is
// large enough allocates nothing.
func TestAllocsAppendEvent(t *testing.T) {
	bodies := goldenEncodings(t)
	buf := make([]byte, 0, 64<<10)
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for i, body := range bodies {
			buf = appendEvent(buf, uint64(i), i%2, int32(i), body)
		}
	})
	if allocs != 0 {
		t.Fatalf("appendEvent allocates %v per golden set, want 0", allocs)
	}
}

// TestAllocsNextViews: once its buffers have grown, the HTTP tail's read
// loop allocates nothing per batch, with or without a field filter.
func TestAllocsNextViews(t *testing.T) {
	for _, expr := range []string{"", "f1<5"} {
		t.Run(expr, func(t *testing.T) {
			e := New(Config{Shards: 4, WindowBytes: 256 << 10})
			defer e.Close()
			sub, err := e.Subscribe(mustFilter(t, expr), false)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			const nodes = 16
			recs := make([]record.Record, nodes)
			encs := make([][]byte, nodes)
			for i := range recs {
				recs[i] = record.New(uint8(i%4), record.TSVal(int64(i)), record.I32Val(int32(i)), record.U64Val(7))
				recs[i].Node = int32(i)
				encs[i] = encode(t, &recs[i])
			}
			ctx := context.Background()
			now := int64(0)
			round := func() {
				for i := range recs {
					e.Publish(&recs[i], encs[i], now)
				}
				e.EndFlush()
				now++
				vs, err := sub.nextViews(ctx)
				if err != nil || len(vs) == 0 {
					t.Fatalf("nextViews = %d views, %v", len(vs), err)
				}
			}
			for i := 0; i < 2000; i++ {
				round()
			}
			if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
				t.Fatalf("nextViews allocates %v per batch in steady state, want 0", allocs)
			}
		})
	}
}
