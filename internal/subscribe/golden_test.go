package subscribe

import (
	"bytes"
	"flag"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"brisk/internal/record"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

// goldenRecords is the fixed record set the golden files render: every
// field type, strings that exercise each JSON escape, the float edge
// cases, records with no and with two TS fields, a record with no
// fields, an 0xFF record that is not marker-shaped, and a write-side
// loss marker. Nodes are even, so on a two-shard engine they all land in
// shard 0.
func goldenRecords() []record.Record {
	withNode := func(node int32, r record.Record) record.Record {
		r.Node = node
		return r
	}
	marker := record.NewLossMarker(5, 900, 1009)
	return []record.Record{
		withNode(0, record.New(1, record.TSVal(1000),
			record.I8Val(-128), record.U8Val(255), record.I16Val(-32768), record.U16Val(65535),
			record.I32Val(math.MinInt32), record.U32Val(math.MaxUint32), record.BoolVal(true))),
		withNode(2, record.New(2, record.TSVal(1001),
			record.I64Val(math.MinInt64), record.U64Val(math.MaxUint64),
			record.ReasonVal(7), record.ConseqVal(9), record.BoolVal(false), record.I8Val(127))),
		withNode(4, record.New(3,
			record.F64Val(math.NaN()), record.F64Val(math.Inf(1)), record.F64Val(math.Inf(-1)),
			record.F64Val(math.Copysign(0, -1)), record.F32Val(0.1), record.F64Val(1e21),
			record.F64Val(1e-7), record.F64Val(123456789.125))),
		withNode(6, record.New(4, record.TSVal(1003),
			record.F32Val(float32(math.NaN())), record.F32Val(float32(math.Inf(-1))),
			record.F32Val(-3.4028235e38), record.F32Val(1.0e-45), record.F64Val(0))),
		withNode(8, record.New(5, record.TSVal(1004),
			record.StrVal(`<a href="x">&amp;</a>`),
			record.StrVal(`quote " backslash \ slash /`),
			record.StrVal("\x00\x01\x07\b\t\n\v\f\r\x1b\x1f\x7f"),
			record.StrVal("\u2028 line \u2029 para"),
			record.StrVal("bad \xff\xfe utf8 \xe2\x80 cut \xed\xa0\x80 surrogate"),
			record.StrVal("héllo ☃ 😀 \ufffd"),
			record.StrVal(""))),
		withNode(10, record.New(6, record.I32Val(1), record.TSVal(1005), record.I32Val(2), record.TSVal(9999))),
		withNode(12, record.New(7, record.TSVal(1006))),
		withNode(14, record.New(8)),
		withNode(16, record.New(record.LossEvent, record.TSVal(1007), record.StrVal("not a marker"))),
		withNode(-2, record.New(9, record.TSVal(1008), record.I64Val(-1), record.U32Val(0))),
		withNode(18, marker),
	}
}

// hookWriter runs a hook on the first Flush. ServeSubscribe flushes once
// to commit its headers after it has subscribed and before it reads, so
// the hook publishes at a fixed point of the handler's life.
type hookWriter struct {
	*httptest.ResponseRecorder
	hook func()
}

func (w *hookWriter) Flush() {
	if h := w.hook; h != nil {
		w.hook = nil
		h()
	}
	w.ResponseRecorder.Flush()
}

// goldenBodies serves /subscribe and then /query from one engine fed
// with goldenRecords, and returns both response bodies. Shard 1 carries
// three records that the TTL evicts after the subscription attached and
// before it read, so the stream also holds a read-side overrun marker.
func goldenBodies(t *testing.T) (sub, query []byte) {
	t.Helper()
	e := New(Config{Shards: 2, WindowTTL: time.Second})
	h := e.Handler()
	const later = 2_000_000 // µs: past the TTL of everything published at 0
	w := &hookWriter{ResponseRecorder: httptest.NewRecorder()}
	w.hook = func() {
		for i := 0; i < 3; i++ {
			publish(t, e, 1, 20, int64(500+i), 0, record.I32Val(int32(i)))
		}
		for _, rec := range goldenRecords() {
			rec := rec
			e.Publish(&rec, encode(t, &rec), later)
		}
		publish(t, e, 1, 21, 2000, later, record.StrVal("after the gap"))
		publish(t, e, 3, 22, 2001, later, record.U16Val(1))
		e.EndFlush()
		e.Close()
	}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/subscribe?replay=oldest", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/subscribe: status %d: %s", w.Code, w.Body.Bytes())
	}
	sub = w.Body.Bytes()

	qw := httptest.NewRecorder()
	h.ServeHTTP(qw, httptest.NewRequest(http.MethodGet, "/query", nil))
	if qw.Code != http.StatusOK {
		t.Fatalf("/query: status %d: %s", qw.Code, qw.Body.Bytes())
	}
	return sub, qw.Body.Bytes()
}

// TestGoldenOutput pins /subscribe and /query byte for byte. Run with
// -update to rewrite testdata after a deliberate format change.
func TestGoldenOutput(t *testing.T) {
	sub, query := goldenBodies(t)
	for _, g := range []struct {
		name string
		got  []byte
	}{{"subscribe.ndjson", sub}, {"query.json", query}} {
		path := filepath.Join("testdata", g.name)
		if *update {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			gl, wl := bytes.Split(g.got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var a, b []byte
				if i < len(gl) {
					a = gl[i]
				}
				if i < len(wl) {
					b = wl[i]
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", g.name, i+1, a, b)
				}
			}
		}
	}
}
