package record

import (
	"bytes"
	"errors"
	"testing"
)

// enc encodes a record given by value, on top of the package's
// pointer-taking mustAppend.
func enc(t *testing.T, r Record) []byte {
	t.Helper()
	return mustAppend(t, &r)
}

// TestScanBorrowsBodyAndReadsHeader: Scan fills the header views a full
// decode would, keeps Fields empty, and borrows the input as the body
// Append gives back.
func TestScanBorrowsBodyAndReadsHeader(t *testing.T) {
	src := New(6, StrVal("pad"), TSVal(111), ReasonVal(7), ConseqVal(8), TSVal(222))
	buf := enc(t, src)
	var r Record
	r.Fields = make([]Value, 3, 8) // a recycled slot: capacity kept, contents dropped
	n, err := Scan(&r, append(buf, 0xEE))
	if err != nil || n != len(buf) {
		t.Fatalf("Scan = %d, %v; want %d", n, err, len(buf))
	}
	if r.Event != 6 || !r.HasTS || r.TS != 111 || r.Reason != 7 || r.Conseq != 8 || r.Node != 0 || r.Seq != 0 {
		t.Fatalf("header: %+v", r)
	}
	if len(r.Fields) != 0 || cap(r.Fields) != 8 || r.materialized() || r.numFields() != 5 {
		t.Fatalf("fields: len %d cap %d materialized %v count %d", len(r.Fields), cap(r.Fields), r.materialized(), r.numFields())
	}
	if !bytes.Equal(r.enc, buf) || r.WireSize() != len(buf) {
		t.Fatalf("body % x, want % x", r.enc, buf)
	}
	if got := enc(t, r); !bytes.Equal(got, buf) {
		t.Fatalf("Append % x, want % x", got, buf)
	}
}

// TestEncodedBodyHeaderIsAuthoritative: SetTS on an encoded-body record
// changes the header alone; Append patches the first TS field from it and
// leaves the borrowed bytes untouched; a decoded view agrees with Append.
func TestEncodedBodyHeaderIsAuthoritative(t *testing.T) {
	buf := enc(t, New(2, I32Val(5), TSVal(100), TSVal(200)))
	orig := append([]byte(nil), buf...)
	var r Record
	if _, err := Scan(&r, buf); err != nil {
		t.Fatal(err)
	}
	r.SetTS(999)
	want := enc(t, New(2, I32Val(5), TSVal(999), TSVal(200)))
	if got := enc(t, r); !bytes.Equal(got, want) {
		t.Fatalf("patched encoding % x, want % x", got, want)
	}
	if !bytes.Equal(buf, orig) {
		t.Fatal("Append wrote into the borrowed body")
	}
	var arr [MaxFields]Value
	fields, err := r.DecodeFields(&arr)
	if err != nil || len(fields) != 3 || fields[1] != TSVal(999) || fields[2] != TSVal(200) {
		t.Fatalf("DecodeFields = %+v, %v", fields, err)
	}
	if len(r.Fields) != 0 {
		t.Fatal("DecodeFields materialised the record itself")
	}
	if err := r.Materialize(); err != nil || len(r.Fields) != 3 || r.Fields[1] != TSVal(999) {
		t.Fatalf("Materialize: %+v, %v", r.Fields, err)
	}
	// Once materialised, SetTS keeps view and header in step.
	r.SetTS(1234)
	if r.Fields[1] != TSVal(1234) || !bytes.Equal(enc(t, r), enc(t, New(2, I32Val(5), TSVal(1234), TSVal(200)))) {
		t.Fatalf("SetTS after Materialize: %+v", r.Fields)
	}
}

// TestSetTSWithoutTimestampField: a record with room gains a leading TS
// field (and gives up its borrowed body); a full one keeps the time in
// its header only, in either representation, and still encodes.
func TestSetTSWithoutTimestampField(t *testing.T) {
	var r Record
	if _, err := Scan(&r, enc(t, New(1, I32Val(4)))); err != nil {
		t.Fatal(err)
	}
	r.SetTS(77)
	if !r.HasTS || r.TS != 77 || r.enc != nil {
		t.Fatalf("narrow record after SetTS: %+v", r)
	}
	if got, want := enc(t, r), enc(t, New(1, TSVal(77), I32Val(4))); !bytes.Equal(got, want) {
		t.Fatalf("narrow record encodes % x, want % x", got, want)
	}

	full := New(1, I32Val(1), I32Val(2), I32Val(3), I32Val(4), I32Val(5), I32Val(6), I32Val(7), I32Val(8))
	buf := enc(t, full)
	var scanned Record
	if _, err := Scan(&scanned, buf); err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string]*Record{"fields": &full, "encoded": &scanned} {
		rec.SetTS(55)
		if rec.HasTS || rec.TS != 55 || rec.numFields() != MaxFields {
			t.Fatalf("%s: full record after SetTS: HasTS=%v TS=%d fields=%d", name, rec.HasTS, rec.TS, rec.numFields())
		}
		if got := enc(t, *rec); !bytes.Equal(got, buf) {
			t.Fatalf("%s: full record encodes % x, want % x", name, got, buf)
		}
	}
}

// TestDetachCopiesWhatTheRecordBorrows: a bytes-only record keeps a
// private copy of its body; a materialised one keeps its fields and lets
// the body go. Either way the producer's buffer can be overwritten.
func TestDetachCopiesWhatTheRecordBorrows(t *testing.T) {
	buf := enc(t, New(3, TSVal(10), StrVal("keep")))
	want := append([]byte(nil), buf...)

	var bytesOnly Record
	if _, err := Scan(&bytesOnly, buf); err != nil {
		t.Fatal(err)
	}
	batch, err := DecodeAppend(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	both := batch[0]
	if both.enc == nil || len(both.Fields) != 2 {
		t.Fatalf("DecodeAppend record: body %v, fields %d", both.enc != nil, len(both.Fields))
	}
	bytesOnly.Detach()
	both.Detach()
	for i := range buf {
		buf[i] = 0xAA
	}
	batch[0].Fields[1] = StrVal("gone")
	if got := enc(t, bytesOnly); !bytes.Equal(got, want) {
		t.Fatalf("detached bytes-only record encodes % x, want % x", got, want)
	}
	if both.enc != nil {
		t.Fatal("detached materialised record still borrows a body")
	}
	if got := enc(t, both); !bytes.Equal(got, want) {
		t.Fatalf("detached materialised record encodes % x, want % x", got, want)
	}
}

// TestFromEncodedRebuildsHeader: the sorter's way back from bytes to a
// record reads the event class and, only when the type nibbles say there
// are any, the causal identifiers.
func TestFromEncodedRebuildsHeader(t *testing.T) {
	for _, src := range []Record{
		New(9, TSVal(5), I32Val(1), I32Val(2), I32Val(3), I32Val(4), I32Val(5), I32Val(6)),
		New(8, StrVal("x"), ConseqVal(31), TSVal(6), ReasonVal(30)),
		New(7, ReasonVal(12)),
		New(6),
	} {
		body, tsOff, err := src.AppendBody([]byte{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		body = body[3:]
		ts, off, has := PeekTS(body)
		if has != (tsOff != 0) || (has && off != tsOff) {
			t.Fatalf("AppendBody tsOff %d, PeekTS (%d,%v)", tsOff, off, has)
		}
		r := FromEncoded(body, tsOff, ts)
		if r.Event != src.Event || r.HasTS != src.HasTS || r.TS != src.TS || r.Reason != src.Reason || r.Conseq != src.Conseq {
			t.Fatalf("FromEncoded header %+v, want %+v", r, src)
		}
	}
}

// TestLossMarkerOnEncodedBody: marker detection and LossInfo read either
// representation, with the header's timestamp as the end of the range.
func TestLossMarkerOnEncodedBody(t *testing.T) {
	var r Record
	if _, err := Scan(&r, enc(t, NewLossMarker(42, 100, 200))); err != nil {
		t.Fatal(err)
	}
	r.SetTS(250)
	count, first, last, ok := LossInfo(&r)
	if !ok || count != 42 || first != 100 || last != 250 {
		t.Fatalf("LossInfo = %d [%d,%d] %v", count, first, last, ok)
	}
	for _, not := range []Record{
		New(LossEvent, TSVal(1), U64Val(2)),
		New(LossEvent, TSVal(1), U64Val(2), I64Val(3), I32Val(4)),
		New(LossEvent, TSVal(1), I64Val(2), U64Val(3)),
		New(1, TSVal(1), U64Val(2), I64Val(3)),
	} {
		var s Record
		if _, err := Scan(&s, enc(t, not)); err != nil {
			t.Fatal(err)
		}
		if IsLossMarker(&s) || IsLossMarker(&not) {
			t.Fatalf("%v taken for a loss marker", &not)
		}
	}
}

// TestScanAppendMatchesDecodeAppend: the batch scanners frame, prefix and
// fail exactly like the batch decoders.
func TestScanAppendMatchesDecodeAppend(t *testing.T) {
	var plain, prefixed []byte
	for i := 0; i < 5; i++ {
		rec := enc(t, New(uint8(i), TSVal(int64(i)), StrVal("abc")))
		plain = append(plain, rec...)
		prefixed = append(append(prefixed, 0, 0, 1, byte(i)), rec...)
	}
	scanned, err := ScanNodeAppend(nil, prefixed)
	decoded, derr := DecodeNodeAppend(nil, prefixed)
	if err != nil || derr != nil || len(scanned) != 5 || len(decoded) != 5 {
		t.Fatalf("prefixed: %d/%v scanned, %d/%v decoded", len(scanned), err, len(decoded), derr)
	}
	for i := range scanned {
		if scanned[i].Node != int32(256+i) || scanned[i].Node != decoded[i].Node || scanned[i].TS != decoded[i].TS ||
			!bytes.Equal(scanned[i].enc, decoded[i].enc) || len(decoded[i].Fields) != 2 {
			t.Fatalf("entry %d: scanned %+v decoded %+v", i, scanned[i], decoded[i])
		}
	}
	if _, err := ScanNodeAppend(nil, prefixed[:len(prefixed)-len(plain)/5-2]); !errors.Is(err, ErrShortPrefix) {
		t.Fatalf("short prefix: %v", err)
	}
	cut := plain[:len(plain)-3]
	s, serr := ScanAppend(nil, cut)
	d, derr := DecodeAppend(nil, cut)
	if serr == nil || derr == nil || len(s) != 4 || len(d) != 4 || !errors.Is(serr, ErrTruncated) {
		t.Fatalf("truncated batch: scanned %d (%v), decoded %d (%v)", len(s), serr, len(d), derr)
	}
}

// TestAllocsScanAppend pins the ingest scanner at zero allocations per
// batch, first use of the batch slice included in the warm-up only.
func TestAllocsScanAppend(t *testing.T) {
	rec := New(3, TSVal(1234567), I32Val(1), I32Val(2), I32Val(3), I32Val(4), I32Val(5), I32Val(6))
	var payload []byte
	for i := 0; i < 64; i++ {
		payload = append(append(payload, 0, 0, 0, byte(i)), enc(t, rec)...)
	}
	batch, err := ScanNodeAppend(make([]Record, 0, 64), payload)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		if batch, err = ScanNodeAppend(batch[:0], payload); err != nil || len(batch) != 64 {
			t.Fatalf("scanned %d records: %v", len(batch), err)
		}
		if buf, err = batch[63].Append(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ScanNodeAppend + Append allocates %.1f times per batch, want 0", allocs)
	}
}
