package picl

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"brisk/internal/record"
)

func writeOne(t *testing.T, mode TimeMode, start int64, r record.Record) string {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, mode, start)
	if err := w.WriteRecord(&r); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestWriteUTCLine(t *testing.T) {
	r := record.New(7, record.TSVal(1_000_500), record.I32Val(-3), record.StrVal("hi"))
	r.Node = 2
	got := writeOne(t, TimeUTC, 0, r)
	want := "-4 7 1000500 2 2 i32:-3 str:\"hi\"\n"
	if got != want {
		t.Fatalf("line = %q, want %q", got, want)
	}
}

func TestWriteRelativeLine(t *testing.T) {
	r := record.New(1, record.TSVal(2_500_000))
	got := writeOne(t, TimeRelative, 1_000_000, r)
	want := "-4 1 1.500000 0 0\n"
	if got != want {
		t.Fatalf("line = %q, want %q", got, want)
	}
}

func TestRoundTripAllFieldKinds(t *testing.T) {
	r := record.New(9,
		record.TSVal(123),
		record.I8Val(-5), record.U16Val(60000), record.I64Val(-1<<40),
		record.F64Val(2.625), record.BoolVal(true),
		record.StrVal(`with "quotes" and spaces`),
		record.ReasonVal(42),
	)
	r.Node = 3
	text := writeOne(t, TimeUTC, 0, r)
	rd := NewReader(strings.NewReader(text))
	ln, err := rd.Next()
	if err != nil {
		t.Fatalf("Next: %v (line %q)", err, text)
	}
	if ln.RecType != UserEventType || ln.Event != 9 || ln.Node != 3 || ln.TimeMicros != 123 {
		t.Fatalf("header = %+v", ln)
	}
	if len(ln.Fields) != 7 {
		t.Fatalf("fields = %d: %+v", len(ln.Fields), ln.Fields)
	}
	if ln.Fields[0].Int() != -5 || ln.Fields[1].Uint() != 60000 || ln.Fields[2].Int() != -(1<<40) {
		t.Fatalf("int fields wrong: %+v", ln.Fields)
	}
	if ln.Fields[3].Float() != 2.625 || !ln.Fields[4].Bool() {
		t.Fatalf("float/bool wrong: %+v", ln.Fields)
	}
	if ln.Fields[5].Str != `with "quotes" and spaces` {
		t.Fatalf("string = %q", ln.Fields[5].Str)
	}
	if ln.Fields[6].Type != record.Reason || ln.Fields[6].Uint() != 42 {
		t.Fatalf("reason field = %+v", ln.Fields[6])
	}
	if _, err := rd.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestRelativeTimeParsesBack(t *testing.T) {
	r := record.New(1, record.TSVal(3_250_000), record.I32Val(1))
	text := writeOne(t, TimeRelative, 1_000_000, r)
	ln, err := NewReader(strings.NewReader(text)).Next()
	if err != nil {
		t.Fatal(err)
	}
	if ln.TimeMicros != 2_250_000 {
		t.Fatalf("relative time = %d, want 2250000", ln.TimeMicros)
	}
}

func TestReaderSkipsBlanksAndComments(t *testing.T) {
	text := "\n# a comment\n-4 1 5 0 0\n\n"
	rd := NewReader(strings.NewReader(text))
	ln, err := rd.Next()
	if err != nil || ln.TimeMicros != 5 {
		t.Fatalf("ln=%+v err=%v", ln, err)
	}
	if _, err := rd.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReaderSyntaxErrors(t *testing.T) {
	bad := []string{
		"-4 1 5 0",               // too few columns
		"x 1 5 0 0",              // bad rectype
		"-4 999 5 0 0",           // event out of uint8
		"-4 1 zz 0 0",            // bad time
		"-4 1 5 zz 0",            // bad node
		"-4 1 5 0 xx",            // bad count
		"-4 1 5 0 1 notyped",     // field without type
		"-4 1 5 0 1 q32:5",       // unknown type
		"-4 1 5 0 1 i32:abc",     // bad int
		"-4 1 5 0 2 i32:1",       // missing field
		`-4 1 5 0 1 str:"open`,   // unterminated quote
		"-4 1 5 0 1 i32:1 i32:2", // trailing data
	}
	for _, line := range bad {
		if _, err := NewReader(strings.NewReader(line + "\n")).Next(); err == nil {
			t.Errorf("accepted malformed line %q", line)
		}
	}
}

func TestMultipleRecordsStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, TimeUTC, 0)
	for i := 0; i < 100; i++ {
		r := record.New(uint8(i%5), record.TSVal(int64(i)), record.I32Val(int32(i)))
		r.Node = int32(i % 3)
		if err := w.WriteRecord(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Lines() != 100 {
		t.Fatalf("Lines = %d", w.Lines())
	}
	rd := NewReader(&buf)
	for i := 0; i < 100; i++ {
		ln, err := rd.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if ln.TimeMicros != int64(i) || ln.Fields[0].Int() != int64(i) {
			t.Fatalf("record %d corrupted: %+v", i, ln)
		}
	}
}

func TestRecordWithoutTimestamp(t *testing.T) {
	r := record.New(1, record.I32Val(5)) // HasTS false, TS zero
	text := writeOne(t, TimeUTC, 0, r)
	ln, err := NewReader(strings.NewReader(text)).Next()
	if err != nil || ln.TimeMicros != 0 || len(ln.Fields) != 1 {
		t.Fatalf("ln=%+v err=%v", ln, err)
	}
}

func BenchmarkWriteRecord(b *testing.B) {
	r := record.New(1, record.TSVal(1),
		record.I32Val(1), record.I32Val(2), record.I32Val(3),
		record.I32Val(4), record.I32Val(5), record.I32Val(6))
	w := NewWriter(io.Discard, TimeUTC, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.WriteRecord(&r); err != nil {
			b.Fatal(err)
		}
	}
}

// failingWriter fails every write.
type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }

// TestPublishKeepsFirstError: as a manager sink the writer stops at its
// first failed write and reports that error once, from Flush.
func TestPublishKeepsFirstError(t *testing.T) {
	errFull := errors.New("disk full")
	w := NewWriter(failingWriter{errFull}, TimeUTC, 0)
	r := record.New(7, record.TSVal(1_000_500), record.StrVal(strings.Repeat("x", 512)))
	for i := 0; i < 100; i++ {
		w.Publish(&r, nil, 0)
		w.EndFlush()
	}
	if err := w.Flush(); !errors.Is(err, errFull) {
		t.Fatalf("Flush = %v, want %v", err, errFull)
	}
	if n := w.Lines(); n >= 100 {
		t.Fatalf("rendered %d lines after the destination failed", n)
	}
}

// TestAppendLineMatchesWriteRecord: the one-line renderer the public
// PICLLine and the visual sink use is WriteRecord's UTC line without the
// newline.
func TestAppendLineMatchesWriteRecord(t *testing.T) {
	r := record.New(7, record.TSVal(1_000_500), record.I32Val(-3), record.StrVal("hi"))
	r.Node = 2
	var fields [record.MaxFields]record.Value
	got, err := AppendLine([]byte("keep:"), &r, &fields)
	if err != nil {
		t.Fatal(err)
	}
	if want := "keep:" + strings.TrimSuffix(writeOne(t, TimeUTC, 0, r), "\n"); string(got) != want {
		t.Fatalf("AppendLine = %q, want %q", got, want)
	}
}
