package picl

import (
	"bytes"
	"io"
	"testing"

	"brisk/internal/record"
)

// TestAllocsWriteRecord pins the trace writer's place on the manager's
// sink hot path: rendering a line into the recycled scratch buffer with
// the strconv append functions must not allocate in steady state —
// whether the record arrives as values or, as the sorter emits it, as
// bytes the writer decodes into its own array — and both render alike.
func TestAllocsWriteRecord(t *testing.T) {
	for _, mode := range []TimeMode{TimeUTC, TimeRelative} {
		values := record.New(3, record.TSVal(1234567), record.I32Val(1),
			record.I32Val(2), record.F64Val(3.25), record.BoolVal(true))
		body, err := values.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		var scanned record.Record
		if _, err := record.Scan(&scanned, body); err != nil {
			t.Fatal(err)
		}
		var lines [2]bytes.Buffer
		for i, rec := range []*record.Record{&values, &scanned} {
			w := NewWriter(io.Discard, mode, 0)
			if err := w.WriteRecord(rec); err != nil { // warm the scratch buffer
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(1000, func() {
				if err := w.WriteRecord(rec); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("mode %v, record %d: WriteRecord allocates %.1f times, want 0", mode, i, allocs)
			}
			out := NewWriter(&lines[i], mode, 0)
			if err := out.WriteRecord(rec); err != nil || out.Flush() != nil {
				t.Fatal(err)
			}
		}
		if lines[0].Len() == 0 || lines[0].String() != lines[1].String() {
			t.Fatalf("mode %v: values render %q, bytes render %q", mode, lines[0].String(), lines[1].String())
		}
	}
}
