package brisk

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"brisk/internal/record"
	"brisk/internal/shm"
)

// bufferEntries encodes recs the way the manager's memory-buffer sink
// does: the node id, big-endian, then the record's own bytes.
func bufferEntries(t testing.TB, recs []record.Record) [][]byte {
	t.Helper()
	entries := make([][]byte, len(recs))
	for i := range recs {
		n := uint32(recs[i].Node)
		e, err := recs[i].Append([]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)})
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = e
	}
	return entries
}

// TestConsumerRecordsKeepTheirFields holds every record across several
// chunks' worth of reads: each must still carry what was published, and
// appending to one record's Fields must not reach the next record's.
func TestConsumerRecordsKeepTheirFields(t *testing.T) {
	want := make([]record.Record, 3*consumerChunk/4)
	for i := range want {
		fields := []record.Value{record.TSVal(int64(1000 + i))}
		for j := 1; j <= i%record.MaxFields; j++ {
			switch j % 3 {
			case 0:
				fields = append(fields, record.StrVal(fmt.Sprintf("s%d.%d", i, j)))
			case 1:
				fields = append(fields, record.I32Val(int32(-i*j)))
			default:
				fields = append(fields, record.U64Val(uint64(i)<<32|uint64(j)))
			}
		}
		want[i] = record.New(uint8(i%7), fields...)
		want[i].Node = int32(i % 5)
	}
	if total := len(want) * (1 + record.MaxFields) / 2; total < 2*consumerChunk {
		t.Fatalf("test spans %d field values, want more than two chunks", total)
	}
	b := shm.NewBuffer(2 * len(want))
	b.PublishBatch(bufferEntries(t, want))
	c := &Consumer{cur: b.NewCursor()}
	got := make([]Record, len(want))
	for i := range got {
		var ok bool
		if i%2 == 0 {
			got[i], ok = c.Next()
		} else {
			got[i], ok = c.TryNext()
		}
		if !ok {
			t.Fatalf("record %d: stream ended early", i)
		}
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Node != w.Node || g.Event != w.Event || g.TS != w.TS || !reflect.DeepEqual(g.Fields, w.Fields) {
			t.Fatalf("record %d = node %d event %d ts %d %v, want node %d event %d ts %d %v",
				i, g.Node, g.Event, g.TS, g.Fields, w.Node, w.Event, w.TS, w.Fields)
		}
		if cap(g.Fields) != len(g.Fields) {
			t.Fatalf("record %d: Fields cap %d > len %d", i, cap(g.Fields), len(g.Fields))
		}
	}
	for i := 0; i+1 < len(got); i++ {
		next := slices.Clone(got[i+1].Fields)
		_ = append(got[i].Fields, record.I32Val(-1), record.I32Val(-2))
		if !reflect.DeepEqual(got[i+1].Fields, next) {
			t.Fatalf("appending to record %d's Fields changed record %d: %v, was %v", i, i+1, got[i+1].Fields, next)
		}
	}
	if c.Lost != 0 {
		t.Fatalf("consumer lost %d records", c.Lost)
	}
}

// TestAllocsConsumerNext pins the consumer's read path: with the entry
// buffer grown, a numeric record costs only its share of a Fields chunk.
func TestAllocsConsumerNext(t *testing.T) {
	const perRun = 1024
	recs := make([]record.Record, perRun)
	for i := range recs {
		recs[i] = record.New(3, record.TSVal(int64(i)), record.I32Val(int32(i)), record.I32Val(7), record.U64Val(uint64(i)))
	}
	entries := bufferEntries(t, recs)
	b := shm.NewBuffer(2 * perRun)
	c := &Consumer{cur: b.NewCursor()}
	allocs := testing.AllocsPerRun(50, func() {
		b.PublishBatch(entries)
		for range entries {
			if _, ok := c.TryNext(); !ok {
				t.Fatal("reader starved")
			}
		}
	})
	if per := allocs / perRun; per > 0.01 {
		t.Fatalf("Consumer.TryNext allocates %.4f times per record, want ≤ 0.01", per)
	}
}

// TestConsumerLappedAcrossRuns laps a consumer again and again while it
// reads with Next and TryNext in turn, some records at a time: records
// come back in order, none twice, every gap is one Lost counted, and once
// the buffer closes Lost plus the records returned is everything written.
// Records are small, so each buffer read copies a run of many and the
// consumer keeps a partial run across publishes that lap the buffer.
func TestConsumerLappedAcrossRuns(t *testing.T) {
	const capacity, total = 50, 4000
	recs := make([]record.Record, total)
	for i := range recs {
		recs[i] = record.New(1, record.TSVal(int64(i)), record.I32Val(int32(i)))
	}
	entries := bufferEntries(t, recs)
	b := shm.NewBuffer(capacity)
	c := &Consumer{cur: b.NewCursor()}
	var returned uint64
	want := int64(0) // the lowest TS the next record may carry
	read := func(i int) bool {
		var rec Record
		var ok bool
		if i%2 == 0 {
			rec, ok = c.TryNext()
		} else {
			rec, ok = c.Next()
		}
		if !ok {
			return false
		}
		if rec.TS < want {
			t.Fatalf("record %d returned after %d: a repeat or out of order", rec.TS, want-1)
		}
		if skipped := uint64(rec.TS) - returned; skipped != c.Lost {
			t.Fatalf("record %d after %d returned: %d skipped, Lost %d", rec.TS, returned, skipped, c.Lost)
		}
		want = rec.TS + 1
		returned++
		return true
	}
	for published, step := 0, 0; published < total; step++ {
		n := min(1+step*7%(3*capacity), total-published)
		b.PublishBatch(entries[published : published+n])
		published += n
		for i := 0; i < step%5*7 && read(i); i++ {
		}
	}
	b.Close()
	for i := 0; read(i); i++ {
	}
	if c.Lost == 0 || returned <= capacity {
		t.Fatalf("test did not exercise lapping: returned %d, lost %d", returned, c.Lost)
	}
	if returned+c.Lost != total {
		t.Fatalf("returned %d + lost %d = %d, want %d", returned, c.Lost, returned+c.Lost, total)
	}
}

// BenchmarkConsumerNext is the Consumer's per-record read cost: ns/op and
// allocs/rec are per record returned by Next, for small numeric records
// already in the memory buffer (publishing them is outside the timer).
func BenchmarkConsumerNext(b *testing.B) {
	const perFill = 8192
	recs := make([]record.Record, perFill)
	for i := range recs {
		recs[i] = record.New(3, record.TSVal(int64(i)), record.I32Val(int32(i)), record.I32Val(7), record.U64Val(uint64(i)))
	}
	entries := bufferEntries(b, recs)
	buf := shm.NewBuffer(perFill)
	c := &Consumer{cur: buf.NewCursor()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perFill == 0 {
			b.StopTimer()
			buf.PublishBatch(entries)
			b.StartTimer()
		}
		if _, ok := c.Next(); !ok {
			b.Fatal("stream ended")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/rec")
}
