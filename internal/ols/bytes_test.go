package ols

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"brisk/internal/record"
)

// TestSortKeyIsSmallAndPointerFree pins the storage contract the sorter's
// speed rests on: the unit it orders is at most 32 bytes and holds no
// pointer of any kind, so sorting moves little and the garbage collector
// skips whole slabs of keys.
func TestSortKeyIsSmallAndPointerFree(t *testing.T) {
	typ := reflect.TypeOf(sortKey{})
	if size := unsafe.Sizeof(sortKey{}); size > 32 {
		t.Fatalf("sortKey is %d bytes, want ≤ 32", size)
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Bool:
		default:
			t.Fatalf("sortKey.%s is a %v: only fixed-size scalars are pointer-free", f.Name, f.Type.Kind())
		}
	}
}

// wirePayload encodes n seven-field records the way a sensor would, with
// timestamps base, base+step, ….
func wirePayload(t testing.TB, n int, base, step int64) []byte {
	t.Helper()
	var payload []byte
	for i := 0; i < n; i++ {
		r := record.New(1, record.TSVal(base+int64(i)*step), record.I32Val(int32(i)), record.I32Val(2),
			record.I32Val(3), record.I32Val(4), record.I32Val(5), record.I32Val(6))
		var err error
		if payload, err = r.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	return payload
}

// TestAllocsScanPushExtractEncode pins the whole byte path at zero
// allocations per batch on both cores, single and sharded: scan a wire
// payload into a recycled batch, push it, extract what aged, and encode
// each emitted record for the sink into a recycled buffer. It also checks
// that what comes out is, byte for byte, what went in.
func TestAllocsScanPushExtractEncode(t *testing.T) {
	const batch = 64
	for _, core := range []CoreKind{CoreCalendar, CoreHeap} {
		for _, shards := range []int{1, 4} {
			sh := NewSharded(Config{InitialT: 10, Grow: GrowFixed, Core: core}, shards)
			payload := wirePayload(t, batch, 0, 1)
			recs := make([]record.Record, 0, batch)
			sink := make([]byte, 0, 1<<16)
			var encErr error
			emit := func(r record.Record) {
				sink, encErr = r.Append(sink)
			}
			now := int64(0)
			cycle := func() {
				now += 1000
				// Restamp in place, as a sender would between batches.
				for off, i := 0, 0; i < batch; i++ {
					_, tsOff, _ := record.PeekTS(payload[off:])
					record.PatchTS(payload[off:], tsOff, now+int64(i))
					n, _ := record.PeekSize(payload[off:])
					off += n
				}
				var err error
				if recs, err = record.ScanAppend(recs[:0], payload); err != nil {
					t.Fatal(err)
				}
				sh.PushBatch(int32(1+now%7), recs, now+batch)
				sink = sink[:0]
				sh.Extract(now+batch+10, emit)
			}
			for i := 0; i < 2048; i++ {
				cycle()
			}
			if encErr != nil || !bytes.Equal(sink, payload) {
				t.Fatalf("%v/shards=%d: emitted bytes differ from the pushed payload (%v)", core, shards, encErr)
			}
			if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
				t.Fatalf("%v/shards=%d: scan→push→extract→encode allocates %.1f times per batch, want 0", core, shards, allocs)
			}
		}
	}
}

// TestRecordWithoutTimestampSortedByArrival: a record with no TS field is
// ordered by the time it arrived. With room for another field it leaves
// stamped with that time; at MaxFields it has no room, and leaves as the
// bytes it came in as instead of being lost to an unencodable ninth
// field.
func TestRecordWithoutTimestampSortedByArrival(t *testing.T) {
	for _, core := range []CoreKind{CoreCalendar, CoreHeap} {
		s := New(Config{InitialT: 10, Grow: GrowFixed, Core: core})
		narrow := record.New(3, record.I32Val(7))
		full := record.New(4, record.I32Val(1), record.I32Val(2), record.I32Val(3), record.I32Val(4),
			record.I32Val(5), record.I32Val(6), record.I32Val(7), record.I32Val(8))
		fullBytes, err := full.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Push(1, rec(150), 100)
		s.Push(2, narrow, 120)
		s.Push(3, full, 130)
		var got []record.Record
		var enc [][]byte
		s.Extract(1000, func(r record.Record) {
			b, err := r.Append(nil)
			if err != nil {
				t.Fatalf("%v: emitted record does not encode: %v", core, err)
			}
			enc = append(enc, b)
			r.Detach()
			got = append(got, r)
		})
		if len(got) != 3 || got[0].Node != 2 || got[1].Node != 3 || got[2].Node != 1 {
			t.Fatalf("%v: emission order %+v, want sources 2, 3, 1 (arrival 120, arrival 130, ts 150)", core, got)
		}
		if !got[0].HasTS || got[0].TS != 120 || fieldAt(got[0], 0) != record.TSVal(120) || fieldAt(got[0], 1) != record.I32Val(7) {
			t.Fatalf("%v: narrow record not stamped with its arrival: %+v", core, got[0])
		}
		if got[1].HasTS || got[1].TS != 130 || !bytes.Equal(enc[1], fullBytes) {
			t.Fatalf("%v: full-width record: HasTS=%v TS=%d bytes % x, want header time 130 over unchanged bytes % x",
				core, got[1].HasTS, got[1].TS, enc[1], fullBytes)
		}
		if st := s.Stats(); st.Emitted != 3 || st.DroppedFull != 0 {
			t.Fatalf("%v: stats %+v", core, st)
		}
	}
}

// TestUnencodableRecordIsDroppedWithAccounting: the sorter stores bytes,
// so a record it cannot encode (only an in-process caller can build one)
// is refused at Push — counted and covered by the loss accumulator like
// any other drop, never lost silently downstream.
func TestUnencodableRecordIsDroppedWithAccounting(t *testing.T) {
	s := New(Config{InitialT: 10})
	bad := record.New(1, record.TSVal(5), record.Value{Type: record.Invalid})
	s.Push(1, bad, 10)
	if s.Buffered() != 0 || s.SlabBytes() != 0 {
		t.Fatalf("unencodable record buffered: %d records, %d bytes", s.Buffered(), s.SlabBytes())
	}
	var lost uint64
	s.TakeLosses(func(src int32, n uint64, first, last int64) {
		if src != 1 || first != 5 || last != 5 {
			t.Fatalf("loss attributed to source %d range [%d,%d]", src, first, last)
		}
		lost += n
	})
	if st := s.Stats(); lost != 1 || st.DroppedFull != 1 || st.SourceDrops[1] != 1 {
		t.Fatalf("lost %d, stats %+v", lost, st)
	}
}

// TestSlabBytesTracksBufferedBodies: SlabBytes is the encoded size of what
// is buffered, up on push and down on extract, per shard and in sum.
func TestSlabBytesTracksBufferedBodies(t *testing.T) {
	sh := NewSharded(Config{InitialT: 100, Grow: GrowFixed}, 2)
	r := rec(1000)
	size := r.WireSize()
	sh.Push(1, r, 1000)
	sh.Push(2, r, 1000)
	sh.Push(3, r, 1000)
	if got := sh.SlabBytes(); got != 3*size {
		t.Fatalf("SlabBytes = %d, want %d", got, 3*size)
	}
	if a, b := sh.ShardSlabBytes(0), sh.ShardSlabBytes(1); a != size || b != 2*size {
		t.Fatalf("per-shard bytes %d/%d, want %d/%d", a, b, size, 2*size)
	}
	sh.Flush(func(record.Record) {})
	if got := sh.SlabBytes(); got != 0 {
		t.Fatalf("SlabBytes after flush = %d", got)
	}
}

// TestShardedOneGateKeepsMergeMonotone: shards adapt their time frames
// separately, but a pass must age every shard by the widest one. Gated by
// its own narrow T, a shard of punctual sources ran ahead and everything a
// wider shard emitted afterwards came out behind the merged frontier even
// though no record was late.
func TestShardedOneGateKeepsMergeMonotone(t *testing.T) {
	sh := NewSharded(Config{InitialT: 100, Grow: GrowToLateness}, 2)
	var out []int64
	emit := func(r record.Record) { out = append(out, r.TS) }
	// Source 1 (shard 1) emits first; source 2 (shard 0) then arrives 4500 µs
	// late behind it, which widens shard 0's frame and only shard 0's.
	sh.Push(1, rec(1000), 1000)
	sh.Extract(1200, emit)
	sh.Push(2, rec(500), 5000)
	if t0, t1 := sh.ShardTimeFrame(0), sh.ShardTimeFrame(1); t0 != 4500 || t1 != 100 {
		t.Fatalf("time frames %d/%d, want 4500/100", t0, t1)
	}
	// Both sources are now punctual; source 2's record is the older one.
	sh.Push(2, rec(5900), 6000)
	sh.Push(1, rec(5950), 6000)
	for now := int64(6100); now <= 11000; now += 100 {
		sh.Extract(now, emit)
	}
	want := []int64{1000, 500, 5900, 5950}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("merged emission %v, want %v", out, want)
	}
}
