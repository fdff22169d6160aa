package subscribe

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"brisk/internal/record"
)

// queryReference is the brute-force Query: decode every reachable entry
// oldest-first, sort by emission sequence, keep the newest limit.
func queryReference(e *Engine, f *Filter, limit int) []Event {
	var out []Event
	mask := f.shardMask(len(e.cache.shards))
	for i, sh := range e.cache.shards {
		if mask&(1<<i) == 0 {
			continue
		}
		tail, _ := sh.bounds()
		loadedE, arena, _, _, _, _, _ := sh.load(f, tail, 1<<30, nil, nil)
		for _, l := range loadedE {
			var dec record.Record
			if _, err := record.DecodeInto(&dec, arena[l.off+4:l.end]); err != nil {
				continue
			}
			dec.Node = l.node
			if f.NeedsFields() && !f.MatchFields(&dec) {
				continue
			}
			out = append(out, Event{Seq: l.seq, Shard: i, Record: dec})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	if len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// fillQueryEngine publishes n records from 13 sources with mixed event
// classes, timestamps and field shapes (some without a TS, some with a
// string) into a window small enough to wrap every shard's ring.
func fillQueryEngine(t *testing.T, e *Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var rec record.Record
		switch i % 5 {
		case 0:
			rec = record.New(uint8(i%4), record.I32Val(int32(i%200)), record.U8Val(uint8(i%7)))
		case 1:
			rec = record.New(uint8(i%4), record.TSVal(int64(i)), record.I32Val(int32(i%200)),
				record.StrVal(fmt.Sprintf("s%d", i%3)))
		default:
			rec = record.New(uint8(i%4), record.TSVal(int64(i)), record.I32Val(int32(i%200)),
				record.U8Val(uint8(i%7)), record.F64Val(float64(i)/3))
		}
		rec.Node = int32(i % 13)
		e.Publish(&rec, encode(t, &rec), 1)
	}
	e.EndFlush()
}

// TestQueryMatchesReference compares the newest-first Query with the
// brute-force reference across shard counts, read windows, metadata and
// field filters, and limits from 1 to more than the window holds.
func TestQueryMatchesReference(t *testing.T) {
	filters := []string{"", "node=3", "event=1,2", "ts>=2500", "node=2,5 event=0",
		"f1>=150", "f0<50 && node=4,7", `f2=="s1"`, "f1==9999"}
	for _, shards := range []int{1, 4, 8} {
		for _, batch := range []int{16, 0} {
			e := New(Config{Shards: shards, WindowBytes: shards * 8 << 10, BatchRecords: batch})
			fillQueryEngine(t, e, 4000)
			for _, sh := range e.cache.shards {
				if tail, _ := sh.bounds(); tail == 0 {
					t.Fatalf("shards=%d: a shard never evicted, so its ring did not wrap", shards)
				}
			}
			for _, expr := range filters {
				for _, limit := range []int{1, 7, 1000, 1 << 20} {
					got := e.Query(mustFilter(t, expr), limit)
					want := queryReference(e, mustFilter(t, expr), limit)
					if len(want) == 0 && expr != "f1==9999" {
						t.Fatalf("filter %q matches nothing: the case tests little", expr)
					}
					if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
						t.Fatalf("shards=%d batch=%d filter=%q limit=%d: Query returned %d events, reference %d",
							shards, batch, expr, limit, len(got), len(want))
					}
				}
			}
			e.Close()
		}
	}
}

// TestAllocsQueryNewest: a small query over a full window allocates for
// what it returns, not for what the window holds.
func TestAllocsQueryNewest(t *testing.T) {
	e := New(Config{Shards: 1, WindowBytes: 1 << 20})
	defer e.Close()
	for i := 0; i < 40_000; i++ {
		publish(t, e, 1, 1, int64(i), 1, record.I32Val(1), record.I32Val(2), record.I32Val(3),
			record.I32Val(4), record.I32Val(5), record.I32Val(int32(i)))
	}
	e.EndFlush()
	if n, _, _ := e.cache.stats(); n < 20_000 {
		t.Fatalf("window holds %d entries, want ~20k", n)
	}
	if evs := e.Query(nil, 10); len(evs) != 10 || evs[9].Seq != 40_000-1 {
		t.Fatalf("Query(nil, 10) = %d events, want the newest 10", len(evs))
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		e.Query(nil, 10)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 16<<10 {
		t.Fatalf("Query(nil, 10) allocates %d B per call over a ~20k-entry window, want < 16 KiB", per)
	}
}
