package ols

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"brisk/internal/record"
)

// shardCounts are the fan-outs the property tests generalize over, per
// the acceptance bar: 1 must match the single sorter, {2,4,8} must keep
// the global contract.
var shardCounts = []int{1, 2, 4, 8}

// TestShardedSingleShardMatchesSorter: with one shard, Sharded is the
// same code path as a bare Sorter — identical emission sequence
// (source, timestamp, identity) on an adversarial schedule.
func TestShardedSingleShardMatchesSorter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, _ := genAdversarial(rng, 5, 80)
	cfg := Config{InitialT: 300, Grow: GrowToLateness, HalfLife: 5000}

	type ev struct {
		src int32
		ts  int64
		id  uint64
	}
	run := func(push func(int32, record.Record, int64), extract func(int64, func(record.Record)) int, flush func(func(record.Record)) int) []ev {
		var out []ev
		emit := func(r record.Record) {
			out = append(out, ev{r.Node, r.TS, fieldAt(r, -1).Uint()})
		}
		for _, a := range m.arrivals {
			push(a.src, a.r, a.at)
			extract(a.at, emit)
		}
		flush(emit)
		return out
	}

	s := New(cfg)
	want := run(s.Push, s.Extract, s.Flush)
	sh := NewSharded(cfg, 1)
	got := run(sh.Push, sh.Extract, sh.Flush)

	if len(got) != len(want) {
		t.Fatalf("emitted %d records, single sorter emitted %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emission %d diverges: sharded %+v, sorter %+v", i, got[i], want[i])
		}
	}
}

// TestShardedPropertyMultisetConserved: for every shard count, under
// stragglers and tachyons and any growth policy, the sharded sorter
// neither loses nor duplicates a record and per-source FIFO order
// survives the shard partition and the k-way merge.
func TestShardedPropertyMultisetConserved(t *testing.T) {
	for _, shards := range shardCounts {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := func(seed int64, policyPick uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				m, in := genAdversarial(rng, 1+rng.Intn(6), 40+rng.Intn(60))
				policy := []GrowPolicy{GrowToLateness, GrowDouble, GrowFixed}[int(policyPick)%3]
				sh := NewSharded(Config{InitialT: 1 + rng.Int63n(500), Grow: policy,
					HalfLife: rng.Int63n(10_000)}, shards)
				out := make(map[uint64]int, len(in))
				perSourceLast := map[int32]int64{}
				emit := func(r record.Record) {
					id := fieldAt(r, -1).Uint()
					out[key(r.Node, r.TS, id)]++
					if last, ok := perSourceLast[r.Node]; ok && r.TS < last {
						t.Errorf("per-source order violated for source %d", r.Node)
					}
					perSourceLast[r.Node] = r.TS
				}
				for _, a := range m.arrivals {
					sh.Push(a.src, a.r, a.at)
					sh.Extract(a.at, emit)
				}
				sh.Flush(emit)
				if len(out) != len(in) {
					return false
				}
				for k, n := range in {
					if out[k] != n {
						t.Errorf("key %x: in %d, out %d (lost or duplicated)", k, n, out[k])
						return false
					}
				}
				st := sh.Stats()
				if st.Pushed != uint64(len(m.arrivals)) || st.Emitted != uint64(len(m.arrivals)) {
					t.Errorf("stats: pushed %d emitted %d, want %d", st.Pushed, st.Emitted, len(m.arrivals))
					return false
				}
				return sh.Buffered() == 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedPropertyMonotoneWhenTCovers: when the time frame covers
// the adversarial lateness, the merged emission stream is globally
// non-decreasing in timestamp for every shard count — the tentpole
// guarantee that partitioning the heap does not break the ordering
// contract — and the cross-shard frontier records no inversions.
func TestShardedPropertyMonotoneWhenTCovers(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				m, in := genAdversarial(rng, 1+rng.Intn(5), 30+rng.Intn(60))
				sh := NewSharded(Config{InitialT: m.maxLate + 1, Grow: GrowFixed}, shards)
				var lastTS int64
				n := 0
				ok := true
				emit := func(r record.Record) {
					if n > 0 && r.TS < lastTS {
						ok = false
					}
					lastTS = r.TS
					n++
				}
				for _, a := range m.arrivals {
					sh.Push(a.src, a.r, a.at)
					sh.Extract(a.at, emit)
				}
				sh.Flush(emit)
				return ok && n == len(in) && sh.Stats().Inversions == 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedMoreShardsThanSources: shard count exceeding the source
// count leaves some shards permanently empty; the merge must still
// drain the live ones in order.
func TestShardedMoreShardsThanSources(t *testing.T) {
	sh := NewSharded(Config{InitialT: 10, Grow: GrowFixed}, 8)
	sh.Push(1, rec(100), 100)
	sh.Push(2, rec(50), 100)
	sh.Push(1, rec(200), 200)
	var out []int64
	sh.Extract(1000, func(r record.Record) { out = append(out, r.TS) })
	want := []int64{50, 100, 200}
	if len(out) != len(want) {
		t.Fatalf("emitted %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("emitted %v, want %v", out, want)
		}
	}
	if sh.Buffered() != 0 {
		t.Fatalf("buffered %d after drain", sh.Buffered())
	}
}

// TestShardedTimestampTiesDeterministic: equal timestamps across shards
// merge in shard-index order, so repeated runs produce one byte-stable
// stream.
func TestShardedTimestampTiesDeterministic(t *testing.T) {
	var first []int32
	for trial := 0; trial < 5; trial++ {
		sh := NewSharded(Config{InitialT: 1, Grow: GrowFixed}, 4)
		for src := int32(1); src <= 8; src++ {
			r := rec(500)
			sh.Push(src, r, 500)
		}
		var order []int32
		sh.Flush(func(r record.Record) { order = append(order, r.Node) })
		if trial == 0 {
			first = order
			continue
		}
		for i := range first {
			if order[i] != first[i] {
				t.Fatalf("trial %d tie order %v, first trial %v", trial, order, first)
			}
		}
	}
}

// TestShardedAggregateMaxBuffered: MaxBuffered bounds the *aggregate*
// occupancy across shards, not each shard separately, and the drops are
// accounted and harvestable exactly as with one sorter.
func TestShardedAggregateMaxBuffered(t *testing.T) {
	sh := NewSharded(Config{InitialT: 10, MaxBuffered: 100, Grow: GrowFixed}, 4)
	for i := 0; i < 200; i++ {
		src := int32(i%8 + 1)
		sh.Push(src, rec(int64(1000+i)), 0) // now=0: nothing is emittable
	}
	if got := sh.Buffered(); got != 100 {
		t.Fatalf("buffered %d, want the global bound 100", got)
	}
	st := sh.Stats()
	if st.DroppedFull != 100 {
		t.Fatalf("dropped %d, want 100", st.DroppedFull)
	}
	var harvested uint64
	sh.TakeLosses(func(src int32, count uint64, firstTS, lastTS int64) {
		harvested += count
		if firstTS > lastTS {
			t.Errorf("source %d: loss range [%d,%d] inverted", src, firstTS, lastTS)
		}
	})
	if harvested != 100 {
		t.Fatalf("harvested %d losses, want 100", harvested)
	}
	// Loss markers stay exempt from the bound even at full aggregate.
	marker := record.NewLossMarker(5, 10, 20)
	sh.Push(3, marker, 0)
	if got := sh.Buffered(); got != 101 {
		t.Fatalf("buffered %d after marker push, want 101", got)
	}
}

// TestShardedConcurrentConservation: the concurrency contract under the
// race detector — one pusher goroutine per source against a live merger
// — still conserves the multiset and per-source FIFO order for every
// shard count.
func TestShardedConcurrentConservation(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const sources = 8
			const perSource = 400
			sh := NewSharded(Config{InitialT: 50, Grow: GrowToLateness, HalfLife: 2000}, shards)

			var clock atomic.Int64
			var wg sync.WaitGroup
			for src := int32(1); src <= sources; src++ {
				wg.Add(1)
				go func(src int32) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(src)))
					ts := int64(0)
					for i := 0; i < perSource; i++ {
						ts += 1 + rng.Int63n(50)
						r := rec(ts)
						r.Fields = append(r.Fields, record.U64Val(uint64(src)<<32|uint64(i)))
						at := ts + rng.Int63n(200)
						for {
							prev := clock.Load()
							if at <= prev || clock.CompareAndSwap(prev, at) {
								break
							}
						}
						sh.Push(src, r, at)
					}
				}(src)
			}

			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()

			out := make(map[uint64]int, sources*perSource)
			perSourceLast := map[int32]int64{}
			emit := func(r record.Record) {
				id := fieldAt(r, -1).Uint()
				out[key(r.Node, r.TS, id)]++
				if last, ok := perSourceLast[r.Node]; ok && r.TS < last {
					t.Errorf("per-source order violated for source %d", r.Node)
				}
				perSourceLast[r.Node] = r.TS
			}
			for {
				select {
				case <-done:
					sh.Flush(emit)
					if got, want := len(out), sources*perSource; got != want {
						t.Fatalf("distinct records out %d, want %d", got, want)
					}
					for k, n := range out {
						if n != 1 {
							t.Fatalf("key %x emitted %d times", k, n)
						}
					}
					if sh.Buffered() != 0 {
						t.Fatalf("buffered %d after flush", sh.Buffered())
					}
					st := sh.Stats()
					if st.Pushed != uint64(sources*perSource) || st.Emitted != st.Pushed {
						t.Fatalf("stats pushed %d emitted %d, want %d", st.Pushed, st.Emitted, sources*perSource)
					}
					return
				default:
					sh.Extract(clock.Load(), emit)
					time.Sleep(100 * time.Microsecond)
				}
			}
		})
	}
}

// TestAllocsShardedSteadyState pins the sharded sorter's steady-state
// zero-allocation contract: once queue slots, merge runs and the loser
// tree are warm, a push/extract/merge cycle allocates nothing — the
// Fields arrays circulate between shard queue slots and merge-run slots
// via extractSwap.
func TestAllocsShardedSteadyState(t *testing.T) {
	sh := NewSharded(Config{InitialT: 10, Grow: GrowFixed}, 4)
	emit := func(record.Record) {}
	const sources = 8
	now := int64(0)
	warm := make([]record.Record, sources)
	for i := range warm {
		warm[i] = rec(0)
	}
	for i := 0; i < 4096; i++ {
		now += 100
		for s := int32(1); s <= sources; s++ {
			warm[s-1].SetTS(now + int64(s))
			sh.Push(s, warm[s-1], now)
		}
		sh.Extract(now, emit)
	}
	sh.Flush(emit)
	allocs := testing.AllocsPerRun(1000, func() {
		now += 100
		for s := int32(1); s <= sources; s++ {
			warm[s-1].SetTS(now + int64(s))
			sh.Push(s, warm[s-1], now)
		}
		sh.Extract(now, emit)
	})
	if allocs != 0 {
		t.Fatalf("steady-state sharded push/extract allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkShardedSorter measures the sorter stage alone — parallel
// per-source pushers against one merger — at increasing shard counts.
func BenchmarkShardedSorter(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const sources = 8
			sh := NewSharded(Config{InitialT: 1, Grow: GrowFixed}, shards)
			perSource := b.N/sources + 1
			protos := make([]record.Record, sources)
			for i := range protos {
				protos[i] = rec(0)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for src := int32(1); src <= sources; src++ {
				wg.Add(1)
				go func(src int32) {
					defer wg.Done()
					r := protos[src-1]
					for i := 0; i < perSource; i++ {
						ts := int64(i)*sources + int64(src)
						r.SetTS(ts)
						sh.Push(src, r, ts+1_000_000)
					}
				}(src)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			emit := func(record.Record) {}
			for {
				select {
				case <-done:
					sh.Flush(emit)
					wg.Wait()
					return
				default:
					sh.Extract(int64(perSource)*sources+2_000_000, emit)
				}
			}
		})
	}
}
