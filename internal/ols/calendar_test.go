package ols

import (
	"fmt"
	"math/rand"
	"testing"

	"brisk/internal/record"
)

// emission is one emitted record reduced to the fields that identify it
// exactly: source, timestamp, and the identity stamp genAdversarial puts
// in the last field. Two runs that produce equal emission slices emitted
// the same records in the same order.
type emission struct {
	src int32
	ts  int64
	id  uint64
}

// runCores pushes the schedule through a fresh sorter per core —
// interleaving Extract(at) after every arrival, then Flush — and returns
// the two emission sequences (calendar first, heap second).
func runCores(m streamModel, cfg Config, shards int) (cal, hp []emission) {
	run := func(core CoreKind) []emission {
		c := cfg
		c.Core = core
		var out []emission
		emit := func(r record.Record) {
			out = append(out, emission{r.Node, r.TS, fieldAt(r, -1).Uint()})
		}
		if shards == 0 {
			s := New(c)
			for _, a := range m.arrivals {
				s.Push(a.src, a.r, a.at)
				s.Extract(a.at, emit)
			}
			s.Flush(emit)
		} else {
			sh := NewSharded(c, shards)
			for _, a := range m.arrivals {
				sh.Push(a.src, a.r, a.at)
				sh.Extract(a.at, emit)
			}
			sh.Flush(emit)
		}
		return out
	}
	return run(CoreCalendar), run(CoreHeap)
}

// diffEmissions fails the test at the first divergence between the two
// cores' emission sequences.
func diffEmissions(t *testing.T, cal, hp []emission) {
	t.Helper()
	if len(cal) != len(hp) {
		t.Fatalf("calendar emitted %d records, heap emitted %d", len(cal), len(hp))
	}
	for i := range hp {
		if cal[i] != hp[i] {
			t.Fatalf("emission %d diverges: calendar %+v, heap %+v", i, cal[i], hp[i])
		}
	}
}

// TestCrossCoreIdentity: on adversarial schedules (stragglers, tachyons)
// under every growth policy, the calendar core emits the exact sequence
// the heap core emits — not merely an equivalent multiset. This is the
// tentpole contract: the calendar is a drop-in core, and its automatic
// heap fallback reproduces the heap byte for byte whenever the bucket
// structure cannot hold the input.
func TestCrossCoreIdentity(t *testing.T) {
	policies := []GrowPolicy{GrowToLateness, GrowDouble, GrowFixed}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, _ := genAdversarial(rng, 1+rng.Intn(6), 40+rng.Intn(80))
		cfg := Config{
			InitialT: 1 + rng.Int63n(500),
			Grow:     policies[int(seed)%len(policies)],
			HalfLife: rng.Int63n(10_000),
		}
		cal, hp := runCores(m, cfg, 0)
		diffEmissions(t, cal, hp)
	}
}

// TestShardedCrossCoreIdentity: the same identity holds through the
// shard partition and the loser-tree merge at every acceptance shard
// count — calendar and heap cores produce identical merged streams at
// shards 1, 2, 4 and 8.
func TestShardedCrossCoreIdentity(t *testing.T) {
	for _, shards := range shardCounts {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				rng := rand.New(rand.NewSource(seed * 977))
				m, _ := genAdversarial(rng, 1+rng.Intn(6), 40+rng.Intn(60))
				cfg := Config{InitialT: 200, Grow: GrowToLateness, HalfLife: 5000}
				cal, hp := runCores(m, cfg, shards)
				diffEmissions(t, cal, hp)
			}
		})
	}
}

// TestCalendarFallbackMidStream is the deterministic adversarial case
// from the issue: a tachyon burst lands so far behind the ring's frontier
// that no backward re-anchor can reach it, forcing the calendar→heap
// fallback mid-stream with records already buffered. The test proves the
// switchover is invisible in the output — emission stays monotone in TS
// and the multiset is conserved — and that the sorter returns to the
// calendar once the heap drains.
func TestCalendarFallbackMidStream(t *testing.T) {
	// T fixed at 1000 µs → bucket width calMinWidth (64 µs), so the ring
	// spans ~16.4 ms and the first push centers it with ~8.2 ms of
	// backward slack plus re-anchor room. A burst 50 ms behind the
	// frontier is out of reach of any re-anchor and must trip the
	// fallback.
	s := New(Config{InitialT: 1000, Grow: GrowFixed, Core: CoreCalendar})

	type pushed struct {
		src int32
		ts  int64
	}
	var in []pushed
	push := func(src int32, ts, now int64) {
		r := rec(ts)
		r.Fields = append(r.Fields, record.U64Val(uint64(len(in)+1)))
		in = append(in, pushed{src, ts})
		s.Push(src, r, now)
	}

	var out []pushed
	lastTS := int64(-1 << 62)
	emit := func(r record.Record) {
		if r.TS < lastTS {
			t.Fatalf("emission went backward: %d after %d", r.TS, lastTS)
		}
		lastTS = r.TS
		out = append(out, pushed{r.Node, r.TS})
	}

	// Source 1 streams records that are still inside the window — they
	// stay buffered in the calendar ring.
	for i := int64(0); i < 10; i++ {
		push(1, 100_000+i, 100_000+i)
		s.Extract(100_000+i, emit)
	}
	if got := s.Stats().HeapFallbacks; got != 0 {
		t.Fatalf("fallback fired during the in-window stream: %d", got)
	}
	if len(out) != 0 {
		t.Fatalf("emitted %d records while all are inside the window", len(out))
	}

	// The burst: source 2 delivers records stamped 50 ms in the past.
	for i := int64(0); i < 10; i++ {
		push(2, 50_000+i, 100_009)
	}
	if got := s.Stats().HeapFallbacks; got != 1 {
		t.Fatalf("HeapFallbacks = %d after the tachyon burst, want 1", got)
	}

	// The burst records are already aged (lateness ≈ 50 ms ≫ T) and must
	// emit first — still monotone, because nothing newer has been emitted.
	s.Extract(100_009, emit)
	if len(out) != 10 {
		t.Fatalf("emitted %d records after the burst aged, want the 10 tachyons", len(out))
	}
	for i, e := range out {
		if e.src != 2 || e.ts != 50_000+int64(i) {
			t.Fatalf("emission %d = %+v, want the tachyon burst in TS order", i, e)
		}
	}

	// Drain the rest; the full multiset must come out, in order.
	s.Extract(200_000, emit)
	s.Flush(emit)
	if len(out) != len(in) {
		t.Fatalf("emitted %d records, pushed %d", len(out), len(in))
	}
	if s.Buffered() != 0 {
		t.Fatalf("buffered %d after flush", s.Buffered())
	}

	// With the heap drained the sorter reverts to the calendar: the next
	// push must land in a bucket, not a queue.
	push(1, 300_000, 300_000)
	if got := s.MaxBucketOccupancy(); got != 1 {
		t.Fatalf("MaxBucketOccupancy = %d after revert, want 1 (record in a bucket)", got)
	}
	if got := s.Stats().HeapFallbacks; got != 1 {
		t.Fatalf("HeapFallbacks grew to %d after revert, want still 1", got)
	}
	s.Flush(emit)
}

// TestBucketBoundaryTimestamps pins the aging gate and bucket-edge
// placement for both cores: a record emits exactly when now − TS == T,
// not one microsecond sooner, and records landing exactly on bucket
// edges (ts == frontier, ts == frontier + T) neither vanish nor reorder.
func TestBucketBoundaryTimestamps(t *testing.T) {
	for _, core := range []CoreKind{CoreCalendar, CoreHeap} {
		core := core
		t.Run(core.String(), func(t *testing.T) {
			const T = 640 // bucket width calMinWidth under the calendar core
			s := New(Config{InitialT: T, Grow: GrowFixed, Core: core})
			s.Push(1, rec(10_000), 10_000)
			n := s.Extract(10_000+T-1, func(record.Record) {})
			if n != 0 {
				t.Fatalf("record emitted at age T-1")
			}
			n = s.Extract(10_000+T, func(record.Record) {})
			if n != 1 {
				t.Fatalf("record not emitted at age exactly T")
			}

			// Edge placements relative to the first push that anchors the
			// ring: exactly on the frontier timestamp, exactly one window
			// later, and every bucket-width multiple in between.
			var want []int64
			s.Push(1, rec(20_000), 20_000)
			want = append(want, 20_000)
			for i, ts := range []int64{20_000 + T, 20_000 + T/2, 20_001, 20_000 + T - 1} {
				// One source per edge timestamp: per-source FIFO order is a
				// standing contract, so a single source pushing out of order
				// would (correctly) emit in push order, not TS order.
				s.Push(2+int32(i), rec(ts), 20_000)
				want = append(want, ts)
			}
			var got []int64
			s.Flush(func(r record.Record) { got = append(got, r.TS) })
			if len(got) != len(want) {
				t.Fatalf("flushed %d records, want %d", len(got), len(want))
			}
			prev := int64(-1)
			for _, ts := range got {
				if ts < prev {
					t.Fatalf("flush order not monotone: %v", got)
				}
				prev = ts
			}
		})
	}
}

// TestAllocsSteadyStateBothCores pins AllocsPerRun == 0 on the sorter
// hot path for each core explicitly (the default-config alloc tests
// exercise whatever the default core is; this one outlives any future
// default flip), bare and sharded.
func TestAllocsSteadyStateBothCores(t *testing.T) {
	for _, core := range []CoreKind{CoreCalendar, CoreHeap} {
		core := core
		t.Run("sorter/"+core.String(), func(t *testing.T) {
			s := New(Config{InitialT: 10, Grow: GrowFixed, Core: core})
			emit := func(record.Record) {}
			now := int64(0)
			warmA, warmB := rec(0), rec(1)
			for i := 0; i < 4096; i++ {
				now += 100
				warmA.SetTS(now)
				warmB.SetTS(now + 1)
				s.Push(1, warmA, now)
				s.Push(2, warmB, now)
				s.Extract(now, emit)
			}
			s.Flush(emit)
			allocs := testing.AllocsPerRun(1000, func() {
				now += 100
				warmA.SetTS(now)
				warmB.SetTS(now + 1)
				s.Push(1, warmA, now)
				s.Push(2, warmB, now)
				s.Extract(now, emit)
			})
			if allocs != 0 {
				t.Fatalf("steady-state push/extract allocates %.1f times, want 0", allocs)
			}
		})
		t.Run("sharded/"+core.String(), func(t *testing.T) {
			sh := NewSharded(Config{InitialT: 10, Grow: GrowFixed, Core: core}, 4)
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
		})
	}
}

// FuzzSorterCores feeds arbitrary byte-derived schedules — including
// per-source timestamp regressions, which violate the transport
// invariant on purpose — to both cores and requires identical emission
// sequences. The fallback makes the identity unconditional, so the fuzz
// target needs no input constraints at all.
func FuzzSorterCores(f *testing.F) {
	// Seed: a calm in-order stream.
	f.Add([]byte{0, 10, 5, 1, 10, 5, 0, 10, 5, 1, 10, 5})
	// Seed: bucket-boundary timestamps — deltas of exactly 10 (one bucket
	// width at T=640) and arrivals at exactly age T, so records sit on
	// ts == frontier and age out at now − TS == T precisely.
	f.Add([]byte{0, 64 + 10, 128, 0, 64 + 10, 128, 1, 64, 128, 0, 64 + 10, 128})
	// Seed: a regression (delta byte < 64 walks TS backward) mid-stream —
	// the same-source monotonicity fallback.
	f.Add([]byte{0, 100, 5, 0, 3, 5, 0, 100, 5})
	// Seed: a far tachyon (maximum backward step) behind the frontier.
	f.Add([]byte{0, 255, 0, 1, 0, 0, 0, 255, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 600 {
			data = data[:600]
		}
		var m streamModel
		ts := map[int32]int64{1: 10_000, 2: 10_000, 3: 10_000}
		now := int64(10_000)
		for i := 0; i+2 < len(data); i += 3 {
			src := int32(data[i]%3) + 1
			// Delta byte is biased: values ≥ 64 advance the source's clock,
			// values below walk it backward (tachyons/regressions).
			ts[src] += int64(data[i+1]) - 64
			now += int64(data[i+2]) / 4
			r := rec(ts[src])
			r.Fields = append(r.Fields, record.U64Val(uint64(i+1)))
			m.arrivals = append(m.arrivals, arrival{src, r, now})
		}
		if len(m.arrivals) == 0 {
			t.Skip("no arrivals decoded")
		}
		cal, hp := runCores(m, Config{InitialT: 640, Grow: GrowFixed}, 0)
		diffEmissions(t, cal, hp)
		calSh, hpSh := runCores(m, Config{InitialT: 640, Grow: GrowFixed}, 4)
		diffEmissions(t, calSh, hpSh)
	})
}
