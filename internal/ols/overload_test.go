package ols

import (
	"math/rand"
	"testing"

	"brisk/internal/record"
)

// srcRec builds a record whose payload identifies its source, so emitted
// records can be attributed back in conservation checks.
func srcRec(src int32, ts int64) record.Record {
	return record.New(1, record.TSVal(ts), record.I32Val(src))
}

// TestFlushDoesNotPoisonDecay is the regression test for Flush routing
// through Extract(math.MaxInt64, …): that path ran decay against a
// near-infinite elapsed time, collapsing the learned T to MinT and
// setting lastSeen so far in the future that every later Extract saw a
// negative interval and never decayed again. Flush must leave both T and
// the decay schedule exactly as it found them.
func TestFlushDoesNotPoisonDecay(t *testing.T) {
	s := New(Config{InitialT: 1000, HalfLife: 1000})
	s.Push(1, rec(50), 100)
	s.Extract(100, func(record.Record) {}) // lastSeen = 100
	before := s.TimeFrame()

	if n := s.Flush(func(record.Record) {}); n != 1 {
		t.Fatalf("Flush emitted %d, want 1", n)
	}
	if got := s.TimeFrame(); got != before {
		t.Fatalf("T after Flush = %d, want %d (Flush must not decay)", got, before)
	}

	// One half-life after the last Extract, T must have halved — proving
	// lastSeen survived the flush. With lastSeen poisoned to MaxInt64 the
	// elapsed time would be negative and T would never decay again (and,
	// pre-fix, would already have collapsed to 0 during the flush).
	s.Push(1, rec(200), 1100)
	s.Extract(1100, func(record.Record) {})
	want := before / 2
	if got := s.TimeFrame(); got < want-50 || got > want+50 {
		t.Fatalf("T one half-life after Flush = %d, want ≈%d", got, want)
	}
}

// TestFlushRepeatedlyKeepsT pins that back-to-back flushes (as the ISM
// does at shutdown and drain points) never touch the time frame.
func TestFlushRepeatedlyKeepsT(t *testing.T) {
	s := New(Config{InitialT: 700, HalfLife: 50})
	for i := 0; i < 5; i++ {
		s.Push(1, rec(int64(i)), int64(i))
		s.Flush(func(record.Record) {})
		if got := s.TimeFrame(); got != 700 {
			t.Fatalf("T after flush %d = %d, want 700", i, got)
		}
	}
}

// TestPerSourceDropAccounting pins that MaxBuffered drops are charged to
// the source that overflowed, not pooled into a blind total.
func TestPerSourceDropAccounting(t *testing.T) {
	s := New(Config{InitialT: 1_000_000, MaxBuffered: 4})
	for i := int64(0); i < 4; i++ {
		s.Push(1, srcRec(1, 10+i), 10)
	}
	// The sorter is full: these three, from source 2, all drop.
	for i := int64(0); i < 3; i++ {
		s.Push(2, srcRec(2, 20+i), 20)
	}
	st := s.Stats()
	if st.DroppedFull != 3 {
		t.Fatalf("DroppedFull = %d, want 3", st.DroppedFull)
	}
	if st.SourceDrops[2] != 3 || st.SourceDrops[1] != 0 {
		t.Fatalf("SourceDrops = %v, want 3 on source 2 only", st.SourceDrops)
	}
	if got := s.BufferedBySource(1); got != 4 {
		t.Fatalf("BufferedBySource(1) = %d, want 4", got)
	}
}

// TestSourceQuotaIsolatesNoisySource pins the per-source quota: a source
// over its quota drops while a quieter source is still admitted, even
// though the global bound has room.
func TestSourceQuotaIsolatesNoisySource(t *testing.T) {
	s := New(Config{InitialT: 1_000_000, MaxBuffered: 100, SourceQuota: 3})
	for i := int64(0); i < 10; i++ {
		s.Push(1, srcRec(1, i), 0)
	}
	s.Push(2, srcRec(2, 50), 0) // quieter source still fits
	st := s.Stats()
	if st.SourceDrops[1] != 7 {
		t.Fatalf("noisy source drops = %d, want 7", st.SourceDrops[1])
	}
	if st.SourceDrops[2] != 0 || s.BufferedBySource(2) != 1 {
		t.Fatalf("quiet source was penalized: drops=%d buffered=%d",
			st.SourceDrops[2], s.BufferedBySource(2))
	}
}

// TestTakeLossesCoversDrops pins the loss accumulator: drops harvest as
// per-source counts with a timestamp range covering the dropped records,
// and the accumulator resets after harvest.
func TestTakeLossesCoversDrops(t *testing.T) {
	s := New(Config{InitialT: 1_000_000, MaxBuffered: 2})
	s.Push(1, srcRec(1, 10), 10)
	s.Push(1, srcRec(1, 11), 11)
	s.Push(2, srcRec(2, 30), 30) // drop
	s.Push(2, srcRec(2, 90), 90) // drop
	got := map[int32][3]int64{}
	s.TakeLosses(func(src int32, count uint64, first, last int64) {
		got[src] = [3]int64{int64(count), first, last}
	})
	want, ok := got[2]
	if !ok || want[0] != 2 || want[1] != 30 || want[2] != 90 {
		t.Fatalf("TakeLosses = %v, want source 2: count 2, range [30,90]", got)
	}
	calls := 0
	s.TakeLosses(func(int32, uint64, int64, int64) { calls++ })
	if calls != 0 {
		t.Fatalf("second TakeLosses yielded %d sources, want 0 (reset)", calls)
	}
}

// TestLossMarkerExemptFromBounds pins that loss-marker records are
// admitted even when the sorter is at its bounds: a marker dropped for
// lack of space would silently erase the very testimony of a loss.
func TestLossMarkerExemptFromBounds(t *testing.T) {
	s := New(Config{InitialT: 1_000_000, MaxBuffered: 1, SourceQuota: 1})
	s.Push(1, srcRec(1, 10), 10)
	m := record.NewLossMarker(5, 20, 40)
	s.Push(1, m, 40)
	if got := s.Buffered(); got != 2 {
		t.Fatalf("Buffered = %d, want 2 (marker admitted past bounds)", got)
	}
	if st := s.Stats(); st.DroppedFull != 0 {
		t.Fatalf("marker was counted dropped: %+v", st)
	}
}

// TestPropertyConservationUnderBounds is the overload conservation law:
// under randomized Push/Extract/Flush with both MaxBuffered and a
// per-source quota active, every pushed record is exactly one of emitted,
// still buffered, or counted dropped — globally and per source.
func TestPropertyConservationUnderBounds(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		cfg := Config{
			InitialT:    int64(rng.Intn(500)),
			MaxBuffered: 2 + rng.Intn(16),
		}
		if rng.Intn(2) == 0 {
			cfg.SourceQuota = 1 + rng.Intn(6)
		}
		if rng.Intn(2) == 0 {
			cfg.HalfLife = int64(1 + rng.Intn(1000))
		}
		s := New(cfg)

		nSrc := 1 + rng.Intn(4)
		pushed := map[int32]uint64{}
		emitted := map[int32]uint64{}
		var now int64
		emit := func(r record.Record) { emitted[int32(fieldAt(r, 1).Bits)]++ }

		steps := 200 + rng.Intn(200)
		for i := 0; i < steps; i++ {
			switch rng.Intn(10) {
			case 7:
				now += int64(rng.Intn(300))
				s.Extract(now, emit)
			case 8:
				s.Flush(emit)
			default:
				src := int32(1 + rng.Intn(nSrc))
				ts := now - int64(rng.Intn(200)) + int64(rng.Intn(100))
				s.Push(src, srcRec(src, ts), now)
				pushed[src]++
			}
		}

		st := s.Stats()
		var totalPushed, totalEmitted uint64
		for _, n := range pushed {
			totalPushed += n
		}
		for _, n := range emitted {
			totalEmitted += n
		}
		if totalPushed != totalEmitted+uint64(s.Buffered())+st.DroppedFull {
			t.Fatalf("trial %d: pushed %d != emitted %d + buffered %d + dropped %d",
				trial, totalPushed, totalEmitted, s.Buffered(), st.DroppedFull)
		}
		var sumDrops uint64
		for src, n := range st.SourceDrops {
			sumDrops += n
			if want := pushed[src] - emitted[src] - uint64(s.BufferedBySource(src)); n != want {
				t.Fatalf("trial %d: source %d drops = %d, want %d", trial, src, n, want)
			}
		}
		if sumDrops != st.DroppedFull {
			t.Fatalf("trial %d: SourceDrops sum %d != DroppedFull %d",
				trial, sumDrops, st.DroppedFull)
		}
		// The loss accumulators must testify to exactly the dropped total.
		var harvested uint64
		s.TakeLosses(func(src int32, count uint64, first, last int64) {
			harvested += count
			if first > last {
				t.Fatalf("trial %d: loss range inverted [%d,%d]", trial, first, last)
			}
		})
		if harvested != st.DroppedFull {
			t.Fatalf("trial %d: harvested losses %d != DroppedFull %d",
				trial, harvested, st.DroppedFull)
		}
	}
}
