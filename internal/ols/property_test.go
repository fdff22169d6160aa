package ols

import (
	"math/rand"
	"testing"
	"testing/quick"

	"brisk/internal/record"
)

// streamModel is a randomized multi-source arrival schedule that respects
// the transport invariant (per-source delivery is in creation order).
type streamModel struct {
	arrivals []arrival
	maxLate  int64
}

// genStream derives a schedule from quick's random values.
func genStream(rng *rand.Rand, sources, perSource int, maxDelay int64) streamModel {
	var m streamModel
	for src := int32(1); src <= int32(sources); src++ {
		ts := int64(0)
		prevAt := int64(0)
		for i := 0; i < perSource; i++ {
			ts += 1 + rng.Int63n(100)
			at := ts + rng.Int63n(maxDelay+1)
			if at < prevAt {
				at = prevAt
			}
			prevAt = at
			if late := at - ts; late > m.maxLate {
				m.maxLate = late
			}
			m.arrivals = append(m.arrivals, arrival{src, rec(ts), at})
		}
	}
	sortByAt(m.arrivals)
	return m
}

// TestPropertySortedWhenTCoversLateness: for any schedule whose maximum
// lateness is at most T, the sorter's output is globally non-decreasing
// in timestamp and nothing is lost.
func TestPropertySortedWhenTCoversLateness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		maxDelay := 1 + rng.Int63n(2000)
		m := genStream(rng, 1+rng.Intn(6), 50+rng.Intn(100), maxDelay)
		s := New(Config{InitialT: m.maxLate + 1, Grow: GrowFixed})
		var out []int64
		for _, a := range m.arrivals {
			s.Push(a.src, a.r, a.at)
			s.Extract(a.at, func(r record.Record) { out = append(out, r.TS) })
		}
		s.Flush(func(r record.Record) { out = append(out, r.TS) })
		if len(out) != len(m.arrivals) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i] < out[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNothingLostAnyPolicy: whatever the policy and schedule, all
// pushed records are eventually emitted exactly once (no duplication, no
// loss) and per-source order is preserved.
func TestPropertyNothingLostAnyPolicy(t *testing.T) {
	f := func(seed int64, policyPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := genStream(rng, 1+rng.Intn(5), 30+rng.Intn(80), 1+rng.Int63n(5000))
		policy := []GrowPolicy{GrowToLateness, GrowDouble, GrowFixed}[int(policyPick)%3]
		s := New(Config{InitialT: 1 + rng.Int63n(500), Grow: policy,
			HalfLife: rng.Int63n(10_000)})
		perSourceLast := map[int32]int64{}
		count := 0
		check := func(r record.Record) {
			count++
			if last, ok := perSourceLast[r.Node]; ok && r.TS < last {
				t.Errorf("per-source order violated for %d", r.Node)
			}
			perSourceLast[r.Node] = r.TS
		}
		for _, a := range m.arrivals {
			s.Push(a.src, a.r, a.at)
			s.Extract(a.at, check)
		}
		s.Flush(check)
		return count == len(m.arrivals) && s.Buffered() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTimeFrameBounded: under any schedule T never exceeds MaxT
// and never decays below MinT.
func TestPropertyTimeFrameBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := genStream(rng, 3, 100, 50_000)
		cfg := Config{InitialT: 50, MinT: 10, MaxT: 5_000,
			HalfLife: 1000, Grow: GrowDouble}
		s := New(cfg)
		for _, a := range m.arrivals {
			s.Push(a.src, a.r, a.at)
			s.Extract(a.at, func(record.Record) {})
			if tf := s.TimeFrame(); tf > cfg.MaxT || tf < cfg.MinT {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEmittedOnlyWhenAged: no record is ever emitted younger than
// the time frame in force at extraction (latency floor is honoured).
func TestPropertyEmittedOnlyWhenAged(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := genStream(rng, 4, 60, 1000)
		s := New(Config{InitialT: 700, Grow: GrowFixed})
		ok := true
		for _, a := range m.arrivals {
			s.Push(a.src, a.r, a.at)
			now := a.at
			s.Extract(now, func(r record.Record) {
				if now-r.TS < 700 {
					ok = false
				}
			})
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// adversarialStream builds on genStream's random schedules and injects the
// arrivals that defeat naive sorters: stragglers delayed far beyond the
// schedule's bounded skew, and tachyon-style records whose timestamps sit
// in the future of their own arrival (a slave clock running fast). Each
// record carries a unique identity field so conservation can be checked as
// a multiset, not just a count.
func genAdversarial(rng *rand.Rand, sources, perSource int) (streamModel, map[uint64]int) {
	m := genStream(rng, sources, perSource, 1+rng.Int63n(1500))
	// Stragglers: a handful of records arrive much later than any skew
	// bound promised (their source stalls, then floods).
	for i := range m.arrivals {
		if rng.Intn(20) == 0 {
			m.arrivals[i].at += 10_000 + rng.Int63n(50_000)
			if late := m.arrivals[i].at - m.arrivals[i].r.TS; late > m.maxLate {
				m.maxLate = late
			}
		}
	}
	// Tachyons: some records are stamped ahead of the manager clock at
	// arrival time. Keep per-source TS monotone (the transport invariant)
	// by pushing the whole suffix of that source forward.
	for src := int32(1); src <= int32(sources); src++ {
		if rng.Intn(2) == 0 {
			continue
		}
		bump := int64(0)
		for i := range m.arrivals {
			if m.arrivals[i].src != src {
				continue
			}
			if bump == 0 && rng.Intn(perSource/2+1) == 0 {
				bump = 5_000 + rng.Int63n(20_000)
			}
			m.arrivals[i].r.SetTS(m.arrivals[i].r.TS + bump)
		}
	}
	// Re-establish per-source arrival order, then global arrival order,
	// and recompute the true lateness bound afterwards (the fixup can only
	// delay arrivals, never hasten them).
	last := map[int32]int64{}
	m.maxLate = 0
	for i := range m.arrivals {
		if m.arrivals[i].at < last[m.arrivals[i].src] {
			m.arrivals[i].at = last[m.arrivals[i].src]
		}
		last[m.arrivals[i].src] = m.arrivals[i].at
		if late := m.arrivals[i].at - m.arrivals[i].r.TS; late > m.maxLate {
			m.maxLate = late
		}
	}
	sortByAt(m.arrivals)
	// Stamp identities and build the input multiset.
	in := make(map[uint64]int, len(m.arrivals))
	for i := range m.arrivals {
		id := uint64(i + 1)
		m.arrivals[i].r.Fields = append(m.arrivals[i].r.Fields, record.U64Val(id))
		in[key(m.arrivals[i].src, m.arrivals[i].r.TS, id)]++
	}
	return m, in
}

func key(src int32, ts int64, id uint64) uint64 {
	return uint64(src)<<56 ^ uint64(ts)<<16 ^ id
}

// TestPropertyAdversarialMultisetConserved: under stragglers and tachyons,
// whatever the policy, the sorter neither loses nor duplicates a record —
// output is multiset-equal to input (source, timestamp, and identity all
// included in the key) — and per-source FIFO order survives.
func TestPropertyAdversarialMultisetConserved(t *testing.T) {
	f := func(seed int64, policyPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m, in := genAdversarial(rng, 1+rng.Intn(6), 40+rng.Intn(80))
		policy := []GrowPolicy{GrowToLateness, GrowDouble, GrowFixed}[int(policyPick)%3]
		s := New(Config{InitialT: 1 + rng.Int63n(500), Grow: policy,
			HalfLife: rng.Int63n(10_000)})
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
			s.Push(a.src, a.r, a.at)
			s.Extract(a.at, emit)
		}
		s.Flush(emit)
		if len(out) != len(in) {
			return false
		}
		for k, n := range in {
			if out[k] != n {
				t.Errorf("key %x: in %d, out %d (lost or duplicated)", k, n, out[k])
				return false
			}
		}
		return s.Buffered() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAdversarialMonotoneWhenTCovers: when the configured time
// frame covers even the adversarial lateness, the emission stream is
// globally non-decreasing in timestamp — stragglers and tachyons included.
func TestPropertyAdversarialMonotoneWhenTCovers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, in := genAdversarial(rng, 1+rng.Intn(5), 30+rng.Intn(60))
		s := New(Config{InitialT: m.maxLate + 1, Grow: GrowFixed})
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
			s.Push(a.src, a.r, a.at)
			s.Extract(a.at, emit)
		}
		s.Flush(emit)
		return ok && n == len(in) && s.Stats().Inversions == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
