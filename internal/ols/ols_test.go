package ols

import (
	"fmt"
	"math/rand"
	"testing"

	"brisk/internal/record"
)

func rec(ts int64) record.Record {
	return record.New(1, record.TSVal(ts), record.I32Val(int32(ts%1000)))
}

// fieldAt materialises a sorter-emitted record — the sorter hands out
// bytes, not values — and returns field i, counting from the end when i
// is negative.
func fieldAt(r record.Record, i int) record.Value {
	if err := r.Materialize(); err != nil {
		panic(err)
	}
	if i < 0 {
		i += len(r.Fields)
	}
	return r.Fields[i]
}

// collect drains via Extract at the given manager time.
func collect(s *Sorter, now int64) []record.Record {
	var out []record.Record
	s.Extract(now, func(r record.Record) { out = append(out, r) })
	return out
}

func tsOf(rs []record.Record) []int64 {
	out := make([]int64, len(rs))
	for i := range rs {
		out[i] = rs[i].TS
	}
	return out
}

func TestMergeTwoSourcesInOrder(t *testing.T) {
	s := New(Config{InitialT: 100})
	s.Push(1, rec(10), 10)
	s.Push(2, rec(5), 10)
	s.Push(1, rec(20), 20)
	s.Push(2, rec(15), 20)
	got := collect(s, 1000)
	want := []int64{5, 10, 15, 20}
	gotTS := tsOf(got)
	for i := range want {
		if gotTS[i] != want[i] {
			t.Fatalf("merged order = %v, want %v", gotTS, want)
		}
	}
	if got[0].Node != 2 || got[1].Node != 1 {
		t.Fatalf("node attribution lost: %+v", got[:2])
	}
}

func TestDelayWindowHoldsYoungRecords(t *testing.T) {
	s := New(Config{InitialT: 100})
	s.Push(1, rec(50), 50)
	if got := collect(s, 100); len(got) != 0 {
		t.Fatalf("record younger than T emitted: %v", tsOf(got))
	}
	if got := collect(s, 150); len(got) != 1 {
		t.Fatalf("record aged past T not emitted")
	}
}

func TestPerSourceFIFOPreserved(t *testing.T) {
	// Equal timestamps within a source must come out in arrival order.
	s := New(Config{InitialT: 10})
	for i := 0; i < 5; i++ {
		r := record.New(uint8(i), record.TSVal(100), record.I32Val(int32(i)))
		s.Push(1, r, 100)
	}
	got := collect(s, 10_000)
	for i, r := range got {
		if r.Event != uint8(i) {
			t.Fatalf("FIFO violated at %d: %+v", i, got)
		}
	}
}

func TestEqualTimestampsAcrossSourcesStable(t *testing.T) {
	s := New(Config{InitialT: 10})
	s.Push(1, rec(100), 100)
	s.Push(2, rec(100), 100)
	s.Push(3, rec(100), 100)
	got := collect(s, 10_000)
	if got[0].Node != 1 || got[1].Node != 2 || got[2].Node != 3 {
		t.Fatalf("tie-break not arrival-stable: %v", got)
	}
}

func TestInversionDetectionAndGrowToLateness(t *testing.T) {
	s := New(Config{InitialT: 10, Grow: GrowToLateness})
	s.Push(1, rec(100), 100)
	collect(s, 200) // emits ts=100
	// A record stamped 60 arrives at manager time 210: it is 150 µs late.
	s.Push(2, rec(60), 210)
	st := s.Stats()
	if st.Inversions != 1 {
		t.Fatalf("inversions = %d", st.Inversions)
	}
	if s.TimeFrame() != 150 {
		t.Fatalf("T = %d, want lateness 150", s.TimeFrame())
	}
	if st.GrownTo != 150 {
		t.Fatalf("GrownTo = %d", st.GrownTo)
	}
}

func TestInversionSameSourceNotCounted(t *testing.T) {
	// Per-source streams are in order by construction; a same-source
	// record behind the last emitted one is not a cross-sensor inversion.
	s := New(Config{InitialT: 10})
	s.Push(1, rec(100), 100)
	collect(s, 200)
	s.Push(1, rec(60), 210)
	if s.Stats().Inversions != 0 {
		t.Fatalf("same-source arrival counted as inversion")
	}
}

func TestGrowDouble(t *testing.T) {
	s := New(Config{InitialT: 100, Grow: GrowDouble})
	s.Push(1, rec(1000), 1000)
	collect(s, 2000)
	s.Push(2, rec(500), 2000)
	if s.TimeFrame() != 200 {
		t.Fatalf("T = %d, want doubled 200", s.TimeFrame())
	}
}

func TestGrowFixed(t *testing.T) {
	s := New(Config{InitialT: 100, Grow: GrowFixed})
	s.Push(1, rec(1000), 1000)
	collect(s, 2000)
	s.Push(2, rec(500), 2000)
	if s.TimeFrame() != 100 {
		t.Fatalf("fixed T changed: %d", s.TimeFrame())
	}
}

func TestGrowCappedAtMaxT(t *testing.T) {
	s := New(Config{InitialT: 10, MaxT: 500, Grow: GrowToLateness})
	s.Push(1, rec(1_000_000), 1_000_000)
	collect(s, 2_000_000)
	s.Push(2, rec(0), 2_000_000) // lateness 2s, far over cap
	if s.TimeFrame() != 500 {
		t.Fatalf("T = %d, want cap 500", s.TimeFrame())
	}
}

func TestExponentialDecay(t *testing.T) {
	s := New(Config{InitialT: 1000, MinT: 100, HalfLife: 1000})
	collect(s, 0) // anchors lastSeen
	collect(s, 1000)
	// One half-life: T = 100 + 900/2 = 550.
	if got := s.TimeFrame(); got < 540 || got > 560 {
		t.Fatalf("after one half-life T = %d, want ≈550", got)
	}
	collect(s, 11_000) // ten more half-lives: essentially MinT
	if got := s.TimeFrame(); got < 100 || got > 110 {
		t.Fatalf("after decay T = %d, want ≈ MinT 100", got)
	}
}

func TestNoDecayWithoutHalfLife(t *testing.T) {
	s := New(Config{InitialT: 1000})
	collect(s, 0)
	collect(s, 1_000_000)
	if s.TimeFrame() != 1000 {
		t.Fatalf("T decayed without half-life: %d", s.TimeFrame())
	}
}

func TestMaxBufferedDrops(t *testing.T) {
	s := New(Config{InitialT: 1_000_000, MaxBuffered: 3})
	for i := 0; i < 5; i++ {
		s.Push(1, rec(int64(i)), int64(i))
	}
	st := s.Stats()
	if st.DroppedFull != 2 || s.Buffered() != 3 {
		t.Fatalf("dropped=%d buffered=%d", st.DroppedFull, s.Buffered())
	}
}

func TestRecordsWithoutTimestampFlow(t *testing.T) {
	s := New(Config{InitialT: 10})
	r := record.New(1, record.I32Val(5)) // no TS
	s.Push(1, r, 500)
	got := collect(s, 10_000)
	if len(got) != 1 || got[0].TS != 500 {
		t.Fatalf("timestamp-less record mishandled: %+v", got)
	}
}

func TestFlushEmitsEverything(t *testing.T) {
	s := New(Config{InitialT: 1_000_000_000})
	for i := 5; i > 0; i-- {
		s.Push(int32(i), rec(int64(i*10)), 100)
	}
	var out []record.Record
	n := s.Flush(func(r record.Record) { out = append(out, r) })
	if n != 5 || s.Buffered() != 0 {
		t.Fatalf("flush emitted %d, buffered %d", n, s.Buffered())
	}
	for i := 1; i < len(out); i++ {
		if out[i].TS < out[i-1].TS {
			t.Fatalf("flush out of order: %v", tsOf(out))
		}
	}
}

func TestNextDeadline(t *testing.T) {
	s := New(Config{InitialT: 100})
	if _, ok := s.NextDeadline(); ok {
		t.Fatal("deadline on empty sorter")
	}
	s.Push(1, rec(1000), 1000)
	d, ok := s.NextDeadline()
	if !ok || d != 1100 {
		t.Fatalf("deadline = %d, %v; want 1100", d, ok)
	}
}

// TestOrderedWheneverLatenessWithinT is the sorter's core invariant: if
// every record's delivery lateness is at most T, the output is globally
// ordered by timestamp.
func TestOrderedWheneverLatenessWithinT(t *testing.T) {
	const T = 500
	s := New(Config{InitialT: T, Grow: GrowFixed})
	rng := rand.New(rand.NewSource(3))
	// Three sources; each source's timestamps increase; delivery delay
	// up to T-1 µs. Push in manager-time order of arrival.
	var arrivals []arrival
	for src := int32(1); src <= 3; src++ {
		ts := int64(0)
		prevAt := int64(0)
		for i := 0; i < 200; i++ {
			ts += int64(rng.Intn(50))
			// Per-source delivery preserves creation order (the stream
			// socket guarantee), so arrival times are monotone within a
			// source; lateness stays under T.
			at := ts + int64(rng.Intn(T-1))
			if at < prevAt {
				at = prevAt
			}
			if at > ts+T-1 {
				at = ts + T - 1
			}
			prevAt = at
			arrivals = append(arrivals, arrival{src, rec(ts), at})
		}
	}
	sortByAt(arrivals)
	var out []record.Record
	for _, a := range arrivals {
		s.Push(a.src, a.r, a.at)
		s.Extract(a.at, func(r record.Record) { out = append(out, r) })
	}
	s.Flush(func(r record.Record) { out = append(out, r) })
	if len(out) != 600 {
		t.Fatalf("emitted %d, want 600", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].TS < out[i-1].TS {
			t.Fatalf("inversion at %d: %d after %d", i, out[i].TS, out[i-1].TS)
		}
	}
	if s.Stats().Inversions != 0 {
		t.Fatalf("spurious inversions: %d", s.Stats().Inversions)
	}
}

type arrival struct {
	src int32
	r   record.Record
	at  int64
}

func sortByAt(a []arrival) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].at < a[j-1].at; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestAdaptiveTSuppressesFutureInversions drives the adaptive loop: with
// delays exceeding the initial T, the sorter grows T and late-phase
// inversions stop.
func TestAdaptiveTSuppressesFutureInversions(t *testing.T) {
	s := New(Config{InitialT: 10, Grow: GrowToLateness})
	rng := rand.New(rand.NewSource(9))
	// Two sources: source 1 delivers almost immediately, source 2 with a
	// consistent ~400 µs delay — far over the initial T of 10 µs.
	var arrivals []arrival
	for i := 0; i < 2000; i++ {
		ts := int64(i * 100)
		arrivals = append(arrivals, arrival{1, rec(ts), ts + int64(rng.Intn(10))})
		arrivals = append(arrivals, arrival{2, rec(ts + 50), ts + 50 + 380 + int64(rng.Intn(40))})
	}
	sortByAt(arrivals)
	firstHalfInv := uint64(0)
	for i, a := range arrivals {
		s.Push(a.src, a.r, a.at)
		s.Extract(a.at, func(record.Record) {})
		if i == len(arrivals)/2 {
			firstHalfInv = s.Stats().Inversions
		}
	}
	st := s.Stats()
	if firstHalfInv == 0 {
		t.Fatal("expected early inversions with tiny initial T")
	}
	late := st.Inversions - firstHalfInv
	if late > firstHalfInv/10+2 {
		t.Fatalf("adaptation ineffective: %d early vs %d late inversions", firstHalfInv, late)
	}
	if s.TimeFrame() < 380 {
		t.Fatalf("T = %d, expected ≥ dominant lateness", s.TimeFrame())
	}
}

func TestGrowPolicyStrings(t *testing.T) {
	if GrowToLateness.String() != "lateness" || GrowDouble.String() != "double" ||
		GrowFixed.String() != "fixed" || GrowPolicy(9).String() == "" {
		t.Error("policy names")
	}
}

func TestQueueCompaction(t *testing.T) {
	// Push/pop many records through one source to force the FIFO's
	// compaction path.
	s := New(Config{InitialT: 1})
	for i := 0; i < 10_000; i++ {
		s.Push(1, rec(int64(i)), int64(i))
		if i%3 == 0 {
			collect(s, int64(i))
		}
	}
	var n int
	s.Flush(func(record.Record) { n++ })
	if uint64(n)+s.Stats().Emitted-uint64(n) != s.Stats().Emitted {
		t.Fatal("bookkeeping broke") // sanity: all pushed eventually emitted
	}
	if s.Stats().Emitted != 10_000 {
		t.Fatalf("emitted %d, want 10000", s.Stats().Emitted)
	}
}

func BenchmarkPushExtract8Sources(b *testing.B) {
	s := New(Config{InitialT: 100})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := int32(i % 8)
		ts := int64(i)
		s.Push(src, rec(ts), ts)
		if i%64 == 63 {
			s.Extract(ts, func(record.Record) {})
		}
	}
}

// ExampleSorter demonstrates the adaptive merge: records from two sources
// arrive interleaved and come out in timestamp order once aged past T.
func ExampleSorter() {
	s := New(Config{InitialT: 100})
	s.Push(1, record.New(1, record.TSVal(300)), 300)
	s.Push(2, record.New(2, record.TSVal(250)), 300)
	s.Push(1, record.New(3, record.TSVal(400)), 400)

	// Nothing is old enough yet at manager time 320.
	n := s.Extract(320, func(record.Record) {})
	fmt.Println("at t=320:", n)

	// At t=600 everything has aged past T=100 and merges in order.
	s.Extract(600, func(r record.Record) { fmt.Println("emit ts", r.TS, "src", r.Node) })
	// Output:
	// at t=320: 0
	// emit ts 250 src 2
	// emit ts 300 src 1
	// emit ts 400 src 1
}
