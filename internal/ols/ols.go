// Package ols implements the manager's dynamic on-line sorting algorithm.
//
// The ISM receives in-order record streams from each external sensor and
// must merge them into one stream ordered by synchronized timestamp. Per
// the paper: using the embedded time-stamps, its current time and a
// user-specified time frame T, the ISM delays each record for T time
// units after its creation; if two successive records from different
// external sensors are extracted out of order, it increases the time
// frame; then it exponentially decreases the time frame to reduce the
// amount of instrumentation data delayed in memory. The method trades
// event ordering against latency.
//
// # Sorter cores
//
// Two interchangeable cores implement the delay-window merge, selected
// by Config.Core and proven emission-identical on arbitrary input:
//
//   - CoreCalendar (the default): a timestamp-bucketed calendar queue.
//     A record lands in the flat bucket keyed by (TS − base) / width,
//     O(1) amortized; emission is an append-order scan of expired
//     buckets; the bucket width tracks the adaptive window T. See
//     calendar.go for the structure and the equivalence argument.
//   - CoreHeap: the paper's ISM heap — per-source FIFO queues whose
//     heads are merged through a min-heap ordered by (TS, Seq),
//     O(log n) per record.
//
// A calendar-core sorter falls back to the heap automatically when the
// input turns pathological for bucketing (a source regressing its own
// timeline, tachyons beyond re-anchor reach behind the ring, occupancy
// collapsing into one bucket), counts the event in Stats.HeapFallbacks,
// and returns to the calendar once it drains empty. Fallback never
// changes what is emitted or in what order — only the cost of producing
// it.
//
// # Storage
//
// A buffered record is its encoded bytes plus one pointer-free 32-byte
// sort key (see sortKey). Push copies the body into the byte slab of the
// calendar bucket or source queue that takes the key; ordering moves keys
// only, and Extract hands the bytes back out as an encoded-body
// record.Record borrowing the slab. Field values are never built here.
//
// # Adaptive window, quota and loss accounting
//
// Both cores share the surrounding machinery: the adaptive time frame T
// (grown per GrowPolicy on observed inversions, exponentially decayed
// toward MinT with half-life HalfLife), the MaxBuffered global bound
// and per-source SourceQuota with drop-newest accounting, and the
// per-source loss accumulators drained by TakeLosses that let the ISM
// synthesize loss-marker records — markers themselves are exempt from
// the bounds. Per-source FIFO order is always preserved: all of one
// source's records order by Seq whichever core holds them.
package ols

import (
	"container/heap"
	"math"

	"brisk/internal/record"
)

// GrowPolicy selects how the time frame grows when an inversion is
// detected.
type GrowPolicy int

const (
	// GrowToLateness sets T to the latest late event's lateness — the
	// strategy the paper's evaluation found best for latency-critical
	// applications.
	GrowToLateness GrowPolicy = iota
	// GrowDouble doubles T on each inversion.
	GrowDouble
	// GrowFixed never adapts T (the ablation baseline).
	GrowFixed
)

// String names the policy.
func (p GrowPolicy) String() string {
	switch p {
	case GrowToLateness:
		return "lateness"
	case GrowDouble:
		return "double"
	case GrowFixed:
		return "fixed"
	default:
		return "GrowPolicy(?)"
	}
}

// CoreKind selects the data structure a Sorter delays and orders
// records with.
type CoreKind int

const (
	// CoreCalendar is the timestamp-bucketed calendar queue — O(1)
	// amortized per record on the nearly-sorted streams the transport
	// delivers, with an automatic per-sorter heap fallback for
	// pathological skew. The zero value, hence the default.
	CoreCalendar CoreKind = iota
	// CoreHeap is the paper's comparison core: per-source FIFO queues
	// merged through a min-heap of queue heads, O(log n) per record.
	CoreHeap
)

// String names the core ("calendar", "heap").
func (k CoreKind) String() string {
	switch k {
	case CoreCalendar:
		return "calendar"
	case CoreHeap:
		return "heap"
	default:
		return "CoreKind(?)"
	}
}

// Config holds the sorter's tuning knobs.
type Config struct {
	// InitialT is the starting time frame in µs. Default 1000.
	InitialT int64
	// MinT is the floor T decays toward. Default 0.
	MinT int64
	// MaxT caps growth. Default 10 s.
	MaxT int64
	// HalfLife is the exponential-decay half-life of (T − MinT) in µs of
	// manager time; 0 disables decay. The paper: "a small exponent
	// constant for reducing T (i.e., a large T half-life) helps" in
	// non-latency-critical applications.
	HalfLife int64
	// Grow selects the growth rule applied on inversions.
	Grow GrowPolicy
	// MaxBuffered bounds the records delayed in memory; pushes beyond it
	// are dropped and counted (the ISM's event dropping under overload).
	// 0 means unbounded.
	MaxBuffered int
	// SourceQuota bounds the records any single source may have delayed
	// in memory, so one hot sensor cannot consume the whole MaxBuffered
	// budget and force drops onto quiet sensors. 0 means no per-source
	// bound.
	SourceQuota int
	// Core selects the sorting data structure. The zero value is
	// CoreCalendar; both cores emit byte-identical streams, so this is a
	// performance knob, not a semantic one.
	Core CoreKind
}

func (c Config) withDefaults() Config {
	if c.InitialT <= 0 {
		c.InitialT = 1000
	}
	if c.MaxT <= 0 {
		c.MaxT = 10_000_000
	}
	if c.MinT < 0 {
		c.MinT = 0
	}
	if c.InitialT > c.MaxT {
		c.InitialT = c.MaxT
	}
	return c
}

// Stats counts the sorter's observable behaviour.
type Stats struct {
	// Pushed and Emitted count records in and out.
	Pushed, Emitted uint64
	// Inversions counts records that arrived after a later-stamped
	// record from another source had already been emitted — exactly the
	// out-of-order condition the adaptive rule reacts to.
	Inversions uint64
	// DroppedFull counts records dropped because MaxBuffered or the
	// per-source quota was hit.
	DroppedFull uint64
	// SourceDrops attributes every DroppedFull record to the source that
	// lost it. nil until the first drop; the map is freshly built per
	// Stats call, so callers may retain it.
	SourceDrops map[int32]uint64
	// GrownTo is the largest T ever reached.
	GrownTo int64
	// HeapFallbacks counts calendar→heap core switches: pushes the
	// bucket ring could not absorb without breaking heap equivalence
	// (same-source timestamp regression, a tachyon behind the ring's
	// re-anchor reach, or single-bucket occupancy collapse). Always 0
	// for CoreHeap sorters.
	HeapFallbacks uint64
	// CalendarRebuilds counts bucket-ring rebuilds at a wider bucket
	// width, taken when a push lands beyond the ring's forward span.
	CalendarRebuilds uint64
}

// Sorter merges per-source record streams into timestamp order. Not safe
// for concurrent use; the ISM calls it under one pipeline lock.
type Sorter struct {
	cfg      Config
	t        float64 // current time frame, µs
	lastSeen int64   // manager time at last Extract, for decay
	buffered int

	lastTS  int64 // timestamp of the most recently emitted record
	lastSrc int32
	emitted bool

	queues map[int32]*srcQueue
	srcs   []*srcQueue // every queue, indexed by sortKey.src
	h      srcHeap
	seq    uint64
	enc    []byte // scratch: the body being pushed, before it lands in a slab
	bytes  int    // encoded bytes of every buffered record

	// onHeap is the live core: true for CoreHeap sorters always, and for
	// CoreCalendar sorters while the automatic fallback is engaged. The
	// calendar state below is untouched (and empty) while it is true.
	onHeap bool
	cal    calendar
	// calRebuild scratch, retained to amortize across rebuilds.
	calKeys []sortKey
	calSlab []byte

	lossPending int // sources with unharvested drop accumulators

	// orderRef, when set, supplies the emission frontier Push checks for
	// inversions instead of the sorter's own lastTS/lastSrc. A Sharded
	// wrapper points every shard here at the merged stream's frontier, so
	// a record late with respect to the *global* output still grows its
	// shard's T even when its own shard has emitted nothing newer.
	orderRef func() (lastTS int64, lastSrc int32, emitted bool)
	// occRef, when set, supplies the occupancy the MaxBuffered bound is
	// enforced against instead of this sorter's own buffered count. A
	// Sharded wrapper points every shard at the aggregate, keeping
	// MaxBuffered a global budget rather than a per-shard one.
	occRef func() int

	stats Stats
}

// New returns a sorter with the given configuration.
func New(cfg Config) *Sorter {
	cfg = cfg.withDefaults()
	return &Sorter{
		cfg:    cfg,
		t:      float64(cfg.InitialT),
		queues: make(map[int32]*srcQueue),
		onHeap: cfg.Core == CoreHeap,
	}
}

// TimeFrame returns the current time frame T in µs.
func (s *Sorter) TimeFrame() int64 { return int64(s.t) }

// Buffered returns the number of records currently delayed in memory.
func (s *Sorter) Buffered() int { return s.buffered }

// SlabBytes returns the encoded bytes of the records currently delayed in
// memory — what MaxBuffered, which counts records, does not show. Each
// buffered record holds a 32-byte sort key on top.
func (s *Sorter) SlabBytes() int { return s.bytes }

// Stats returns a copy of the counters.
func (s *Sorter) Stats() Stats {
	st := s.stats
	if st.DroppedFull > 0 {
		st.SourceDrops = make(map[int32]uint64)
		for src, q := range s.queues {
			if q.dropped > 0 {
				st.SourceDrops[src] = q.dropped
			}
		}
	}
	return st
}

// BufferedBySource returns the number of records the given source has
// delayed in memory.
func (s *Sorter) BufferedBySource(src int32) int {
	if q, ok := s.queues[src]; ok {
		return q.buffered
	}
	return 0
}

// DropsBySource calls fn for every source that has dropped records, with
// its cumulative drop count. Allocation-free, for metric reconciliation.
func (s *Sorter) DropsBySource(fn func(src int32, dropped uint64)) {
	if s.stats.DroppedFull == 0 {
		return
	}
	for src, q := range s.queues {
		if q.dropped > 0 {
			fn(src, q.dropped)
		}
	}
}

// TakeLosses drains the per-source drop accumulators: for every source
// that has dropped records since the previous call, fn receives the
// dropped count and the covered timestamp range, and the accumulator
// resets. The ISM merger uses this to synthesize loss-marker records.
// Allocation-free, and O(1) when nothing has been dropped.
func (s *Sorter) TakeLosses(fn func(src int32, count uint64, firstTS, lastTS int64)) {
	if s.lossPending == 0 {
		return
	}
	for src, q := range s.queues {
		if q.lossCount == 0 {
			continue
		}
		fn(src, q.lossCount, q.lossFirst, q.lossLast)
		q.lossCount, q.lossFirst, q.lossLast = 0, 0, 0
	}
	s.lossPending = 0
}

// sortKey is what the sorter orders: one per buffered record, 32 bytes and
// free of pointers, so the sort moves little and the garbage collector
// never scans a slab of them. The record itself is n encoded bytes at off
// in the slab of whichever bucket or queue holds the key.
type sortKey struct {
	ts    int64  // sort timestamp: the record's TS, or its arrival time if it has none
	seq   uint64 // per-sorter arrival number, the tie-break
	off   uint32 // body start in the owner's slab
	n     uint16 // body length
	tsOff uint16 // offset of the body's TS field; 0: none
	src   uint32 // index into Sorter.srcs (in a merge run: the origin node id itself)
}

// before is the (TS, Seq) order every core emits in.
func (k *sortKey) before(o *sortKey) bool {
	return k.ts < o.ts || (k.ts == o.ts && k.seq < o.seq)
}

// maxSlab bounds one slab so sortKey.off cannot wrap; a push that would pass
// it is dropped and accounted like any other push at a buffer bound.
const maxSlab = math.MaxInt32

// store copies body to the end of slab and appends k, pointing at the
// copy, to keys.
func store(keys []sortKey, slab []byte, k sortKey, body []byte) ([]sortKey, []byte) {
	k.off = uint32(len(slab))
	return append(keys, k), append(slab, body...)
}

// view rebuilds the record a key stands for, borrowing its bytes in slab.
func (s *Sorter) view(k *sortKey, slab []byte) record.Record {
	r := record.FromEncoded(slab[k.off:k.off+uint32(k.n)], int(k.tsOff), k.ts)
	r.Node, r.Seq = s.srcs[k.src].src, k.seq
	return r
}

// source returns src's accounting entry, creating it on first sight.
func (s *Sorter) source(src int32) *srcQueue {
	q, ok := s.queues[src]
	if !ok {
		q = &srcQueue{src: src, idx: uint32(len(s.srcs)), pos: -1}
		s.queues[src] = q
		s.srcs = append(s.srcs, q)
	}
	return q
}

// Push enqueues one record from a source. now is the manager clock (µs),
// used to measure the record's lateness when it arrives behind the
// merged stream. A record without a timestamp is sorted by now, so it
// flows through rather than stalls the merge, and has a TS field of that
// value prepended when it has room for one.
//
// Push copies rec's encoding into sorter-owned storage (a calendar
// bucket's or a source queue's slab, per the live core): the caller may
// recycle whatever rec borrows as soon as Push returns. Slabs are
// recycled with their bucket or queue, so steady-state pushes do not
// allocate.
//
// A push beyond MaxBuffered or the source's quota is dropped (drop-newest)
// and accounted to the source in Stats.SourceDrops and in the loss
// accumulator drained by TakeLosses; so is a record that cannot be
// encoded. Loss-marker records are exempt from both bounds: a marker
// documents drops that already happened, so dropping it would reopen the
// silent-loss hole the marker exists to close.
func (s *Sorter) Push(src int32, rec record.Record, now int64) {
	s.push(s.source(src), &rec, now)
}

// push is Push for a caller that resolved the source once for a run of
// its records. rec is read, never written.
func (s *Sorter) push(q *srcQueue, rec *record.Record, now int64) {
	s.stats.Pushed++
	marker := record.IsLossMarker(rec)
	if !marker {
		occ := s.buffered
		if s.occRef != nil {
			occ = s.occRef()
		}
		full := s.cfg.MaxBuffered > 0 && occ >= s.cfg.MaxBuffered
		overQuota := s.cfg.SourceQuota > 0 && q.buffered >= s.cfg.SourceQuota
		if full || overQuota {
			s.drop(q, rec, now)
			return
		}
	}
	if !rec.HasTS {
		stamped := *rec
		stamped.SetTS(now)
		rec = &stamped
	}
	body, tsOff, err := rec.AppendBody(s.enc[:0])
	s.enc = body[:0]
	if err != nil {
		s.drop(q, rec, now)
		return
	}
	s.seq++
	k := sortKey{ts: rec.TS, seq: s.seq, n: uint16(len(body)), tsOff: uint16(tsOff), src: q.idx}

	// Inversion check: the record is already behind the emitted stream.
	// Loss markers are exempt — they are synthetic and deliberately stamped
	// inside the gap they describe, so their lateness must not inflate T.
	lastTS, lastSrc, emitted := s.lastTS, s.lastSrc, s.emitted
	if s.orderRef != nil {
		lastTS, lastSrc, emitted = s.orderRef()
	}
	if !marker && emitted && k.ts < lastTS && q.src != lastSrc {
		s.stats.Inversions++
		s.grow(now - k.ts)
	}

	if !s.onHeap && !s.calInsert(q, k, body) {
		// The ring cannot absorb this record without breaking heap
		// equivalence: migrate everything buffered into the queues and
		// continue on the heap core (reverted once it drains empty).
		s.fallbackToHeap()
	}
	if s.onHeap {
		if len(q.slab)+len(body) > maxSlab {
			s.drop(q, rec, now)
			return
		}
		wasEmpty := q.empty()
		q.push(k, body)
		if wasEmpty {
			heap.Push(&s.h, q)
		} else if q.pos >= 0 {
			heap.Fix(&s.h, q.pos)
		}
	}
	q.lastPushTS = k.ts
	q.buffered++
	s.buffered++
	s.bytes += len(body)
}

// drop accounts one record lost at a buffer bound to its source.
func (s *Sorter) drop(q *srcQueue, rec *record.Record, now int64) {
	s.stats.DroppedFull++
	q.dropped++
	ts := now
	if rec.HasTS {
		ts = rec.TS
	}
	if q.lossCount == 0 {
		q.lossFirst, q.lossLast = ts, ts
		s.lossPending++
	} else {
		if ts < q.lossFirst {
			q.lossFirst = ts
		}
		if ts > q.lossLast {
			q.lossLast = ts
		}
	}
	q.lossCount++
}

// grow raises T according to the configured policy. lateness is how long
// the offending record would have needed to be delayed to stay in order.
func (s *Sorter) grow(lateness int64) {
	switch s.cfg.Grow {
	case GrowToLateness:
		if float64(lateness) > s.t {
			s.t = float64(lateness)
		}
	case GrowDouble:
		s.t *= 2
	case GrowFixed:
		// No adaptation.
	}
	if s.t > float64(s.cfg.MaxT) {
		s.t = float64(s.cfg.MaxT)
	}
	if int64(s.t) > s.stats.GrownTo {
		s.stats.GrownTo = int64(s.t)
	}
}

// decay applies the exponential reduction of T for elapsed manager time.
func (s *Sorter) decay(now int64) {
	if s.cfg.HalfLife <= 0 {
		s.lastSeen = now
		return
	}
	dt := now - s.lastSeen
	s.lastSeen = now
	if dt <= 0 {
		return
	}
	min := float64(s.cfg.MinT)
	s.t = min + (s.t-min)*math.Exp2(-float64(dt)/float64(s.cfg.HalfLife))
	if s.t < min {
		s.t = min
	}
}

// Extract emits, in merged timestamp order, every buffered record that has
// aged at least T (now − TS ≥ T). It returns the number emitted. The
// record passed to emit is an encoded-body record borrowing the slab of
// the queue or bucket that held it, which a later Push into the sorter
// reuses: it is valid as given only until the next Push or Extract call.
// A callee retaining records beyond that window must record.Detach them.
func (s *Sorter) Extract(now int64, emit func(record.Record)) int {
	s.decay(now)
	return s.extract(now, int64(s.t), s.viewing(emit))
}

// viewing adapts a record consumer to the cores' (key, slab) output.
func (s *Sorter) viewing(emit func(record.Record)) func(*sortKey, []byte) {
	return func(k *sortKey, slab []byte) { emit(s.view(k, slab)) }
}

// extract dispatches the drain to the live core. Both cores apply the
// identical aging gate (emit while now − TS ≥ gate) in the identical
// (TS, Seq) order, handing each aged key and the slab holding its bytes
// to out; a calendar sorter parked on the heap fallback reverts once the
// drain leaves it empty. gate is the sorter's own T, or under a Sharded
// wrapper the widest T of any shard.
func (s *Sorter) extract(now, gate int64, out func(*sortKey, []byte)) int {
	if !s.onHeap {
		return s.calDrain(now, gate, out)
	}
	n := s.extractHeap(now, gate, out)
	s.maybeRevert()
	return n
}

// retire accounts one key leaving the sorter from q.
func (s *Sorter) retire(q *srcQueue, k *sortKey) {
	q.buffered--
	s.buffered--
	s.bytes -= int(k.n)
	s.lastTS = k.ts
	s.lastSrc = q.src
	s.emitted = true
	s.stats.Emitted++
}

// extractHeap is extract for the heap core: pop aged queue heads in
// (TS, Seq) order, re-fixing the heap as each queue's head advances.
func (s *Sorter) extractHeap(now, gate int64, out func(*sortKey, []byte)) int {
	n := 0
	for len(s.h) > 0 {
		q := s.h[0]
		k := q.head()
		if now-k.ts < gate {
			break
		}
		slab := q.slab
		q.pop()
		if q.empty() {
			heap.Pop(&s.h)
		} else {
			heap.Fix(&s.h, 0)
		}
		s.retire(q, k)
		out(k, slab)
		n++
	}
	return n
}

// Flush emits everything still buffered, in merged order, ignoring T. Used
// at shutdown and when a caller needs the pipeline drained mid-stream.
// Flush bypasses decay: it does not touch lastSeen or shrink T, so the
// learned time frame survives a mid-stream flush intact. (Routing Flush
// through Extract(math.MaxInt64, …) would make decay see a near-infinite
// elapsed time, collapse T to MinT and poison lastSeen for every
// subsequent Extract.)
func (s *Sorter) Flush(emit func(record.Record)) int {
	return s.extract(math.MaxInt64, 0, s.viewing(emit))
}

// NextDeadline returns the manager time at which the oldest buffered
// record becomes emittable, and false when nothing is buffered. The ISM
// merger uses it to sleep precisely instead of polling.
func (s *Sorter) NextDeadline() (int64, bool) {
	ts, ok := s.oldest()
	return ts + int64(s.t), ok
}

// oldest returns the smallest buffered timestamp, and false when nothing
// is buffered.
func (s *Sorter) oldest() (int64, bool) {
	if !s.onHeap {
		return s.cal.oldest()
	}
	if len(s.h) == 0 {
		return 0, false
	}
	return s.h[0].head().ts, true
}

// srcQueue is one source's FIFO with an amortized head index: keys in
// arrival order over one byte slab. Under the calendar core the queue
// itself stays empty (records live in the bucket ring) but the struct
// remains the source's accounting record: buffered count, quota, loss
// accumulators, and the monotonicity watermark below.
type srcQueue struct {
	src  int32
	idx  uint32 // position in Sorter.srcs, what keys carry
	keys []sortKey
	slab []byte
	hd   int
	pos  int // index in the heap, -1 when absent

	buffered int    // live records in this queue (or this source's bucket share)
	dropped  uint64 // cumulative records dropped at a buffer bound

	// lastPushTS is the timestamp of this source's most recent push. The
	// calendar's global (TS, Seq) order equals the heap's FIFO merge only
	// while every source's buffered records are TS-non-decreasing; a push
	// behind this watermark (with records still buffered) forces the heap
	// fallback before the invariant breaks.
	lastPushTS int64

	// Unharvested loss accumulator (drained by TakeLosses): how many
	// records dropped since the last harvest and the timestamp range they
	// covered.
	lossCount           uint64
	lossFirst, lossLast int64
}

func (q *srcQueue) empty() bool    { return q.hd >= len(q.keys) }
func (q *srcQueue) head() *sortKey { return &q.keys[q.hd] }

// push copies body into the queue's slab under k. Once the dead prefix
// dominates, the live keys and their bytes slide to the front first, so a
// queue in steady state reuses its storage and never allocates.
func (q *srcQueue) push(k sortKey, body []byte) {
	if q.hd > 64 && q.hd*2 > len(q.keys) {
		base := q.keys[q.hd].off
		q.slab = q.slab[:copy(q.slab, q.slab[base:])]
		q.keys = q.keys[:copy(q.keys, q.keys[q.hd:])]
		for i := range q.keys {
			q.keys[i].off -= base
		}
		q.hd = 0
	}
	q.keys, q.slab = store(q.keys, q.slab, k, body)
}

// pop retires the head key. Its bytes stay where they are until a later
// push reuses the slab, which is what bounds Extract's borrowing window.
func (q *srcQueue) pop() {
	q.hd++
	if q.empty() {
		q.keys, q.slab, q.hd = q.keys[:0], q.slab[:0], 0
	}
}

// srcHeap orders source queues by (head timestamp, head sequence).
type srcHeap []*srcQueue

func (h srcHeap) Len() int           { return len(h) }
func (h srcHeap) Less(i, j int) bool { return h[i].head().before(h[j].head()) }
func (h srcHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}
func (h *srcHeap) Push(x any) {
	q := x.(*srcQueue)
	q.pos = len(*h)
	*h = append(*h, q)
}
func (h *srcHeap) Pop() any {
	old := *h
	n := len(old)
	q := old[n-1]
	old[n-1] = nil
	q.pos = -1
	*h = old[:n-1]
	return q
}
