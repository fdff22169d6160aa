// Calendar-queue sorter core: the default replacement for the binary
// heap inside each OLS shard. Records that live inside the delay window
// T arrive nearly sorted by construction (each source's stream is
// monotone, skew between sources is bounded by T), which a calendar
// queue turns into O(1) amortized work per record: a push lands in the
// flat bucket keyed by (TS − base) / width, and emission is an
// append-order scan of expired buckets. The comparison heap only earns
// its O(log n) when that structure breaks down, so it is retained as an
// automatic fallback (see fallbackToHeap) for the pathological cases —
// a source regressing its own timeline, tachyons landing further behind
// the ring than a re-anchor can reach, or occupancy collapsing into one
// bucket.
//
// Heap equivalence. The heap core emits the k-way merge of per-source
// FIFO queues ordered by (TS, Seq). Whenever every source's buffered
// records are TS-non-decreasing — the transport invariant: streams
// arrive in creation order over an in-order connection — that merge IS
// the global (TS, Seq) sort of the buffered set, which is exactly what
// the bucket scan emits (buckets partition the TS axis in increasing
// ranges; equal timestamps share a bucket and order by Seq, the same
// tie-break the heap uses). The calendar watches the invariant on every
// push (srcQueue.lastPushTS) and falls back to the heap before the
// first record that would break it, so the two cores are emission-
// identical on arbitrary input — the golden-trace and cross-core
// property tests assert byte equality, not mere equivalence.

package ols

import (
	"container/heap"
	"math/bits"
)

// Calendar geometry. The ring is a fixed power-of-two number of buckets
// whose width tracks the adaptive window T: at T/calWidthDiv per bucket
// the live window spans ~calWidthDiv buckets, leaving the rest of the
// ring as slack — ahead for sources racing past the frontier, behind
// (via re-anchoring) for stragglers — before a rebuild or fallback is
// needed.
const (
	// calBuckets is the ring size. Power of two so index masking is a
	// single AND.
	calBuckets = 256
	// calWidthDiv sets the target bucket width, T/calWidthDiv (rounded up
	// to a power of two, floored at calMinWidth).
	calWidthDiv = 64
	// calMinWidth floors the bucket width at 64 µs. Widths are always
	// powers of two so the per-push bucket index is a shift, not an int64
	// division, and the floor keeps dense streams packing many records per
	// bucket — the drain then runs as a tight scan of one slice instead of
	// paying ring bookkeeping per record. Width never affects what is
	// emitted (the aging gate is per record); only the constant factor.
	calMinWidth = 64
	// calHotBucket is the live-record count in a single bucket past which
	// occupancy imbalance triggers the heap fallback (only when that
	// bucket also holds the majority of all buffered records): a bucket
	// holding "everything" degenerates the per-bucket insertion sort
	// toward O(n²), while the heap handles the same set in O(log n).
	calHotBucket = 4096
)

// calendar is the bucket ring of one Sorter. buckets[cur] covers
// timestamps [base, base+width); offset k from cur covers
// [base+k·width, base+(k+1)·width). It is inert (buckets nil) until the
// first calendar-core insert, so heap-core sorters pay nothing for it.
type calendar struct {
	buckets []calBucket
	width   int64 // bucket width in µs; always 1 << shift
	shift   uint  // log2(width): bucket offsets divide by shifting
	base    int64 // lower timestamp edge of buckets[cur]
	cur     int   // ring index of the front (oldest) bucket
	maxOff  int   // furthest occupied bucket offset from cur
	count   int   // live records across all buckets
}

// calBucket is one timestamp slot of the ring: a flat slice of sort keys
// over one byte slab holding their records. Both are recycled with the
// bucket — reset truncates them, later appends refill them — so
// steady-state traffic allocates nothing, and sorting moves 32-byte keys
// while the bytes stay put.
type calBucket struct {
	keys []sortKey
	slab []byte
	hd   int // emitted prefix; non-zero only on the front bucket
	// dirty marks the live region keys[hd:] as not known to be
	// (TS, Seq)-sorted. Appends arrive in Seq order, so the region stays
	// sorted for free until a push lands behind the bucket's tail; the
	// sort is deferred until the bucket reaches the front of the drain.
	dirty bool
}

// live returns the number of unemitted records in the bucket.
func (b *calBucket) live() int { return len(b.keys) - b.hd }

// append copies body into the bucket's slab under k.
func (b *calBucket) append(k sortKey, body []byte) {
	if n := len(b.keys); n > b.hd && k.ts < b.keys[n-1].ts {
		b.dirty = true
	}
	b.keys, b.slab = store(b.keys, b.slab, k, body)
}

// reset empties the bucket for reuse, keeping key and slab capacity so
// later appends recycle rather than allocate.
func (b *calBucket) reset() {
	b.keys = b.keys[:0]
	b.slab = b.slab[:0]
	b.hd = 0
	b.dirty = false
}

// sortLive insertion-sorts the live keys by (TS, Seq). Buckets are small
// when width tracks T, and appends are Seq-ordered already, so the common
// dirty bucket is nearly sorted — insertion sort's best case.
func (b *calBucket) sortLive() {
	for i := b.hd + 1; i < len(b.keys); i++ {
		k := b.keys[i]
		j := i - 1
		for j >= b.hd && k.before(&b.keys[j]) {
			b.keys[j+1] = b.keys[j]
			j--
		}
		b.keys[j+1] = k
	}
	b.dirty = false
}

// oldest returns the minimum live timestamp, and false when the ring is
// empty. Read-only: the front bucket is scanned rather than sorted.
func (c *calendar) oldest() (int64, bool) {
	if c.count == 0 {
		return 0, false
	}
	for off := 0; off <= c.maxOff; off++ {
		b := &c.buckets[(c.cur+off)&(calBuckets-1)]
		if b.live() == 0 {
			continue
		}
		min := b.keys[b.hd].ts
		for _, k := range b.keys[b.hd+1:] {
			if k.ts < min {
				min = k.ts
			}
		}
		return min, true
	}
	return 0, false
}

// calReinit re-centers the empty ring on ts. The bucket width chases
// the adaptive window's target T/calWidthDiv, but stickily: a width
// that rebuilds widened to fit the workload's real in-flight span
// decays only by half per drain-to-empty cycle, so a steady workload
// settles instead of rebuilding every cycle. Centering ts mid-ring
// leaves half the span behind the first record for stragglers and half
// ahead for the sources racing past it.
func (s *Sorter) calReinit(ts int64) {
	c := &s.cal
	if c.buckets == nil {
		c.buckets = make([]calBucket, calBuckets)
	}
	target := int64(s.t) / calWidthDiv
	if target < calMinWidth {
		target = calMinWidth
	}
	tshift := uint(bits.Len64(uint64(target - 1))) // ceil(log2), width pow2
	if c.shift < tshift {
		c.shift = tshift
	} else if c.shift > tshift {
		c.shift-- // decay one doubling per drain-to-empty cycle
	}
	c.width = 1 << c.shift
	c.base = ts - int64(calBuckets/2)*c.width
	c.maxOff = 0
}

// calInsert places a record (its key and encoded body) into the bucket
// ring, returning false when the calendar cannot hold it without
// breaking heap equivalence — the caller must fall back to the heap core
// and push there instead. The three refusals, in check order: the record
// regresses its own source's buffered timeline (the sortedness the global
// bucket order relies on), it lands behind the ring further than a
// re-anchor can reach, or its bucket is pathologically hot (see
// calHotBucket) or out of slab.
func (s *Sorter) calInsert(q *srcQueue, k sortKey, body []byte) bool {
	c := &s.cal
	if c.count == 0 {
		s.calReinit(k.ts)
	}
	if q.buffered > 0 && k.ts < q.lastPushTS {
		return false
	}
	if k.ts < c.base {
		// A straggler behind the ring: re-anchor backward when the
		// unoccupied tail leaves room — O(1), no records move, their ring
		// positions are preserved because cur and base shift together.
		n := int((c.base - k.ts + c.width - 1) >> c.shift)
		if n > calBuckets-1-c.maxOff {
			return false
		}
		c.cur = (c.cur - n + calBuckets) & (calBuckets - 1)
		c.base -= int64(n) << c.shift
		c.maxOff += n
	}
	off := int((k.ts - c.base) >> c.shift)
	if off >= calBuckets {
		s.calRebuild(k.ts)
		off = int((k.ts - c.base) >> c.shift)
	}
	b := &c.buckets[(c.cur+off)&(calBuckets-1)]
	if l := b.live(); l >= calHotBucket && (l+1)*2 > c.count+1 || len(b.slab)+len(body) > maxSlab {
		return false
	}
	b.append(k, body)
	if off > c.maxOff {
		c.maxOff = off
	}
	c.count++
	return true
}

// calRebuild widens the buckets until ts fits in the ring, re-bucketing
// every live record at the new width. O(count) key and byte moves through
// a staging pair and allowed to allocate — it is off the steady-state
// path, and the widened width is sticky across drain-to-empty cycles
// (calReinit), so a workload whose in-flight span exceeds T/calWidthDiv
// pays a few doublings once rather than a rebuild per cycle. Counted in
// Stats.CalendarRebuilds.
func (s *Sorter) calRebuild(ts int64) {
	c := &s.cal
	s.stats.CalendarRebuilds++
	need := ts - c.base
	sh := c.shift
	for int64(calBuckets-1)<<sh <= need {
		sh++
	}
	keys, slab := s.calKeys[:0], s.calSlab[:0]
	for off := 0; off <= c.maxOff; off++ {
		b := &c.buckets[(c.cur+off)&(calBuckets-1)]
		for _, k := range b.keys[b.hd:] {
			keys, slab = store(keys, slab, k, b.slab[k.off:][:k.n])
		}
		b.reset()
	}
	c.shift = sh
	c.width = 1 << sh
	c.cur = 0
	c.maxOff = 0
	// base is unchanged: it already sits at or below the oldest live
	// record, so every existing offset shrinks into range.
	for _, k := range keys {
		off := int((k.ts - c.base) >> c.shift)
		c.buckets[off].append(k, slab[k.off:][:k.n])
		if off > c.maxOff {
			c.maxOff = off
		}
	}
	s.calKeys, s.calSlab = keys[:0], slab[:0]
}

// calAdvance retires the (drained) front bucket: the ring rotates one
// position and base moves up one width.
func (s *Sorter) calAdvance() {
	c := &s.cal
	c.cur = (c.cur + 1) & (calBuckets - 1)
	c.base += c.width
	if c.maxOff > 0 {
		c.maxOff--
	}
}

// calDrain is extract for the calendar core: an append-order scan of
// expired buckets, handing out each aged key (now − TS ≥ T) in
// (TS, Seq) order and stopping at the first record still inside the
// window. Identical gate, identical order, identical borrow contract to
// extractHeap.
func (s *Sorter) calDrain(now, gate int64, out func(*sortKey, []byte)) int {
	c := &s.cal
	n := 0
	for c.count > 0 {
		b := &c.buckets[c.cur]
		if b.dirty && b.live() > 0 {
			b.sortLive()
		}
		for b.hd < len(b.keys) {
			k := &b.keys[b.hd]
			if now-k.ts < gate {
				return n
			}
			b.hd++
			c.count--
			s.retire(s.srcs[k.src], k)
			out(k, b.slab)
			n++
		}
		b.reset()
		s.calAdvance()
	}
	return n
}

// fallbackToHeap migrates every live record out of the bucket ring into
// its source's FIFO queue and rebuilds the heap over the non-empty
// queues, switching the sorter to the heap core. Migration preserves
// per-source Seq order — bucket ranges increase with the scan, and
// within a bucket both the sorted and the append order restrict to Seq
// order per source — so the rebuilt queues are exactly what an
// always-heap run would hold, and emission continues byte-identically.
// The sorter returns to the calendar once it drains empty (maybeRevert).
func (s *Sorter) fallbackToHeap() {
	s.stats.HeapFallbacks++
	c := &s.cal
	for off := 0; off <= c.maxOff && c.count > 0; off++ {
		b := &c.buckets[(c.cur+off)&(calBuckets-1)]
		for _, k := range b.keys[b.hd:] {
			s.srcs[k.src].push(k, b.slab[k.off:][:k.n])
			c.count--
		}
		b.reset()
	}
	c.count = 0
	c.maxOff = 0
	s.h = s.h[:0]
	for _, q := range s.queues {
		if q.empty() {
			q.pos = -1
			continue
		}
		q.pos = len(s.h)
		s.h = append(s.h, q)
	}
	heap.Init(&s.h)
	s.onHeap = true
}

// maybeRevert returns a calendar-core sorter from the heap fallback
// once everything buffered has drained: both cores are indistinguishable
// from an empty state, so the switch cannot perturb emission order.
func (s *Sorter) maybeRevert() {
	if s.onHeap && s.cfg.Core == CoreCalendar && s.buffered == 0 {
		s.onHeap = false
	}
}

// MaxBucketOccupancy returns the live-record count of the fullest
// calendar bucket — the imbalance signal behind the heap fallback, and
// the value the brisk_ols_bucket_occupancy gauge exposes. Zero while
// the heap fallback is active (the ring is empty then) and for
// heap-core sorters.
func (s *Sorter) MaxBucketOccupancy() int {
	max := 0
	for i := range s.cal.buckets {
		if l := s.cal.buckets[i].live(); l > max {
			max = l
		}
	}
	return max
}
