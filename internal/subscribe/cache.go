package subscribe

import (
	"sync"
)

// entry is one cached record of the hot window: the node-prefixed
// encoding exactly as the memory-buffer sink stores it, plus the header
// metadata needed to pre-filter without decoding. Entry storage is
// recycled in place as the ring wraps, so a steady publish stream
// allocates nothing.
type entry struct {
	seq   uint64 // global emission sequence (publish order across shards)
	ts    int64  // record timestamp (µs UTC), 0 if absent
	wall  int64  // publish instant (µs) for TTL eviction
	node  int32
	event uint8
	hasTS bool
	buf   []byte // 4-byte node prefix + encoded record, entry-owned
}

// shard is one slice of the hot window: a ring of entries covering the
// sources that hash here, with dense head/tail indices. entries[i&mask]
// holds logical index i for tail <= i < head. Retention is bounded
// jointly by the per-shard byte budget and the window TTL; eviction only
// ever advances tail, so "index < tail" is exactly "evicted".
type shard struct {
	mu      sync.Mutex
	entries []entry // power-of-two ring
	head    uint64  // next logical index to write
	tail    uint64  // oldest retained logical index
	bytes   int     // retained payload bytes

	// lastEvictedTS is the timestamp of the newest evicted entry — the
	// end of the gap any cursor left behind tail has missed, used to
	// stamp the loss marker covering it.
	lastEvictedTS int64
	evictedN      uint64 // entries evicted over the shard's lifetime
}

// cache is the sharded hot window. The publisher (the manager's merger
// goroutine) appends to one shard per record; subscribers and queries
// batch-copy entries out under the shard lock.
type cache struct {
	shards    []*shard
	mask      uint32
	byteLimit int   // per-shard byte budget
	ttl       int64 // µs; 0 = no TTL eviction
	maxRing   int   // per-shard entry-count ceiling (power of two)
}

func newCache(shards, windowBytes int, ttlMicros int64) *cache {
	c := &cache{
		shards:    make([]*shard, shards),
		mask:      uint32(shards - 1),
		byteLimit: windowBytes / shards,
		ttl:       ttlMicros,
		maxRing:   1 << 16,
	}
	if c.byteLimit < 1024 {
		c.byteLimit = 1024
	}
	for i := range c.shards {
		c.shards[i] = &shard{entries: make([]entry, 64)}
	}
	return c
}

// shardFor maps a source to its shard: low bits of the node id. The
// identity mapping (rather than a scrambling hash) keeps the
// source→shard relation transparent for operators and tests; BRISK node
// ids are small dense integers assigned at HELLO, so low bits spread
// them evenly.
func (c *cache) shardFor(node int32) *shard {
	return c.shards[uint32(node)&c.mask]
}

// put appends one encoded record to the shard's ring, evicting by TTL
// and byte budget. It returns the number of entries evicted to make
// room. Steady state allocates nothing: a recycled slot's buf is
// append-reused, and the ring only grows until it reaches the byte
// budget or the entry ceiling.
func (s *shard) put(c *cache, seq uint64, node int32, event uint8, ts int64, hasTS bool, wall int64, encoded []byte) (evicted int) {
	s.mu.Lock()
	// TTL first: age out entries regardless of space pressure.
	if c.ttl > 0 {
		cutoff := wall - c.ttl
		for s.tail < s.head {
			e := &s.entries[s.tail&uint64(len(s.entries)-1)]
			if e.wall >= cutoff {
				break
			}
			s.evict(e)
			evicted++
		}
	}
	// Byte budget: evict oldest until the new entry fits.
	for s.bytes+len(encoded) > c.byteLimit && s.tail < s.head {
		s.evict(&s.entries[s.tail&uint64(len(s.entries)-1)])
		evicted++
	}
	if live := s.head - s.tail; live == uint64(len(s.entries)) {
		if len(s.entries) < c.maxRing {
			s.grow()
		} else {
			s.evict(&s.entries[s.tail&uint64(len(s.entries)-1)])
			evicted++
		}
	}
	e := &s.entries[s.head&uint64(len(s.entries)-1)]
	e.seq, e.node, e.event, e.ts, e.hasTS, e.wall = seq, node, event, ts, hasTS, wall
	e.buf = append(e.buf[:0], encoded...)
	s.bytes += len(e.buf)
	s.head++
	s.mu.Unlock()
	return evicted
}

// evict retires the tail entry. Shard lock held. The entry's buf stays
// allocated for reuse by a future head.
func (s *shard) evict(e *entry) {
	s.bytes -= len(e.buf)
	if e.hasTS {
		s.lastEvictedTS = e.ts
	}
	s.evictedN++
	s.tail++
}

// grow doubles the ring, relocating live entries to their slots under
// the wider mask. Shard lock held. Growth stops at the cache ceiling;
// after warm-up the ring size is stable and put never allocates.
func (s *shard) grow() {
	bigger := make([]entry, len(s.entries)*2)
	for i := s.tail; i < s.head; i++ {
		bigger[i&uint64(len(bigger)-1)] = s.entries[i&uint64(len(s.entries)-1)]
	}
	s.entries = bigger
}

// loaded is one batch-copied cache entry: the subscriber- or query-owned
// copy of an entry's metadata with its encoding appended to a caller
// arena (offsets into it, so one arena allocation serves the batch).
type loaded struct {
	seq      uint64
	node     int32
	off, end int // slice bounds into the caller's arena
}

// load batch-copies up to max entries with logical index >= from into
// out/arena, pre-filtering on entry metadata under one lock hold — the
// batch loader for subscriber catch-up and live tails. It
// reports the entries scanned (not just matched) so cursors advance past
// non-matching records, the gap [from, tail) if the cursor was overrun,
// and the shard's current tail and head.
func (s *shard) load(f *Filter, from uint64, max int, out []loaded, arena []byte) (res []loaded, ar []byte, scanned uint64, gap uint64, gapTS int64, tail, head uint64) {
	s.mu.Lock()
	tail, head = s.tail, s.head
	if from < tail {
		gap = tail - from
		gapTS = s.lastEvictedTS
		from = tail
	}
	for i := from; i < head && scanned < uint64(max); i++ {
		e := &s.entries[i&uint64(len(s.entries)-1)]
		scanned++
		if f != nil && !f.MatchMeta(e.node, e.event, e.ts, e.hasTS) {
			continue
		}
		out, arena = e.copyOut(out, arena)
	}
	s.mu.Unlock()
	return out, arena, scanned, gap, gapTS, tail, head
}

// loadBack is load walking newest-first, the query's loader: it scans
// down from logical index before-1 toward tail, at most maxScan entries,
// and stops early once maxOut entries matched. out is in descending
// index order. It reports the entries scanned and the shard's tail.
func (s *shard) loadBack(f *Filter, before uint64, maxScan, maxOut int, out []loaded, arena []byte) (res []loaded, ar []byte, scanned, tail uint64) {
	s.mu.Lock()
	tail = s.tail
	before = min(before, s.head)
	for i := before; i > tail && scanned < uint64(maxScan) && len(out) < maxOut; {
		i--
		e := &s.entries[i&uint64(len(s.entries)-1)]
		scanned++
		if !f.MatchMeta(e.node, e.event, e.ts, e.hasTS) {
			continue
		}
		out, arena = e.copyOut(out, arena)
	}
	s.mu.Unlock()
	return out, arena, scanned, tail
}

// copyOut appends the entry's metadata to out and its encoding to arena.
// Shard lock held.
func (e *entry) copyOut(out []loaded, arena []byte) ([]loaded, []byte) {
	off := len(arena)
	arena = append(arena, e.buf...)
	return append(out, loaded{seq: e.seq, node: e.node, off: off, end: len(arena)}), arena
}

// bounds returns the shard's current retention window without copying.
func (s *shard) bounds() (tail, head uint64) {
	s.mu.Lock()
	tail, head = s.tail, s.head
	s.mu.Unlock()
	return
}

// stats sums the cache's current occupancy.
func (c *cache) stats() (entries uint64, bytes int, evicted uint64) {
	for _, s := range c.shards {
		s.mu.Lock()
		entries += s.head - s.tail
		bytes += s.bytes
		evicted += s.evictedN
		s.mu.Unlock()
	}
	return
}
