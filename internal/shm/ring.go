// Package shm provides BRISK's "shared memory" substrate.
//
// In the paper, internal sensors are cpp macros that write instrumentation
// data records into a ring buffer in shared memory; the external sensor is
// a separate process on the same node that reads the ring. This Go
// reproduction keeps the same data path — application thread writes a
// pre-encoded record into a ring, the external sensor drains it — using a
// lock-free single-producer/single-consumer byte ring per sensor and a
// Region that groups all rings on one node.
//
// The package also provides Buffer, the manager's default output: a
// single-writer memory buffer that any number of consumer tools read at
// their own pace through cursors, with overrun detection (the paper's
// "event dropping" when a consumer cannot keep up).
package shm

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"brisk/internal/record"
)

// Ring buffer geometry limits.
const (
	// MinRingBytes is the smallest permitted ring capacity.
	MinRingBytes = 64
	// MaxEntryBytes is the largest single record a ring accepts. Larger
	// writes fail immediately rather than deadlocking the producer.
	MaxEntryBytes = 1 << 15
)

// pad keeps hot atomics on separate cache lines to avoid false sharing
// between the producer and consumer cores.
type pad [56]byte

// Ring is a lock-free single-producer/single-consumer ring buffer of
// length-prefixed byte records. The producer (an internal sensor) calls
// Write; the consumer (the external sensor) calls Drain or DrainAppend.
// When the ring is full the write is dropped and counted, mirroring the
// paper's bounded-intrusion design: the application never blocks on the
// instrumentation system.
type Ring struct {
	buf  []byte
	mask uint64

	_    pad
	head atomic.Uint64 // next byte to read; owned by the consumer
	_    pad
	tail atomic.Uint64 // next byte to write; owned by the producer
	_    pad

	dropped atomic.Uint64
	written atomic.Uint64
}

// NewRing returns a ring with the given capacity in bytes, rounded up to a
// power of two and at least MinRingBytes.
func NewRing(capacity int) *Ring {
	c := MinRingBytes
	for c < capacity {
		c <<= 1
	}
	return &Ring{buf: make([]byte, c), mask: uint64(c - 1)}
}

// Cap returns the ring capacity in bytes.
func (r *Ring) Cap() int { return len(r.buf) }

// Dropped returns the number of records dropped because the ring was full.
func (r *Ring) Dropped() uint64 { return r.dropped.Load() }

// Written returns the number of records successfully written.
func (r *Ring) Written() uint64 { return r.written.Load() }

// used returns the number of occupied bytes as seen by the producer.
func (r *Ring) used() uint64 { return r.tail.Load() - r.head.Load() }

// Write copies one record into the ring. It returns false and counts a
// drop if the ring lacks space. Only one goroutine may call Write.
func (r *Ring) Write(rec []byte) bool {
	need := uint64(4 + len(rec))
	if len(rec) > MaxEntryBytes || need > uint64(len(r.buf)) {
		r.dropped.Add(1)
		return false
	}
	tail := r.tail.Load()
	if uint64(len(r.buf))-(tail-r.head.Load()) < need {
		r.dropped.Add(1)
		return false
	}
	r.putUint32(tail, uint32(len(rec)))
	r.copyIn(tail+4, rec)
	r.tail.Store(tail + need) // release: publishes the record bytes
	r.written.Add(1)
	return true
}

// putUint32 writes a big-endian length prefix at pos, handling wraparound.
func (r *Ring) putUint32(pos uint64, v uint32) {
	i := pos & r.mask
	if i+4 <= uint64(len(r.buf)) {
		r.buf[i] = byte(v >> 24)
		r.buf[i+1] = byte(v >> 16)
		r.buf[i+2] = byte(v >> 8)
		r.buf[i+3] = byte(v)
		return
	}
	var tmp [4]byte
	tmp[0] = byte(v >> 24)
	tmp[1] = byte(v >> 16)
	tmp[2] = byte(v >> 8)
	tmp[3] = byte(v)
	r.copyIn(pos, tmp[:])
}

func (r *Ring) getUint32(pos uint64) uint32 {
	i := pos & r.mask
	if i+4 <= uint64(len(r.buf)) {
		return uint32(r.buf[i])<<24 | uint32(r.buf[i+1])<<16 |
			uint32(r.buf[i+2])<<8 | uint32(r.buf[i+3])
	}
	var tmp [4]byte
	r.copyOut(pos, tmp[:])
	return uint32(tmp[0])<<24 | uint32(tmp[1])<<16 | uint32(tmp[2])<<8 | uint32(tmp[3])
}

func (r *Ring) copyIn(pos uint64, p []byte) {
	i := pos & r.mask
	n := copy(r.buf[i:], p)
	if n < len(p) {
		copy(r.buf, p[n:])
	}
}

func (r *Ring) copyOut(pos uint64, p []byte) {
	i := pos & r.mask
	n := copy(p, r.buf[i:])
	if n < len(p) {
		copy(p[n:], r.buf[:len(p)-n])
	}
}

// Drain consumes up to maxRecords records (0 means no limit), invoking
// emit for each. The slice passed to emit is only valid during the call.
// Only one goroutine may call Drain/DrainAppend. It returns the number of
// records consumed.
func (r *Ring) Drain(maxRecords int, emit func(rec []byte)) int {
	head := r.head.Load()
	tail := r.tail.Load() // acquire: record bytes below tail are published
	n := 0
	scratch := drainScratch.Get().(*[]byte)
	defer drainScratch.Put(scratch)
	for head < tail {
		if maxRecords > 0 && n >= maxRecords {
			break
		}
		size := uint64(r.getUint32(head))
		if cap(*scratch) < int(size) {
			*scratch = make([]byte, size)
		}
		rec := (*scratch)[:size]
		r.copyOut(head+4, rec)
		head += 4 + size
		r.head.Store(head) // free space before emit so producers progress
		emit(rec)
		n++
	}
	return n
}

var drainScratch = sync.Pool{New: func() any { return new([]byte) }}

// DrainAppend consumes records, appending their raw bytes to dst until the
// appended payload would exceed maxBytes (0 means no limit) or the ring is
// empty. Records are self-framing (BRISK record headers carry a length),
// so concatenation preserves boundaries. It returns the extended slice and
// the number of records consumed.
func (r *Ring) DrainAppend(dst []byte, maxBytes int) ([]byte, int) {
	head := r.head.Load()
	tail := r.tail.Load()
	start := len(dst)
	n := 0
	for head < tail {
		size := uint64(r.getUint32(head))
		if maxBytes > 0 && len(dst)-start+int(size) > maxBytes && n > 0 {
			break
		}
		off := len(dst)
		dst = append(dst, make([]byte, size)...)
		r.copyOut(head+4, dst[off:])
		head += 4 + size
		n++
	}
	r.head.Store(head)
	return dst, n
}

// HeadTS peeks the timestamp of the oldest record without consuming it.
// ok is false when the ring is empty. A head record with no parseable
// timestamp reports math.MinInt64 so a timestamp-ordered merge across
// rings drains it immediately rather than stalling behind it. Only the
// drain goroutine may call it.
func (r *Ring) HeadTS() (ts int64, ok bool) {
	head := r.head.Load()
	tail := r.tail.Load() // acquire: record bytes below tail are published
	if head >= tail {
		return 0, false
	}
	size := uint64(r.getUint32(head))
	i := (head + 4) & r.mask
	if i+size <= uint64(len(r.buf)) {
		// Contiguous: peek in place, no copy.
		if ts, _, hasTS := record.PeekTS(r.buf[i : i+size]); hasTS {
			return ts, true
		}
		return math.MinInt64, true
	}
	scratch := drainScratch.Get().(*[]byte)
	defer drainScratch.Put(scratch)
	if cap(*scratch) < int(size) {
		*scratch = make([]byte, size)
	}
	rec := (*scratch)[:size]
	r.copyOut(head+4, rec)
	if ts, _, hasTS := record.PeekTS(rec); hasTS {
		return ts, true
	}
	return math.MinInt64, true
}

// DrainOne consumes exactly the oldest record, appending its bytes to
// dst. It returns the extended slice and false when the ring is empty.
// Together with HeadTS it lets a consumer merge several rings in
// timestamp order. Only one goroutine may call Drain/DrainAppend/DrainOne.
func (r *Ring) DrainOne(dst []byte) ([]byte, bool) {
	head := r.head.Load()
	tail := r.tail.Load()
	if head >= tail {
		return dst, false
	}
	size := uint64(r.getUint32(head))
	off := len(dst)
	dst = append(dst, make([]byte, size)...)
	r.copyOut(head+4, dst[off:])
	r.head.Store(head + 4 + size)
	return dst, true
}

// Len returns the approximate number of unread bytes.
func (r *Ring) Len() int { return int(r.used()) }

// Region groups the sensor rings of one node, the structure the external
// sensor scans. Sensors attach rings as they start; the external sensor
// snapshots the ring list per drain pass.
type Region struct {
	mu    sync.RWMutex
	rings []*Ring
	names []string
}

// NewRegion returns an empty region.
func NewRegion() *Region { return &Region{} }

// Attach creates a ring of the given byte capacity for a named sensor and
// returns it.
func (g *Region) Attach(name string, capacity int) *Ring {
	r := NewRing(capacity)
	g.mu.Lock()
	g.rings = append(g.rings, r)
	g.names = append(g.names, name)
	g.mu.Unlock()
	return r
}

// Rings returns a snapshot of the attached rings.
func (g *Region) Rings() []*Ring {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*Ring, len(g.rings))
	copy(out, g.rings)
	return out
}

// Stats summarizes all rings: total records written and dropped.
func (g *Region) Stats() (written, dropped uint64) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, r := range g.rings {
		written += r.Written()
		dropped += r.Dropped()
	}
	return written, dropped
}

// String describes the region for diagnostics.
func (g *Region) String() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return fmt.Sprintf("shm.Region{%d rings}", len(g.rings))
}
