package shm

import (
	"sync"
)

// Buffer is the manager's default output: a bounded, single-writer record
// buffer that multiple consumer tools read concurrently, each through its
// own Cursor. The writer never waits for a reader to catch up: when a slow
// reader is lapped, its next read reports how many records it lost,
// reproducing the ISM's event-dropping behaviour for slow consumers.
// Readers do share the writer's mutex, and each holds it for at most one
// bounded copy: a single entry, or a run of entries of at most runBytes.
//
// Retention is counted in records: the last capacity entries stay
// readable. Their bytes sit back to back in one flat byte ring, found
// through a pointer-free index of (offset, length) pairs, so the buffer
// is two heap objects however many entries it retains — nothing for the
// garbage collector to walk per slot. The ring starts small and doubles
// until it holds capacity entries of the sizes actually published.
type Buffer struct {
	mu   sync.Mutex
	cond *sync.Cond
	data []byte // the byte ring; len is a power of two
	idx  []span // entry seq lives in idx[seq%cap]
	// head and tail bound the retained bytes in virtual offsets, which only
	// ever grow; a virtual offset maps into data by masking with len−1.
	head, tail uint64
	seq        uint64 // total records ever written
	cap        uint64
	done       bool
}

// span locates one entry's bytes in the ring.
type span struct {
	off uint64 // virtual offset of the first byte
	n   uint32
}

// minRing is the byte ring's initial size.
const minRing = 4096

// NewBuffer returns a buffer that retains the last capacity records.
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	b := &Buffer{data: make([]byte, minRing), idx: make([]span, capacity), cap: uint64(capacity)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Publish appends one record, overwriting the oldest if full. The record
// bytes are copied.
func (b *Buffer) Publish(rec []byte) {
	b.mu.Lock()
	b.put(rec)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// PublishBatch appends a run of records under a single lock acquisition
// and a single reader wakeup — the manager's batched sink delivery. Each
// record is copied into the ring, as with Publish.
func (b *Buffer) PublishBatch(recs [][]byte) {
	if len(recs) == 0 {
		return
	}
	b.mu.Lock()
	for _, rec := range recs {
		b.put(rec)
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// put copies rec in behind the newest entry, first retiring the entry
// that falls out of retention and growing the ring if the rest leave no
// room. Caller holds mu.
func (b *Buffer) put(rec []byte) {
	slot := &b.idx[b.seq%b.cap]
	if b.seq >= b.cap {
		b.head = slot.off + uint64(slot.n)
	}
	if need := b.tail - b.head + uint64(len(rec)); need > uint64(len(b.data)) {
		b.grow(need)
	}
	p := int(b.tail) & (len(b.data) - 1)
	k := copy(b.data[p:], rec)
	copy(b.data, rec[k:])
	*slot = span{off: b.tail, n: uint32(len(rec))}
	b.tail += uint64(len(rec))
	b.seq++
}

// grow doubles the ring until need bytes fit, moving the retained bytes
// to its front and rebasing every retained entry's offset to match.
func (b *Buffer) grow(need uint64) {
	size := len(b.data)
	for uint64(size) < need {
		size *= 2
	}
	b.data = b.get(make([]byte, 0, size), b.head, int(b.tail-b.head))[:size]
	for i := range b.idx {
		if b.idx[i].off >= b.head {
			b.idx[i].off -= b.head
		}
	}
	b.tail -= b.head
	b.head = 0
}

// get appends the n bytes at virtual offset off onto dst. Caller holds mu.
func (b *Buffer) get(dst []byte, off uint64, n int) []byte {
	p := int(off) & (len(b.data) - 1)
	if rest := len(b.data) - p; n > rest {
		return append(append(dst, b.data[p:]...), b.data[:n-rest]...)
	}
	return append(dst, b.data[p:p+n]...)
}

// Close marks the stream finished; blocked readers wake and see EOF after
// draining.
func (b *Buffer) Close() {
	b.mu.Lock()
	b.done = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Written returns the total number of records published.
func (b *Buffer) Written() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Cursor is one consumer's read position in a Buffer.
type Cursor struct {
	b   *Buffer
	pos uint64
}

// NewCursor returns a cursor positioned at the oldest retained record.
func (b *Buffer) NewCursor() *Cursor {
	b.mu.Lock()
	defer b.mu.Unlock()
	pos := uint64(0)
	if b.seq > b.cap {
		pos = b.seq - b.cap
	}
	return &Cursor{b: b, pos: pos}
}

// runBytes caps the bytes one run read copies under the buffer's mutex: a
// few dozen small records. A run lets a reader take the lock once per few
// dozen records instead of once per record; the cap keeps the writer,
// which publishes under the same lock, from queueing behind a long copy.
const runBytes = 2 << 10

// Next returns the next record, blocking until one is available or the
// buffer is closed. On EOF it returns (nil, 0, false). If the consumer was
// lapped, lost reports how many records were skipped; the read still
// succeeds with the oldest retained record. The record is a fresh copy.
func (c *Cursor) Next() (rec []byte, lost uint64, ok bool) { return c.one(true) }

// TryNext is the non-blocking variant of Next. ok is false when no record
// is currently available (which does not imply EOF).
func (c *Cursor) TryNext() (rec []byte, lost uint64, ok bool) { return c.one(false) }

// Run is a run of consecutive entries copied out of a Buffer by one
// NextRun or TryNextRun: their bytes back to back in Data, entry i ending
// at Ends[i] (and starting where entry i−1 ends). A reader reuses one Run
// across reads; each read overwrites it.
type Run struct {
	Data []byte
	Ends []uint32
}

// NextRun copies a run of entries from the cursor onward into r, under one
// lock, blocking until at least one is available or the buffer is closed.
// The run holds at least one entry and then as many more as keep its bytes
// within runBytes; an entry larger than that comes back alone. lost and ok
// mean what they do for Next, and lost counts only records before the run.
func (c *Cursor) NextRun(r *Run) (lost uint64, ok bool) { return c.run(r, true) }

// TryNextRun is the non-blocking variant of NextRun. ok is false, and r is
// empty, when no record is currently available.
func (c *Cursor) TryNextRun(r *Run) (lost uint64, ok bool) { return c.run(r, false) }

// one copies the entry at the cursor into a fresh slice and advances.
func (c *Cursor) one(wait bool) (rec []byte, lost uint64, ok bool) {
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	if lost, ok = c.start(wait); ok {
		rec = c.take(nil)
	}
	return rec, lost, ok
}

// run refills r with the entries from the cursor onward, up to runBytes.
func (c *Cursor) run(r *Run, wait bool) (lost uint64, ok bool) {
	b := c.b
	b.mu.Lock()
	defer b.mu.Unlock()
	r.Data, r.Ends = r.Data[:0], r.Ends[:0]
	if lost, ok = c.start(wait); !ok {
		return 0, false
	}
	for {
		r.Data = c.take(r.Data)
		r.Ends = append(r.Ends, uint32(len(r.Data)))
		if c.pos == b.seq || len(r.Data)+int(b.idx[c.pos%b.cap].n) > runBytes {
			return lost, true
		}
	}
}

// start waits, when wait is set, until an entry is at or past the cursor or
// the buffer is closed, and moves a lapped cursor up to the oldest retained
// entry. ok is false when there is no entry to read. Caller holds mu.
func (c *Cursor) start(wait bool) (lost uint64, ok bool) {
	b := c.b
	for wait && c.pos == b.seq && !b.done {
		b.cond.Wait()
	}
	if c.pos == b.seq {
		return 0, false
	}
	if b.seq-c.pos > b.cap {
		lost = b.seq - b.cap - c.pos
		c.pos = b.seq - b.cap
	}
	return lost, true
}

// take appends the entry at the cursor onto dst and advances. Caller
// holds mu, and start has reported an entry.
func (c *Cursor) take(dst []byte) []byte {
	e := c.b.idx[c.pos%c.b.cap]
	c.pos++
	return c.b.get(dst, e.off, int(e.n))
}
