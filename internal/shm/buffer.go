package shm

import (
	"sync"
)

// Buffer is the manager's default output: a bounded, single-writer record
// buffer that multiple consumer tools read concurrently, each through its
// own Cursor. The writer never blocks; when a slow reader is lapped, its
// next read reports how many records it lost, reproducing the ISM's
// event-dropping behaviour for slow consumers.
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

// Next returns the next record, blocking until one is available or the
// buffer is closed. On EOF it returns (nil, 0, false). If the consumer was
// lapped, lost reports how many records were skipped; the read still
// succeeds with the oldest retained record. The record is a fresh copy.
func (c *Cursor) Next() (rec []byte, lost uint64, ok bool) { return c.read(nil, true) }

// TryNext is the non-blocking variant of Next. ok is false when no record
// is currently available (which does not imply EOF).
func (c *Cursor) TryNext() (rec []byte, lost uint64, ok bool) { return c.read(nil, false) }

// NextInto is Next for a reader that recycles its buffer: the record is
// copied into buf's storage (from its start, growing it if need be) and
// returned as a slice of it, valid until the caller reuses buf.
func (c *Cursor) NextInto(buf []byte) (rec []byte, lost uint64, ok bool) {
	return c.read(buf[:0], true)
}

// TryNextInto is the non-blocking variant of NextInto.
func (c *Cursor) TryNextInto(buf []byte) (rec []byte, lost uint64, ok bool) {
	return c.read(buf[:0], false)
}

// read copies the entry at the cursor onto dst and advances, waiting for
// one to arrive (or for Close) when wait is set.
func (c *Cursor) read(dst []byte, wait bool) (rec []byte, lost uint64, ok bool) {
	b := c.b
	b.mu.Lock()
	defer b.mu.Unlock()
	for wait && c.pos == b.seq && !b.done {
		b.cond.Wait()
	}
	if c.pos == b.seq {
		return nil, 0, false
	}
	if b.seq-c.pos > b.cap {
		lost = b.seq - b.cap - c.pos
		c.pos = b.seq - b.cap
	}
	e := b.idx[c.pos%b.cap]
	rec = b.get(dst, e.off, int(e.n))
	c.pos++
	return rec, lost, true
}
