package main

// The load generator. Everything the system under test receives is made
// here from the seed alone: batch templates, per-source delay tables and
// the notice argument table. The only thing added at send time is the
// wall clock (stamps are "now − delay", due times are "epoch + k·period"),
// so the same seed yields byte-identical generated input — inputSHA
// proves it — and the generator shares no code with the program it loads.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"math"

	"brisk/internal/record"
)

const (
	batchRecords = 256 // records per DATA / RELAY_DATA batch
	noticeBlock  = 64  // notices issued back to back per pacing step
	floodEvent   = 1   // event class of every generated data record
	delaySlots   = 1024
)

// rng is splitmix64: tiny, seedable, and independent of both math/rand's
// and the repository's generators, so neither can change the input.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float is uniform in (0, 1].
func (r *rng) float() float64 { return (float64(r.next()>>11) + 1) / (1 << 53) }

// exp draws an exponential variate with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(r.float()) }

// template is one pre-encoded batch payload plus where to patch each
// record's timestamp, sequence number (field a) and send/due stamp
// (field b). Records are the paper's evaluation shape: an embedded
// timestamp and six int32 fields, 40 bytes on the wire.
type template struct {
	payload []byte
	tsOff   []int // offset of each record's 8-byte X_TS
	origin  []int // index of each record's source within the batch's session
	sources int   // distinct sources the batch interleaves
	matched int   // records the selective subscriber's filter accepts (field c < 5)
}

// Field offsets relative to a record's X_TS field: a follows the 8-byte
// timestamp, b follows a.
const (
	offA = 8
	offB = 12
)

// newTemplate encodes a batch of batchRecords records. With sources > 0
// the batch is a RELAY_DATA payload: record i carries the 4-byte origin
// prefix firstNode + i%sources. Field c cycles 0..99 (the selective
// filter keys on it); d, e, f are seeded noise.
func newTemplate(r *rng, sources int, firstNode int32) (*template, error) {
	t := &template{sources: 1}
	if sources > 0 {
		t.sources = sources
	}
	for i := 0; i < batchRecords; i++ {
		c := int32(i % 100)
		if c < 5 {
			t.matched++
		}
		rec := record.New(floodEvent,
			record.TSVal(0),
			record.I32Val(0), record.I32Val(0), record.I32Val(c),
			record.I32Val(int32(r.next())), record.I32Val(int32(r.next())), record.I32Val(int32(r.next())))
		if sources > 0 {
			t.payload = binary.BigEndian.AppendUint32(t.payload, uint32(firstNode)+uint32(i%sources))
		}
		recStart := len(t.payload)
		var err error
		if t.payload, err = rec.Append(t.payload); err != nil {
			return nil, err
		}
		_, off, ok := record.PeekTS(t.payload[recStart:])
		if !ok {
			return nil, errors.New("template record carries no timestamp")
		}
		t.tsOff = append(t.tsOff, recStart+off)
		t.origin = append(t.origin, i%t.sources)
	}
	return t, nil
}

// clone gives a sender its own patchable copy of the payload.
func (t *template) clone() []byte { return append([]byte(nil), t.payload...) }

// disorder is the seeded lateness model of the sort_disorder flood. A
// record is stamped "now − delay", where a source's delay is a cyclic
// table of base + exponential jitter, plus a stall: every stallEvery
// records the source falls stallMicros behind and then catches up by
// stallDrain µs per record. Senders clamp each source's stamps to be
// non-decreasing, as an in-order transport would deliver them.
type disorder struct {
	jitter     [][]int32 // per source: base + jitter, µs
	stallEvery []uint32  // per source: records between stall onsets
}

const (
	baseMax     = 2000 // µs: sources' base delays spread this far apart
	jitterMean  = 1000 // µs
	stallMicros = 5000
	stallDrain  = 50
)

// newDisorder draws each source's base delay, its jitter table, and a
// stall period of 5–9 thousand records (a few stalls a second per source
// at the rates the flood reaches, so some source is always catching up
// and the time frame has something to adapt to).
func newDisorder(r *rng, sources int) *disorder {
	d := &disorder{jitter: make([][]int32, sources), stallEvery: make([]uint32, sources)}
	for s := range d.jitter {
		base := r.float() * baseMax
		row := make([]int32, delaySlots)
		for k := range row {
			row[k] = int32(base + r.exp(jitterMean))
		}
		d.jitter[s] = row
		d.stallEvery[s] = 5000 + uint32(r.next()%4000)
	}
	return d
}

// noticeTable is the seeded argument table of the paced notice workload:
// fields c..f of slot i of every block.
type noticeTable [noticeBlock][4]int32

func newNoticeTable(r *rng) *noticeTable {
	var t noticeTable
	for i := range t {
		for j := range t[i] {
			t[i][j] = int32(r.next())
		}
	}
	return &t
}

// inputHash is the SHA-256 of everything generated for one workload.
type inputHash struct{ h hash.Hash }

func newInputHash() inputHash { return inputHash{sha256.New()} }

func (h inputHash) bytes(p []byte) { h.h.Write(p) }

func (h inputHash) int32s(xs []int32) {
	for _, x := range xs {
		h.h.Write(binary.BigEndian.AppendUint32(nil, uint32(x)))
	}
}

func (h inputHash) sum() (out [32]byte) {
	h.h.Sum(out[:0])
	return out
}
