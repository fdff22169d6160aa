package record

import (
	"errors"
	"sync"
)

// DecodeAppend parses every record concatenated in payload, appends each
// onto dst and returns the extended slice. Element storage is reused:
// when dst has spare capacity, the element occupying the next slot keeps
// its Fields array and the decoder fills it in place, so a batch slice
// recycled through GetBatch/PutBatch decodes with zero steady-state
// allocations.
//
// Decoded records borrow that recycled storage, and payload itself as
// their encoded body: they are valid until the batch is returned with
// PutBatch or payload is reused, whichever is first. Consumers keeping a
// record longer must Detach it. On a malformed payload the successfully
// decoded prefix is returned together with the error.
func DecodeAppend(dst []Record, payload []byte) ([]Record, error) {
	return appendEach(dst, payload, false, decodeBorrow)
}

// ErrShortPrefix reports a node-prefixed payload that ends inside a
// 4-byte origin prefix.
var ErrShortPrefix = errors.New("record: truncated node prefix")

// DecodeNodeAppend parses a payload of node-prefixed entries — each
// record preceded by its 4-byte big-endian origin node id, the framing
// shared by the shm memory buffer and the wire RelayBatch — appending
// each onto dst with Node set from its prefix. Storage reuse, borrowing
// and error-prefix semantics match DecodeAppend.
func DecodeNodeAppend(dst []Record, payload []byte) ([]Record, error) {
	return appendEach(dst, payload, true, decodeBorrow)
}

// ScanAppend is DecodeAppend without the decode: every record is
// validated by Scan and appended as header plus borrowed body, Fields
// left empty — the manager's batch-ingest hot path.
func ScanAppend(dst []Record, payload []byte) ([]Record, error) {
	return appendEach(dst, payload, false, Scan)
}

// ScanNodeAppend is ScanAppend for node-prefixed entries (see
// DecodeNodeAppend).
func ScanNodeAppend(dst []Record, payload []byte) ([]Record, error) {
	return appendEach(dst, payload, true, Scan)
}

// decodeBorrow is the full decode that also attaches buf as the body.
func decodeBorrow(r *Record, buf []byte) (int, error) {
	n, tsOff, err := parse(r, buf, true)
	if err == nil {
		r.enc, r.tsOff = buf[:n], uint16(tsOff)
	}
	return n, err
}

// appendEach is the loop the four batch parsers share: one parse per
// record (after its node prefix, when prefixed) into the next slot of dst.
func appendEach(dst []Record, payload []byte, prefixed bool, parse func(*Record, []byte) (int, error)) ([]Record, error) {
	for len(payload) > 0 {
		var node int32
		if prefixed {
			if len(payload) < 4 {
				return dst, ErrShortPrefix
			}
			node = int32(uint32(payload[0])<<24 | uint32(payload[1])<<16 |
				uint32(payload[2])<<8 | uint32(payload[3]))
			payload = payload[4:]
		}
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
		} else {
			dst = append(dst, Record{})
		}
		n, err := parse(&dst[len(dst)-1], payload)
		if err != nil {
			return dst[:len(dst)-1], err
		}
		dst[len(dst)-1].Node = node
		payload = payload[n:]
	}
	return dst, nil
}

// batchPool recycles record-batch slices between the manager's parallel
// decode workers and the goroutine that pushes each batch.
var batchPool = sync.Pool{
	New: func() any {
		b := make([]Record, 0, 256)
		return &b
	},
}

// GetBatch returns an empty record batch from the pool. The pointer (not
// the slice) travels between goroutines so the capacity grown by
// DecodeAppend survives recycling.
func GetBatch() *[]Record {
	return batchPool.Get().(*[]Record)
}

// PutBatch recycles a batch obtained from GetBatch. Only the length is
// reset: the elements keep their Fields arrays so the next DecodeAppend
// into the batch reuses them. The caller must no longer touch any record
// borrowed from the batch.
func PutBatch(b *[]Record) {
	*b = (*b)[:0]
	batchPool.Put(b)
}
