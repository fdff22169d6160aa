package record

import "brisk/internal/xdr"

// LossEvent is the reserved event class of loss-marker records: synthetic
// records injected into the merged stream wherever the pipeline had to
// drop data it had already accepted. The marker makes the gap explicit to
// every downstream consumer — PICL traces, the causal matcher, memory
// buffers and visual objects all see where and how much was lost instead
// of a silent hole in the sequence.
//
// A loss marker carries exactly three fields, in order:
//
//	TS      — the last (latest) timestamp covered by the loss, so the
//	          marker sorts at the end of the gap it describes
//	Uint64  — the number of records dropped
//	Int64   — the first (earliest) timestamp covered, 0 if unknown
//
// Node attribution uses the normal Record.Node mechanism: the marker's
// Node names the source whose records were lost.
const LossEvent uint8 = 0xFF

// NewLossMarker builds a loss-marker record describing count dropped
// records covering [firstTS, lastTS]. The caller sets Node to attribute
// the loss to a source.
func NewLossMarker(count uint64, firstTS, lastTS int64) Record {
	return New(LossEvent, TSVal(lastTS), U64Val(count), I64Val(firstTS))
}

// IsLossMarker reports whether r is a loss-marker record (event class
// LossEvent with the marker field shape), read off whichever
// representation r has.
func IsLossMarker(r *Record) bool {
	if r.Event != LossEvent {
		return false
	}
	if r.enc != nil {
		// Canonical header: three fields, nibbles TS|Uint64, Int64|0.
		return r.enc[3] == 3<<4 && r.enc[4] == byte(TS)<<4|byte(Uint64) && r.enc[5] == byte(Int64)<<4
	}
	return len(r.Fields) == 3 &&
		r.Fields[0].Type == TS && r.Fields[1].Type == Uint64 &&
		r.Fields[2].Type == Int64
}

// LossInfo extracts the dropped-record count and covered timestamp range
// from a loss marker. ok is false if r is not a loss marker.
func LossInfo(r *Record) (count uint64, firstTS, lastTS int64, ok bool) {
	if !IsLossMarker(r) {
		return 0, 0, 0, false
	}
	if r.enc != nil {
		// The three fields are 8 bytes each, in order, after the header.
		return xdr.Uint64At(r.enc[HeaderSize+8:]), int64(xdr.Uint64At(r.enc[HeaderSize+16:])), r.TS, true
	}
	return r.Fields[1].Bits, int64(r.Fields[2].Bits), int64(r.Fields[0].Bits), true
}
