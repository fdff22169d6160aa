// Package record defines the BRISK instrumentation-data record: a
// dynamically-typed event notification of up to eight fields, encoded in
// XDR with a compressed meta-information header.
//
// The paper's internal sensors write records of heterogeneous fields with
// "over ten basic types ... ranging from bytes, to floats, to
// null-terminated strings", plus three system types used for coordination
// between BRISK, the application and the analysis tools:
//
//   - TS holds BRISK's internal timestamp, an eight-byte count of
//     microseconds of UTC;
//   - Reason and Conseq carry user-supplied identifiers marking
//     causally-related events for the manager's tachyon repair.
//
// On the wire a record is a fixed 8-byte meta header followed by the XDR
// encoding of each field:
//
//	offset  size  contents
//	0       2     record length in bytes, including this header (big endian)
//	2       1     event class (application-chosen small identifier)
//	3       1     high nibble: field count (0..8); low nibble: flags (0)
//	4       4     field type codes, one nibble per field, field 0 in the
//	              high nibble of byte 4; unused nibbles are zero
//
// The header is the "compressed meta-information" of the paper's transfer
// protocol: with it, the evaluation's record of six int fields plus an
// embedded timestamp occupies exactly 40 bytes (8 header + 8 TS + 6*4).
package record

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"brisk/internal/xdr"
)

// MaxFields is the largest number of fields in one record. The paper keeps
// the sensor header file at eight dynamically-typed fields, observing that
// more "adds excessive code to a compiled application" and therefore
// intrusion; the same bound keeps this implementation's meta header at a
// single 4-byte nibble array.
const MaxFields = 8

// HeaderSize is the size of the record meta header in bytes.
const HeaderSize = 8

// MaxStringLen bounds an XString field so a corrupt record cannot demand a
// huge allocation in the manager.
const MaxStringLen = 4096

// Type identifies the wire type of one record field. Type codes fit in a
// nibble so that eight of them pack into the 4-byte meta header.
type Type uint8

// Field type codes. Invalid (0) never appears in a valid record.
const (
	Invalid Type = iota
	Int8
	Uint8
	Int16
	Uint16
	Int32
	Uint32
	Int64
	Uint64
	Float32
	Float64
	String
	Bool
	// TS embeds the BRISK internal timestamp: microseconds of UTC as a
	// signed 64-bit integer. The external sensor adds its clock-correction
	// value to this field before shipping the record to the manager.
	TS
	// Reason marks this record as a cause: the manager retains its
	// identifier so matching Conseq records are never emitted first.
	Reason
	// Conseq marks this record as an effect of the Reason record carrying
	// the same identifier.
	Conseq
)

var typeNames = [...]string{
	Invalid: "invalid",
	Int8:    "i8", Uint8: "u8", Int16: "i16", Uint16: "u16",
	Int32: "i32", Uint32: "u32", Int64: "i64", Uint64: "u64",
	Float32: "f32", Float64: "f64", String: "str", Bool: "bool",
	TS: "X_TS", Reason: "X_REASON", Conseq: "X_CONSEQ",
}

// String returns the short mnemonic for the type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return "type(" + strconv.Itoa(int(t)) + ")"
}

// Valid reports whether t is a defined field type.
func (t Type) Valid() bool { return t > Invalid && t <= Conseq }

// WireSize returns the encoded size in bytes of a field of this type, or
// -1 for variable-size types (String).
func (t Type) WireSize() int {
	switch t {
	case Int8, Uint8, Int16, Uint16, Int32, Uint32, Float32, Bool:
		return 4
	case Int64, Uint64, Float64, TS, Reason, Conseq:
		return 8
	case String:
		return -1
	default:
		return -1
	}
}

// Errors reported by the decoder.
var (
	ErrTooManyFields = errors.New("record: more than MaxFields fields")
	ErrBadHeader     = errors.New("record: malformed meta header")
	ErrBadType       = errors.New("record: invalid field type code")
	ErrTruncated     = errors.New("record: truncated")
)

// Value is one dynamically-typed field value. Construct values with the
// typed helpers (IntVal, StrVal, ...) rather than filling the struct
// directly; the helpers keep the numeric payload normalized.
type Value struct {
	Type Type
	// Bits holds the numeric payload: sign-extended integers, float bit
	// patterns, bool as 0/1, and the identifiers of Reason/Conseq fields.
	Bits uint64
	// Str holds the payload of String fields.
	Str string
}

// I8Val returns an Int8 field value.
func I8Val(v int8) Value { return Value{Type: Int8, Bits: uint64(int64(v))} }

// U8Val returns a Uint8 field value.
func U8Val(v uint8) Value { return Value{Type: Uint8, Bits: uint64(v)} }

// I16Val returns an Int16 field value.
func I16Val(v int16) Value { return Value{Type: Int16, Bits: uint64(int64(v))} }

// U16Val returns a Uint16 field value.
func U16Val(v uint16) Value { return Value{Type: Uint16, Bits: uint64(v)} }

// I32Val returns an Int32 field value.
func I32Val(v int32) Value { return Value{Type: Int32, Bits: uint64(int64(v))} }

// U32Val returns a Uint32 field value.
func U32Val(v uint32) Value { return Value{Type: Uint32, Bits: uint64(v)} }

// I64Val returns an Int64 field value.
func I64Val(v int64) Value { return Value{Type: Int64, Bits: uint64(v)} }

// U64Val returns a Uint64 field value.
func U64Val(v uint64) Value { return Value{Type: Uint64, Bits: v} }

// F32Val returns a Float32 field value.
func F32Val(v float32) Value { return Value{Type: Float32, Bits: uint64(math.Float32bits(v))} }

// F64Val returns a Float64 field value.
func F64Val(v float64) Value { return Value{Type: Float64, Bits: math.Float64bits(v)} }

// StrVal returns a String field value.
func StrVal(s string) Value { return Value{Type: String, Str: s} }

// BoolVal returns a Bool field value.
func BoolVal(v bool) Value {
	var b uint64
	if v {
		b = 1
	}
	return Value{Type: Bool, Bits: b}
}

// TSVal returns a TS system field carrying the given microsecond UTC time.
func TSVal(usec int64) Value { return Value{Type: TS, Bits: uint64(usec)} }

// ReasonVal returns a Reason system field with the given causal identifier.
func ReasonVal(id uint64) Value { return Value{Type: Reason, Bits: id} }

// ConseqVal returns a Conseq system field with the given causal identifier.
func ConseqVal(id uint64) Value { return Value{Type: Conseq, Bits: id} }

// Int returns the field interpreted as a signed integer.
func (v Value) Int() int64 { return int64(v.Bits) }

// Uint returns the field interpreted as an unsigned integer.
func (v Value) Uint() uint64 { return v.Bits }

// Float returns the field interpreted as a float.
func (v Value) Float() float64 {
	switch v.Type {
	case Float32:
		return float64(math.Float32frombits(uint32(v.Bits)))
	case Float64:
		return math.Float64frombits(v.Bits)
	default:
		return float64(int64(v.Bits))
	}
}

// Bool returns the field interpreted as a boolean.
func (v Value) Bool() bool { return v.Bits != 0 }

// WireSize returns the encoded size of this value in bytes.
func (v Value) WireSize() int {
	if v.Type == String {
		return xdr.OpaqueLen(len(v.Str))
	}
	return v.Type.WireSize()
}

// GoString formats the value as "type:payload" for diagnostics.
func (v Value) GoString() string {
	switch v.Type {
	case Int8, Int16, Int32, Int64, TS:
		return fmt.Sprintf("%v:%d", v.Type, int64(v.Bits))
	case Uint8, Uint16, Uint32, Uint64, Reason, Conseq:
		return fmt.Sprintf("%v:%d", v.Type, v.Bits)
	case Float32, Float64:
		return fmt.Sprintf("%v:%g", v.Type, v.Float())
	case String:
		return fmt.Sprintf("%v:%q", v.Type, v.Str)
	case Bool:
		return fmt.Sprintf("%v:%t", v.Type, v.Bool())
	default:
		return v.Type.String()
	}
}

// Record is one instrumentation-data record. Node identifies the
// originating node; it travels in the batch header rather than the record
// itself and is filled in by the manager on receipt.
//
// A record has two representations. One built from values (New, Decode,
// DecodeInto) is its Fields. One the manager moves (Scan, DecodeAppend,
// FromEncoded) also — or only — carries an encoded body: the record's
// canonical bytes, borrowed from whoever produced them. The header
// fields (Node, Event, TS, HasTS, Seq, Reason, Conseq) are authoritative
// in both; when a body is present it is what Append emits, with the
// header's TS patched over the body's, and Fields is a decoded view that
// stays empty until someone asks for it (DecodeFields, Materialize).
type Record struct {
	// Node is the originating node identifier (assigned at EXS HELLO).
	Node int32
	// Event is the application-chosen event class.
	Event uint8
	// Fields holds every field in positional order, including the system
	// fields, so encoding round-trips exactly. Empty on an encoded-body
	// record until it is materialised.
	Fields []Value

	// TS caches the value of the first TS field, in microseconds of UTC,
	// or 0 if the record carries none. HasTS distinguishes a genuine zero.
	// The sorter hands a record without a TS field its arrival time here
	// (HasTS stays false): the time it was sorted by.
	TS    int64
	HasTS bool
	// tsOff is the offset of the first TS field inside enc; 0 when the
	// body has none (no field starts before HeaderSize).
	tsOff uint16
	// Reason and Conseq cache the identifiers of the first Reason/Conseq
	// fields; 0 means absent (identifier 0 is reserved).
	Reason uint64
	Conseq uint64

	// Seq is a manager-side per-source sequence number used by the
	// on-line sorter to keep per-source FIFO order among equal timestamps.
	Seq uint64

	// enc is the borrowed encoded body (meta header plus XDR fields), nil
	// on a record that exists only as Fields. It is valid for as long as
	// its producer documents: a decode batch until its payload is reused,
	// a sorter emission until the next Push or Extract.
	enc []byte
}

// reindex refreshes the cached system-field views from Fields.
func (r *Record) reindex() {
	r.TS, r.HasTS, r.Reason, r.Conseq = 0, false, 0, 0
	for _, f := range r.Fields {
		switch f.Type {
		case TS:
			if !r.HasTS {
				r.TS = int64(f.Bits)
				r.HasTS = true
			}
		case Reason:
			if r.Reason == 0 {
				r.Reason = f.Bits
			}
		case Conseq:
			if r.Conseq == 0 {
				r.Conseq = f.Bits
			}
		}
	}
}

// New assembles a record from an event class and field values. It is the
// slow-path constructor used by tests, tools and the manager; sensors
// encode directly to bytes instead.
func New(event uint8, fields ...Value) Record {
	r := Record{Event: event, Fields: fields}
	r.reindex()
	return r
}

// SetTS gives the record the microsecond timestamp usec. The manager uses
// this to repair tachyons and to stamp records that arrive without a
// timestamp; the external sensor uses it to apply the clock-correction
// value. On an encoded-body record only the header changes — Append
// patches the body's TS field from it. A record with no TS field gets one
// prepended so downstream consumers see it; a record that is already
// MaxFields wide has no room for one and keeps the time in its header
// alone (HasTS stays false, its encoding is unchanged).
func (r *Record) SetTS(usec int64) {
	r.TS = usec
	for i := range r.Fields {
		if r.Fields[i].Type == TS {
			r.Fields[i].Bits = uint64(usec)
			r.HasTS = true
			return
		}
	}
	if r.tsOff != 0 {
		r.HasTS = true
		return
	}
	if r.numFields() >= MaxFields {
		return
	}
	if r.Materialize() != nil {
		return // cannot happen on a body Scan or Decode vouched for
	}
	r.enc = nil
	r.Fields = append([]Value{TSVal(usec)}, r.Fields...)
	r.HasTS = true
}

// numFields returns the number of fields the record carries, whichever
// representation holds them.
func (r *Record) numFields() int {
	if r.enc != nil {
		return int(r.enc[3] >> 4)
	}
	return len(r.Fields)
}

// FromEncoded returns a record over body, one canonical encoded record
// that Scan, a decoder or AppendBody already vouched for (nothing is
// validated here). tsOff is the body's TS-field offset as those reported
// it (0: none) and ts the timestamp the header takes. The record borrows
// body; Node and Seq are the caller's to fill in.
func FromEncoded(body []byte, tsOff int, ts int64) (r Record) {
	r.Event, r.TS, r.HasTS, r.tsOff, r.enc = body[2], ts, tsOff != 0, uint16(tsOff), body
	// Reason (0xE) and Conseq (0xF) are the two type codes with their top
	// three bits set: one AND chain over the packed nibbles tells whether
	// the body has to be parsed again for causal identifiers at all.
	nib := uint32(body[4])<<24 | uint32(body[5])<<16 | uint32(body[6])<<8 | uint32(body[7])
	if nib&(nib<<1)&(nib<<2)&0x88888888 != 0 {
		var hdr Record
		if _, _, err := parse(&hdr, body, false); err == nil {
			r.Reason, r.Conseq = hdr.Reason, hdr.Conseq
		}
	}
	return r
}

// nibble returns the type code of field i from an encoded header.
func nibble(buf []byte, i int) Type {
	code := buf[4+i/2]
	if i%2 == 0 {
		return Type(code >> 4)
	}
	return Type(code & 0x0F)
}

// materialized reports whether Fields holds the record's fields already.
func (r *Record) materialized() bool {
	return r.enc == nil || len(r.Fields) > 0 || r.enc[3]>>4 == 0
}

// DecodeFields returns the record's fields: Fields itself when it is
// filled in, otherwise the encoded body decoded into buf, which no record
// outgrows. The header's TS is written over the decoded TS field, so the
// view agrees with what Append would emit. Nothing is allocated unless a
// field is a string.
func (r *Record) DecodeFields(buf *[MaxFields]Value) ([]Value, error) {
	if r.materialized() {
		return r.Fields, nil
	}
	tmp := Record{Fields: buf[:0]}
	if _, _, err := parse(&tmp, r.enc, true); err != nil {
		return nil, err
	}
	if r.tsOff != 0 {
		for i := range tmp.Fields {
			if tmp.Fields[i].Type == TS {
				tmp.Fields[i].Bits = uint64(r.TS)
				break
			}
		}
	}
	return tmp.Fields, nil
}

// Materialize fills Fields from the encoded body if it has not been
// decoded yet, into an array of the record's own.
func (r *Record) Materialize() error {
	if r.materialized() {
		return nil
	}
	var buf [MaxFields]Value
	fields, err := r.DecodeFields(&buf)
	if err != nil {
		return err
	}
	r.Fields = append(r.Fields[:0], fields...)
	return nil
}

// Detach gives the record private storage. Decoded and sorter-emitted
// records borrow storage that their producer reuses (a pooled batch slice
// and its wire payload, a sorter slab); any consumer that retains a
// record beyond the borrowing window documented by its producer must
// Detach it first. A materialised record keeps a copy of its Fields and
// lets the body go; one that is only bytes keeps a copy of the bytes.
func (r *Record) Detach() {
	if len(r.Fields) > 0 {
		r.Fields = append([]Value(nil), r.Fields...)
		r.enc, r.tsOff = nil, 0
		return
	}
	r.Fields = nil
	if r.enc != nil {
		r.enc = append([]byte(nil), r.enc...)
	}
}

// WireSize returns the encoded size of the record in bytes.
func (r *Record) WireSize() int {
	if r.enc != nil {
		return len(r.enc)
	}
	n := HeaderSize
	for _, f := range r.Fields {
		n += f.WireSize()
	}
	return n
}

// String formats the record compactly for logs and trace dumps.
func (r *Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ev=%d node=%d", r.Event, r.Node)
	if r.HasTS {
		fmt.Fprintf(&b, " ts=%d", r.TS)
	}
	var buf [MaxFields]Value
	fields, err := r.DecodeFields(&buf)
	if err != nil {
		fmt.Fprintf(&b, " (%v)", err)
	}
	for _, f := range fields {
		if f.Type == TS {
			continue
		}
		b.WriteByte(' ')
		b.WriteString(f.GoString())
	}
	return b.String()
}

// Append encodes the record (meta header plus XDR fields) onto dst and
// returns the extended slice. It never allocates beyond growing dst. For
// an encoded-body record that is a copy of the body plus one patch: the
// header's TS over the body's TS field.
func (r *Record) Append(dst []byte) ([]byte, error) {
	dst, _, err := r.AppendBody(dst)
	return dst, err
}

// AppendBody is Append for a caller that keeps the encoding as a body of
// its own: it also reports the offset of the first TS field from the
// record's start (0: the record has none), which FromEncoded takes back.
func (r *Record) AppendBody(dst []byte) ([]byte, int, error) {
	start := len(dst)
	if r.enc != nil {
		dst = append(dst, r.enc...)
		if r.tsOff != 0 {
			xdr.PutUint64(dst[start+int(r.tsOff):], uint64(r.TS))
		}
		return dst, int(r.tsOff), nil
	}
	if len(r.Fields) > MaxFields {
		return dst, 0, ErrTooManyFields
	}
	size := r.WireSize()
	if size > math.MaxUint16 {
		return dst, 0, fmt.Errorf("record: encoded size %d exceeds 64 KiB", size)
	}
	dst = append(dst, 0, 0, r.Event, byte(len(r.Fields))<<4, 0, 0, 0, 0)
	dst[start] = byte(size >> 8)
	dst[start+1] = byte(size)
	tsOff := 0
	for i, f := range r.Fields {
		if !f.Type.Valid() {
			return dst[:start], 0, fmt.Errorf("%w: field %d has type %v", ErrBadType, i, f.Type)
		}
		nib := start + 4 + i/2
		if i%2 == 0 {
			dst[nib] |= byte(f.Type) << 4
		} else {
			dst[nib] |= byte(f.Type)
		}
		if f.Type == TS && tsOff == 0 {
			tsOff = len(dst) - start
		}
		dst = appendFieldPayload(dst, f)
	}
	return dst, tsOff, nil
}

func appendFieldPayload(dst []byte, f Value) []byte {
	switch f.Type {
	case Int8, Int16, Int32:
		return xdr.AppendInt32(dst, int32(int64(f.Bits)))
	case Uint8, Uint16, Uint32, Bool:
		return xdr.AppendUint32(dst, uint32(f.Bits))
	case Float32:
		return xdr.AppendUint32(dst, uint32(f.Bits))
	case Int64, Uint64, Float64, TS, Reason, Conseq:
		return xdr.AppendUint64(dst, f.Bits)
	case String:
		return xdr.AppendString(dst, f.Str)
	default:
		return dst
	}
}

// Decode parses one record from the front of buf, returning the record and
// the number of bytes consumed. The record's Fields slice is freshly
// allocated; String payloads are copied, so the record does not alias buf.
func Decode(buf []byte) (Record, int, error) {
	var r Record
	n, err := DecodeInto(&r, buf)
	return r, n, err
}

// DecodeInto parses one record from the front of buf into r, reusing r's
// Fields slice when capacity allows. It returns the number of bytes
// consumed. Like Decode it leaves r with no encoded body, so r does not
// alias buf.
func DecodeInto(r *Record, buf []byte) (int, error) {
	n, _, err := parse(r, buf, true)
	return n, err
}

// Scan validates one record at the front of buf exactly as strictly as
// DecodeInto — they are one parser, and FuzzScanVsDecode holds it to the
// decoder it replaced — but extracts only the header: event class, the
// first TS, Reason and Conseq values, and where the TS field sits. Field
// values are checked in place and never built. r borrows buf[:n] as its
// encoded body and keeps Fields empty (capacity retained). This is the
// manager's ingest path: a record is bytes from the wire to the sinks.
func Scan(r *Record, buf []byte) (int, error) {
	n, tsOff, err := parse(r, buf, false)
	if err == nil {
		r.enc, r.tsOff = buf[:n], uint16(tsOff)
	}
	return n, err
}

// parse is the one record parser. It checks the record at the front of
// buf — framing, a canonical meta header, every field's payload in range
// and in bounds, nothing left over — and fills r's header views; with
// full set it also builds r.Fields (String payloads are copied), without
// it Fields is left empty. It returns the record's size and the offset
// of its first TS field (0: none); r gets no encoded body here.
func parse(r *Record, buf []byte, full bool) (size, tsOff int, err error) {
	if len(buf) < HeaderSize {
		return 0, 0, fmt.Errorf("%w: %d bytes, need %d for header", ErrTruncated, len(buf), HeaderSize)
	}
	size = int(buf[0])<<8 | int(buf[1])
	if size < HeaderSize {
		return 0, 0, fmt.Errorf("%w: declared size %d < header size", ErrBadHeader, size)
	}
	if size > len(buf) {
		return 0, 0, fmt.Errorf("%w: declared size %d > available %d", ErrTruncated, size, len(buf))
	}
	nf := int(buf[3] >> 4)
	if nf > MaxFields {
		return 0, 0, ErrTooManyFields
	}
	if buf[3]&0x0F != 0 {
		return 0, 0, fmt.Errorf("%w: reserved flags 0x%x set", ErrBadHeader, buf[3]&0x0F)
	}
	body := buf[:size]
	fields := r.Fields[:0]
	if full {
		if cap(fields) >= nf {
			fields = fields[:nf]
		} else {
			fields = make([]Value, nf)
		}
	}
	*r = Record{Event: body[2], Fields: fields}
	nibs := uint32(body[4])<<24 | uint32(body[5])<<16 | uint32(body[6])<<8 | uint32(body[7])
	off := HeaderSize
	for i := 0; i < nf; i++ {
		t := Type(nibs >> 28)
		nibs <<= 4
		v := Value{Type: t}
		w := t.WireSize()
		switch {
		case w == 4:
			if off+4 > size {
				return 0, 0, fieldErr(i, t, ErrTruncated)
			}
			// The narrow types travel in a full XDR word; the word must
			// hold a value of the declared width.
			x := xdr.Uint32At(body[off:])
			ok := true
			switch t {
			case Int8:
				ok = int32(x) == int32(int8(x))
				v.Bits = uint64(int64(int8(x)))
			case Int16:
				ok = int32(x) == int32(int16(x))
				v.Bits = uint64(int64(int16(x)))
			case Int32:
				v.Bits = uint64(int64(int32(x)))
			case Uint8:
				ok = x <= 0xFF
				v.Bits = uint64(x)
			case Uint16:
				ok = x <= 0xFFFF
				v.Bits = uint64(x)
			case Bool:
				ok = x <= 1
				v.Bits = uint64(x)
			default: // Uint32, Float32
				v.Bits = uint64(x)
			}
			if !ok {
				return 0, 0, fieldErr(i, t, fmt.Errorf("%w: payload %d out of range", ErrBadHeader, x))
			}
		case w == 8:
			if off+8 > size {
				return 0, 0, fieldErr(i, t, ErrTruncated)
			}
			v.Bits = xdr.Uint64At(body[off:])
			switch {
			case t == TS && tsOff == 0:
				r.TS, r.HasTS, tsOff = int64(v.Bits), true, off
			case t == Reason && r.Reason == 0:
				r.Reason = v.Bits
			case t == Conseq && r.Conseq == 0:
				r.Conseq = v.Bits
			}
		case t == String:
			if off+4 > size {
				return 0, 0, fieldErr(i, t, ErrTruncated)
			}
			n := xdr.Uint32At(body[off:])
			if n > MaxStringLen {
				return 0, 0, fieldErr(i, t, xdr.ErrLengthRange)
			}
			w = xdr.OpaqueLen(int(n))
			if off+w > size {
				return 0, 0, fieldErr(i, t, ErrTruncated)
			}
			for _, pad := range body[off+4+int(n) : off+w] {
				if pad != 0 {
					return 0, 0, fieldErr(i, t, xdr.ErrBadPadding)
				}
			}
			if full {
				v.Str = string(body[off+4 : off+4+int(n)])
			}
		default:
			return 0, 0, fmt.Errorf("%w: field %d code %d", ErrBadType, i, t)
		}
		if full {
			fields[i] = v
		}
		off += w
	}
	// Past the field count every nibble must be zero, and the fields must
	// fill the declared size exactly, so the encoding is canonical.
	if nibs != 0 {
		return 0, 0, fmt.Errorf("%w: nonzero nibble past field count", ErrBadHeader)
	}
	if off != size {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes inside record", ErrBadHeader, size-off)
	}
	return size, tsOff, nil
}

func fieldErr(i int, t Type, err error) error {
	return fmt.Errorf("record: field %d (%v): %w", i, t, err)
}

// PeekSize returns the declared wire size of the record at the front of
// buf without decoding it, so stream readers can frame records cheaply.
func PeekSize(buf []byte) (int, error) {
	if len(buf) < 2 {
		return 0, ErrTruncated
	}
	size := int(buf[0])<<8 | int(buf[1])
	if size < HeaderSize {
		return 0, ErrBadHeader
	}
	return size, nil
}

// PeekTS extracts the first TS field from an encoded record without a full
// decode. It returns hasTS=false for records with no timestamp. The
// external sensor uses this together with PatchTS to apply its clock
// correction without re-encoding whole batches.
func PeekTS(buf []byte) (ts int64, off int, hasTS bool) {
	if len(buf) < HeaderSize {
		return 0, 0, false
	}
	size := int(buf[0])<<8 | int(buf[1])
	if size > len(buf) {
		return 0, 0, false
	}
	nf := int(buf[3] >> 4)
	if nf > MaxFields {
		return 0, 0, false
	}
	off = HeaderSize
	for i := 0; i < nf; i++ {
		t := nibble(buf, i)
		if t == TS {
			if off+8 > size {
				return 0, 0, false
			}
			return int64(xdr.Uint64At(buf[off:])), off, true
		}
		w := t.WireSize()
		if w < 0 {
			// Variable-size field: read its length word.
			if off+4 > size {
				return 0, 0, false
			}
			w = xdr.OpaqueLen(int(xdr.Uint32At(buf[off:])))
		}
		off += w
		if off > size {
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// PatchTS overwrites the TS field at the given offset (from PeekTS) inside
// an encoded record.
func PatchTS(buf []byte, off int, usec int64) {
	xdr.PutUint64(buf[off:], uint64(usec))
}
