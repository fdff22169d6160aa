package record

import (
	"reflect"
	"testing"

	"brisk/internal/xdr"
)

// FuzzDecode checks that arbitrary bytes never panic the decoder and that
// anything it accepts re-encodes to the identical byte string (canonical
// round trip).
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid records of several shapes plus mutations.
	seed := []Record{
		New(1, TSVal(123), I32Val(1), I32Val(2), I32Val(3), I32Val(4), I32Val(5), I32Val(6)),
		New(2, TSVal(-5), StrVal("hello"), F64Val(2.5)),
		New(3),
		New(4, ReasonVal(9), ConseqVal(10), BoolVal(true)),
	}
	for i := range seed {
		buf, err := seed[i].Append(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		var r Record
		n, err := DecodeInto(&r, data)
		if err != nil {
			return
		}
		re, err := r.Append(nil)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v (%+v)", err, r)
		}
		if !reflect.DeepEqual(re, data[:n]) {
			t.Fatalf("non-canonical decode:\n in  % x\n out % x", data[:n], re)
		}
		// PeekTS must agree with the decoded cache.
		ts, _, ok := PeekTS(data[:n])
		if ok != r.HasTS || (ok && ts != r.TS) {
			t.Fatalf("PeekTS (%d,%v) disagrees with decode (%d,%v)", ts, ok, r.TS, r.HasTS)
		}
	})
}

// refDecodeInto is the decoder the one-pass parser replaced, kept as the
// independent reference FuzzScanVsDecode compares against: it walks the
// fields through an xdr.Decoder and rebuilds the header views from the
// decoded values.
func refDecodeInto(r *Record, buf []byte) (size, tsOff int, err error) {
	if len(buf) < HeaderSize {
		return 0, 0, ErrTruncated
	}
	size = int(buf[0])<<8 | int(buf[1])
	if size < HeaderSize {
		return 0, 0, ErrBadHeader
	}
	if size > len(buf) {
		return 0, 0, ErrTruncated
	}
	nf := int(buf[3] >> 4)
	if nf > MaxFields {
		return 0, 0, ErrTooManyFields
	}
	if buf[3]&0x0F != 0 {
		return 0, 0, ErrBadHeader
	}
	*r = Record{Event: buf[2], Fields: make([]Value, nf)}
	var d xdr.Decoder
	d.Reset(buf[HeaderSize:size])
	d.MaxOpaque = MaxStringLen
	for i := 0; i < nf; i++ {
		t := nibble(buf, i)
		if !t.Valid() {
			return 0, 0, ErrBadType
		}
		if t == TS && tsOff == 0 {
			tsOff = HeaderSize + d.Offset()
		}
		v, err := refDecodeField(&d, t)
		if err != nil {
			return 0, 0, err
		}
		r.Fields[i] = v
	}
	for i := nf; i < MaxFields; i++ {
		if nibble(buf, i) != 0 {
			return 0, 0, ErrBadHeader
		}
	}
	if d.Remaining() != 0 {
		return 0, 0, ErrBadHeader
	}
	r.reindex()
	return size, tsOff, nil
}

func refDecodeField(d *xdr.Decoder, t Type) (Value, error) {
	switch t {
	case Int8:
		v, err := d.Int32()
		if err == nil && v != int32(int8(v)) {
			return Value{}, ErrBadHeader
		}
		return Value{Type: t, Bits: uint64(int64(int8(v)))}, err
	case Int16:
		v, err := d.Int32()
		if err == nil && v != int32(int16(v)) {
			return Value{}, ErrBadHeader
		}
		return Value{Type: t, Bits: uint64(int64(int16(v)))}, err
	case Int32:
		v, err := d.Int32()
		return Value{Type: t, Bits: uint64(int64(v))}, err
	case Uint8:
		v, err := d.Uint32()
		if err == nil && v > 0xFF {
			return Value{}, ErrBadHeader
		}
		return Value{Type: t, Bits: uint64(uint8(v))}, err
	case Uint16:
		v, err := d.Uint32()
		if err == nil && v > 0xFFFF {
			return Value{}, ErrBadHeader
		}
		return Value{Type: t, Bits: uint64(uint16(v))}, err
	case Uint32, Float32:
		v, err := d.Uint32()
		return Value{Type: t, Bits: uint64(v)}, err
	case Bool:
		v, err := d.Uint32()
		if err == nil && v > 1 {
			return Value{}, ErrBadHeader
		}
		return Value{Type: t, Bits: uint64(v)}, err
	case Int64, Uint64, Float64, TS, Reason, Conseq:
		v, err := d.Uint64()
		return Value{Type: t, Bits: v}, err
	case String:
		s, err := d.String()
		return Value{Type: t, Str: s}, err
	default:
		return Value{}, ErrBadType
	}
}

func sameFields(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzScanVsDecode holds the one-pass parser, in both its modes, to the
// reference decoder on arbitrary bytes: Scan and DecodeInto accept exactly
// what it accepts; all three agree on the consumed length, the header
// (event, TS, HasTS, Reason, Conseq) and the TS offset; DecodeInto builds
// the reference's field values; and an accepted record's body re-encodes
// to the bytes it was scanned from, also after a timestamp patch.
func FuzzScanVsDecode(f *testing.F) {
	for _, r := range []Record{
		New(1, TSVal(123), I32Val(1), I32Val(2), I32Val(3), I32Val(4), I32Val(5), I32Val(6)),
		New(2, StrVal("hello"), TSVal(-5), F64Val(2.5), TSVal(7)),
		New(3),
		New(4, ReasonVal(9), ConseqVal(10), BoolVal(true), I8Val(-3), U16Val(700)),
		New(5, I32Val(1), I32Val(2), I32Val(3), I32Val(4), I32Val(5), I32Val(6), I32Val(7), I32Val(8)),
		NewLossMarker(4, 10, 20),
	} {
		buf, err := r.Append(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(append(buf, buf...))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 12, 1, 0x10, 0xB0, 0, 0, 0, 0, 0, 0, 9}) // string length past the record

	f.Fuzz(func(t *testing.T, data []byte) {
		var ref, scanned, decoded Record
		wantN, wantOff, refErr := refDecodeInto(&ref, data)
		n, scanErr := Scan(&scanned, data)
		dn, decErr := DecodeInto(&decoded, data)
		if (refErr == nil) != (scanErr == nil) || (refErr == nil) != (decErr == nil) {
			t.Fatalf("accept sets differ: reference %v, Scan %v, DecodeInto %v", refErr, scanErr, decErr)
		}
		if refErr != nil {
			return
		}
		if n != wantN || dn != wantN {
			t.Fatalf("consumed: reference %d, Scan %d, DecodeInto %d", wantN, n, dn)
		}
		for _, got := range []*Record{&scanned, &decoded} {
			if got.Event != ref.Event || got.TS != ref.TS || got.HasTS != ref.HasTS ||
				got.Reason != ref.Reason || got.Conseq != ref.Conseq {
				t.Fatalf("header differs:\n ref %+v\n got %+v", ref, *got)
			}
		}
		if int(scanned.tsOff) != wantOff {
			t.Fatalf("TS offset: reference %d, Scan %d", wantOff, scanned.tsOff)
		}
		if len(scanned.Fields) != 0 || !sameFields(decoded.Fields, ref.Fields) {
			t.Fatalf("fields: Scan built %d, DecodeInto %+v, reference %+v", len(scanned.Fields), decoded.Fields, ref.Fields)
		}
		if decoded.enc != nil {
			t.Fatal("DecodeInto left the record aliasing its input")
		}
		// The borrowed body is the input, and Append gives it back — as it
		// is, and with the header's timestamp patched in where the
		// reference would encode it.
		if re, err := scanned.Append(nil); err != nil || !reflect.DeepEqual(re, data[:n]) {
			t.Fatalf("body does not re-encode (%v):\n in  % x\n out % x", err, data[:n], re)
		}
		if fields, err := scanned.DecodeFields(new([MaxFields]Value)); err != nil || !sameFields(fields, ref.Fields) {
			t.Fatalf("DecodeFields (%v): %+v, reference %+v", err, fields, ref.Fields)
		}
		if ref.HasTS {
			scanned.SetTS(ref.TS + 12345)
			ref.SetTS(ref.TS + 12345)
			want, _ := ref.Append(nil)
			if re, _ := scanned.Append(nil); !reflect.DeepEqual(re, want) {
				t.Fatalf("patched body:\n got  % x\n want % x", re, want)
			}
		}
	})
}
