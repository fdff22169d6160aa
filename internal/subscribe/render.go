package subscribe

import (
	"math"
	"strconv"
	"unicode/utf8"

	"brisk/internal/record"
	"brisk/internal/xdr"
)

// appendEvent renders one delivered event — an encoded record body as
// the hot window holds it, without its node prefix — as one JSON object
// plus a newline: one NDJSON line on /subscribe, one array element on
// /query. It walks the meta header's type nibbles and the XDR words once
// and allocates nothing beyond growing dst. The body must be one that
// record.Scan accepts.
//
// The shape is {"seq","node","event","ts","loss","fields"} in that
// order. "ts" (the first TS field) is absent when the record has none;
// a loss marker carries "loss" {count, shard, first_ts, last_ts} and no
// "ts" or "fields"; otherwise "fields" lists every non-TS field as
// {"type", and one of "int", "uint", "float", "str", "bool"} and is
// absent when there are none. Floats are strings ('g' formatting, so
// NaN and ±Inf survive), and strings are escaped as encoding/json
// escapes them.
func appendEvent(dst []byte, seq uint64, shard int, node int32, body []byte) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, `,"node":`...)
	dst = strconv.AppendInt(dst, int64(node), 10)
	dst = append(dst, `,"event":`...)
	dst = strconv.AppendUint(dst, uint64(body[2]), 10)
	ts, tsOff, hasTS := record.PeekTS(body)
	if body[2] == record.LossEvent {
		r := record.FromEncoded(body, tsOff, ts)
		if count, firstTS, lastTS, ok := record.LossInfo(&r); ok {
			dst = append(dst, `,"loss":{"count":`...)
			dst = strconv.AppendUint(dst, count, 10)
			dst = append(dst, `,"shard":`...)
			dst = strconv.AppendInt(dst, int64(shard), 10)
			dst = append(dst, `,"first_ts":`...)
			dst = strconv.AppendInt(dst, firstTS, 10)
			dst = append(dst, `,"last_ts":`...)
			dst = strconv.AppendInt(dst, lastTS, 10)
			return append(dst, "}}\n"...)
		}
	}
	if hasTS {
		dst = append(dst, `,"ts":`...)
		dst = strconv.AppendInt(dst, ts, 10)
	}
	nf := int(body[3] >> 4)
	nibs := uint32(body[4])<<24 | uint32(body[5])<<16 | uint32(body[6])<<8 | uint32(body[7])
	off := record.HeaderSize
	opened := false
	for i := 0; i < nf; i++ {
		t := record.Type(nibs >> 28)
		nibs <<= 4
		if t == record.TS {
			off += 8
			continue
		}
		if opened {
			dst = append(dst, ',')
		} else {
			dst = append(dst, `,"fields":[`...)
			opened = true
		}
		dst = append(dst, `{"type":"`...)
		dst = append(dst, t.String()...)
		dst = append(dst, '"')
		switch t {
		case record.Int8, record.Int16, record.Int32:
			dst = append(dst, `,"int":`...)
			dst = strconv.AppendInt(dst, int64(int32(xdr.Uint32At(body[off:]))), 10)
			off += 4
		case record.Uint8, record.Uint16, record.Uint32:
			dst = append(dst, `,"uint":`...)
			dst = strconv.AppendUint(dst, uint64(xdr.Uint32At(body[off:])), 10)
			off += 4
		case record.Int64:
			dst = append(dst, `,"int":`...)
			dst = strconv.AppendInt(dst, int64(xdr.Uint64At(body[off:])), 10)
			off += 8
		case record.Uint64, record.Reason, record.Conseq:
			dst = append(dst, `,"uint":`...)
			dst = strconv.AppendUint(dst, xdr.Uint64At(body[off:]), 10)
			off += 8
		case record.Float32:
			dst = appendFloat(dst, float64(math.Float32frombits(xdr.Uint32At(body[off:]))))
			off += 4
		case record.Float64:
			dst = appendFloat(dst, math.Float64frombits(xdr.Uint64At(body[off:])))
			off += 8
		case record.Bool:
			dst = append(dst, `,"bool":`...)
			dst = strconv.AppendBool(dst, xdr.Uint32At(body[off:]) != 0)
			off += 4
		case record.String:
			n := int(xdr.Uint32At(body[off:]))
			dst = append(dst, `,"str":`...)
			dst = appendJSONString(dst, body[off+4:off+4+n])
			off += xdr.OpaqueLen(n)
		}
		dst = append(dst, '}')
	}
	if opened {
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// appendFloat renders a float field as a JSON string, which keeps NaN
// and ±Inf representable.
func appendFloat(dst []byte, v float64) []byte {
	dst = append(dst, `,"float":"`...)
	dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string escaped exactly as
// encoding/json escapes it with HTML escaping on: '"' and '\\' and the
// short control escapes (\b \f \n \r \t) by backslash; other control
// bytes, '<', '>' and '&' as six-byte \u00XX escapes; U+2028 and U+2029
// as their six-byte escapes; and each byte of invalid UTF-8 as the
// escape of U+FFFD.
func appendJSONString(dst, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRune(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
