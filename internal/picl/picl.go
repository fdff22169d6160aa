// Package picl writes and reads instrumentation-data trace files in the
// PICL ASCII style [P. H. Worley, "A new PICL trace file format",
// ORNL/TM-12125, 1992], the format the BRISK ISM optionally logs to so
// that existing trace-analysis tools can consume its output.
//
// Each trace record is one ASCII line:
//
//	<rectype> <event> <timestamp> <node> <nfields> <field>...
//
// where rectype is -4 (user-defined trace event, the only type BRISK
// emits), event is the record's event class, node the originating node,
// and each field is rendered as <typecode>:<value> with strings quoted.
// Per the paper, timestamps are written either in the UTC format (integer
// microseconds) or as the floating-point number of seconds since the ISM
// was started.
//
// This is a faithful rendering of the PICL record discipline (typed ASCII
// lines, one event per line, node and time attribution) rather than a
// byte-exact reimplementation of the ORNL tooling; the Reader makes the
// format round-trippable for downstream consumers.
package picl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"brisk/internal/record"
)

// UserEventType is the PICL record type BRISK emits.
const UserEventType = -4

// TimeMode selects the timestamp rendering.
type TimeMode int

const (
	// TimeUTC writes integer microseconds of UTC.
	TimeUTC TimeMode = iota
	// TimeRelative writes floating-point seconds since the writer's
	// start time.
	TimeRelative
)

// Errors reported by the reader.
var (
	ErrSyntax = errors.New("picl: malformed trace line")
)

// Writer emits PICL trace lines. Not safe for concurrent use.
type Writer struct {
	bw      *bufio.Writer
	mode    TimeMode
	start   int64 // µs, zero point for TimeRelative
	lines   uint64
	scratch []byte // one rendered line, recycled across records
	fields  [record.MaxFields]record.Value
}

// NewWriter returns a writer in the given time mode; start is the UTC
// microsecond instant used as second-zero in TimeRelative mode.
func NewWriter(w io.Writer, mode TimeMode, start int64) *Writer {
	return &Writer{bw: bufio.NewWriter(w), mode: mode, start: start}
}

// Lines returns the number of records written.
func (w *Writer) Lines() uint64 { return w.lines }

// WriteRecord renders one record as a trace line. The line is built in a
// recycled scratch buffer with the strconv append functions, so writing a
// record allocates nothing in steady state — the writer sits on the
// manager's sink hot path.
func (w *Writer) WriteRecord(r *record.Record) error {
	w.lines++
	b := w.scratch[:0]
	b = strconv.AppendInt(b, UserEventType, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(r.Event), 10)
	b = append(b, ' ')
	switch w.mode {
	case TimeRelative:
		b = strconv.AppendFloat(b, float64(r.TS-w.start)/1e6, 'f', 6, 64)
	default:
		b = strconv.AppendInt(b, r.TS, 10)
	}
	// Data fields exclude the timestamp (already the time column). A
	// record that is still only bytes is decoded here, into the writer's
	// own array.
	fields, err := r.DecodeFields(&w.fields)
	if err != nil {
		return err
	}
	n := 0
	for _, f := range fields {
		if f.Type != record.TS {
			n++
		}
	}
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(r.Node), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(n), 10)
	for _, f := range fields {
		if f.Type == record.TS {
			continue
		}
		b = append(b, ' ')
		b = appendField(b, f)
	}
	b = append(b, '\n')
	w.scratch = b
	_, err = w.bw.Write(b)
	return err
}

func appendField(b []byte, f record.Value) []byte {
	b = append(b, f.Type.String()...)
	b = append(b, ':')
	switch f.Type {
	case record.Int8, record.Int16, record.Int32, record.Int64:
		b = strconv.AppendInt(b, f.Int(), 10)
	case record.Uint8, record.Uint16, record.Uint32, record.Uint64,
		record.Reason, record.Conseq:
		b = strconv.AppendUint(b, f.Uint(), 10)
	case record.Float32, record.Float64:
		b = strconv.AppendFloat(b, f.Float(), 'g', -1, 64)
	case record.Bool:
		b = strconv.AppendBool(b, f.Bool())
	case record.String:
		b = strconv.AppendQuote(b, f.Str)
	}
	return b
}

// Flush writes buffered lines to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Line is one parsed trace record.
type Line struct {
	RecType int
	Event   uint8
	// TimeMicros holds the timestamp in µs; in TimeRelative files it is
	// the relative time scaled back to µs.
	TimeMicros int64
	Node       int32
	// Fields are the typed data payloads.
	Fields []record.Value
}

// Reader parses PICL trace lines.
type Reader struct {
	sc    *bufio.Scanner
	lines uint64
}

// NewReader returns a reader over a trace stream.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return &Reader{sc: sc}
}

// Next parses the next trace line. It returns io.EOF at end of stream.
func (r *Reader) Next() (Line, error) {
	for {
		if !r.sc.Scan() {
			if err := r.sc.Err(); err != nil {
				return Line{}, err
			}
			return Line{}, io.EOF
		}
		text := strings.TrimSpace(r.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		r.lines++
		return parseLine(text)
	}
}

func parseLine(text string) (Line, error) {
	tok := strings.Fields(text)
	if len(tok) < 5 {
		return Line{}, fmt.Errorf("%w: %d columns", ErrSyntax, len(tok))
	}
	var ln Line
	rt, err := strconv.Atoi(tok[0])
	if err != nil {
		return Line{}, fmt.Errorf("%w: rectype %q", ErrSyntax, tok[0])
	}
	ln.RecType = rt
	ev, err := strconv.ParseUint(tok[1], 10, 8)
	if err != nil {
		return Line{}, fmt.Errorf("%w: event %q", ErrSyntax, tok[1])
	}
	ln.Event = uint8(ev)
	if strings.ContainsAny(tok[2], ".eE") {
		sec, err := strconv.ParseFloat(tok[2], 64)
		if err != nil {
			return Line{}, fmt.Errorf("%w: time %q", ErrSyntax, tok[2])
		}
		ln.TimeMicros = int64(sec * 1e6)
	} else {
		us, err := strconv.ParseInt(tok[2], 10, 64)
		if err != nil {
			return Line{}, fmt.Errorf("%w: time %q", ErrSyntax, tok[2])
		}
		ln.TimeMicros = us
	}
	node, err := strconv.ParseInt(tok[3], 10, 32)
	if err != nil {
		return Line{}, fmt.Errorf("%w: node %q", ErrSyntax, tok[3])
	}
	ln.Node = int32(node)
	n, err := strconv.Atoi(tok[4])
	if err != nil || n < 0 {
		return Line{}, fmt.Errorf("%w: field count %q", ErrSyntax, tok[4])
	}
	if len(tok) != 5+n {
		// Quoted strings may contain spaces; re-join and split carefully.
		fields, ferr := splitFields(strings.Join(tok[5:], " "), n)
		if ferr != nil {
			return Line{}, ferr
		}
		ln.Fields = fields
		return ln, nil
	}
	for _, ftok := range tok[5:] {
		v, err := parseField(ftok)
		if err != nil {
			return Line{}, err
		}
		ln.Fields = append(ln.Fields, v)
	}
	return ln, nil
}

// splitFields handles data sections whose string fields contain spaces.
func splitFields(s string, n int) ([]record.Value, error) {
	var out []record.Value
	rest := s
	for i := 0; i < n; i++ {
		rest = strings.TrimLeft(rest, " ")
		if rest == "" {
			return nil, fmt.Errorf("%w: expected %d fields, found %d", ErrSyntax, n, i)
		}
		colon := strings.IndexByte(rest, ':')
		if colon < 0 {
			return nil, fmt.Errorf("%w: field %q", ErrSyntax, rest)
		}
		if strings.HasPrefix(rest[colon+1:], `"`) {
			// Quoted string: find its end with the Go quoting rules.
			q := rest[colon+1:]
			val, rem, err := unquotePrefix(q)
			if err != nil {
				return nil, fmt.Errorf("%w: string field: %v", ErrSyntax, err)
			}
			out = append(out, record.StrVal(val))
			rest = rem
			continue
		}
		end := strings.IndexByte(rest, ' ')
		var tokn string
		if end < 0 {
			tokn, rest = rest, ""
		} else {
			tokn, rest = rest[:end], rest[end:]
		}
		v, err := parseField(tokn)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if strings.TrimSpace(rest) != "" {
		return nil, fmt.Errorf("%w: trailing data %q", ErrSyntax, rest)
	}
	return out, nil
}

// unquotePrefix unquotes the Go-quoted string at the start of s and
// returns the remainder.
func unquotePrefix(s string) (val, rest string, err error) {
	// Scan for the closing quote, honoring backslash escapes.
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			v, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", err
			}
			return v, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated quote in %q", s)
}

var typeByName = map[string]record.Type{}

func init() {
	for t := record.Int8; t <= record.Conseq; t++ {
		typeByName[t.String()] = t
	}
}

func parseField(tok string) (record.Value, error) {
	colon := strings.IndexByte(tok, ':')
	if colon < 0 {
		return record.Value{}, fmt.Errorf("%w: field %q", ErrSyntax, tok)
	}
	t, ok := typeByName[tok[:colon]]
	if !ok {
		return record.Value{}, fmt.Errorf("%w: field type %q", ErrSyntax, tok[:colon])
	}
	body := tok[colon+1:]
	switch t {
	case record.Int8, record.Int16, record.Int32, record.Int64:
		v, err := strconv.ParseInt(body, 10, 64)
		if err != nil {
			return record.Value{}, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		return record.Value{Type: t, Bits: uint64(v)}, nil
	case record.Uint8, record.Uint16, record.Uint32, record.Uint64,
		record.Reason, record.Conseq:
		v, err := strconv.ParseUint(body, 10, 64)
		if err != nil {
			return record.Value{}, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		return record.Value{Type: t, Bits: v}, nil
	case record.Float32:
		v, err := strconv.ParseFloat(body, 64)
		if err != nil {
			return record.Value{}, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		return record.F32Val(float32(v)), nil
	case record.Float64:
		v, err := strconv.ParseFloat(body, 64)
		if err != nil {
			return record.Value{}, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		return record.F64Val(v), nil
	case record.Bool:
		v, err := strconv.ParseBool(body)
		if err != nil {
			return record.Value{}, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		return record.BoolVal(v), nil
	case record.String:
		v, err := strconv.Unquote(body)
		if err != nil {
			return record.Value{}, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		return record.StrVal(v), nil
	case record.TS:
		v, err := strconv.ParseInt(body, 10, 64)
		if err != nil {
			return record.Value{}, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		return record.TSVal(v), nil
	default:
		return record.Value{}, fmt.Errorf("%w: unsupported type %v", ErrSyntax, t)
	}
}
