// Package subscribe is the read side of the BRISK pipeline: a consumer
// layer tapped into the manager's post-merge sorted stream that serves
// many heterogeneous readers — live streaming subscribers, bounded
// catch-up queries, and cheap top-K frequency summaries — without
// perturbing the ingest path.
//
// The design center is the asymmetry of real instrumentation
// deployments: far more readers than writers. The single merger
// goroutine publishes each sink-accepted record exactly once into a
// sharded in-memory hot window (power-of-two shards keyed by source,
// ring retention bounded by a byte budget and a TTL); subscribers pull
// from the shared window at their own pace through per-subscriber
// cursors. A slow or dead subscriber is never allowed to back-pressure
// the sorter: when the window's retention overruns a lagging cursor the
// gap is made explicit with a loss-marker record (the 0xFF convention of
// internal/record), extending the pipeline's "delivered means emitted or
// marker-covered" contract to the read side.
package subscribe

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"brisk/internal/record"
)

// Filter is a compiled subscription filter: the conjunction of an
// optional source set, event-class set, timestamp range, and simple
// per-field predicates. Compile one with ParseFilter; compilation
// happens once at subscribe time, evaluation is allocation-free.
//
// The textual grammar is a whitespace- or '&&'-separated conjunction of
// clauses:
//
//	node=1,2,3        source (node id) is one of the listed ids
//	event=5,7         event class is one of the listed classes
//	ts>=N  ts<N ...   record timestamp (µs UTC) compares against N
//	fI OP literal     field I (0-based) compares against a literal
//
// where OP is one of == != < <= > >= (= is accepted for ==) and a
// literal is an integer, a float, true/false, or a single- or
// double-quoted string. Examples:
//
//	node=3 event=1,2 ts>=1700000000000000
//	f0>100 && f2=="checkout" && event=7
//
// Numeric field predicates compare the field's numeric value regardless
// of its exact integer width; string predicates apply only to string
// fields; a predicate on a missing field never matches. Records without
// a timestamp fail every ts clause. Loss markers are exempt from the
// filter — a gap must be visible to every subscriber that could have
// missed records in it.
type Filter struct {
	nodes    map[int32]struct{} // nil = every source
	events   [4]uint64          // class bitmap; hasEvents gates it
	hasEvent bool
	tsMin    int64
	tsMax    int64 // inclusive
	preds    []fieldPred
	expr     string
}

type predOp uint8

const (
	opEQ predOp = iota
	opNE
	opLT
	opLE
	opGT
	opGE
)

// fieldPred is one compiled field predicate. Numeric comparisons are
// performed in float64 (every BRISK numeric field value fits); string
// comparisons are lexicographic.
type fieldPred struct {
	idx   int
	op    predOp
	isStr bool
	num   float64
	str   string
}

// ParseFilter compiles a filter expression. The empty string compiles to
// the match-everything filter.
func ParseFilter(expr string) (*Filter, error) {
	f := &Filter{tsMin: math.MinInt64, tsMax: math.MaxInt64, expr: expr}
	s := strings.ReplaceAll(expr, "&&", " ")
	for _, clause := range strings.Fields(s) {
		if err := f.addClause(clause); err != nil {
			return nil, fmt.Errorf("subscribe: filter %q: %w", expr, err)
		}
	}
	return f, nil
}

// String returns the source expression the filter was compiled from.
func (f *Filter) String() string { return f.expr }

func (f *Filter) addClause(c string) error {
	key, op, val, err := splitClause(c)
	if err != nil {
		return err
	}
	switch {
	case key == "node" || key == "source":
		if op != opEQ {
			return fmt.Errorf("clause %q: source sets only support '='", c)
		}
		if f.nodes == nil {
			f.nodes = make(map[int32]struct{})
		}
		for _, part := range strings.Split(val, ",") {
			n, err := strconv.ParseInt(part, 10, 32)
			if err != nil {
				return fmt.Errorf("clause %q: bad node id %q", c, part)
			}
			f.nodes[int32(n)] = struct{}{}
		}
	case key == "event":
		if op != opEQ {
			return fmt.Errorf("clause %q: event sets only support '='", c)
		}
		f.hasEvent = true
		for _, part := range strings.Split(val, ",") {
			n, err := strconv.ParseUint(part, 10, 8)
			if err != nil {
				return fmt.Errorf("clause %q: bad event class %q", c, part)
			}
			f.events[n>>6] |= 1 << (n & 63)
		}
	case key == "ts":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("clause %q: bad timestamp %q", c, val)
		}
		switch op {
		case opEQ:
			f.tsMin, f.tsMax = maxi64(f.tsMin, n), mini64(f.tsMax, n)
		case opGE:
			f.tsMin = maxi64(f.tsMin, n)
		case opGT:
			if n == math.MaxInt64 {
				return fmt.Errorf("clause %q: ts>max", c)
			}
			f.tsMin = maxi64(f.tsMin, n+1)
		case opLE:
			f.tsMax = mini64(f.tsMax, n)
		case opLT:
			if n == math.MinInt64 {
				return fmt.Errorf("clause %q: ts<min", c)
			}
			f.tsMax = mini64(f.tsMax, n-1)
		default:
			return fmt.Errorf("clause %q: ts does not support '!='", c)
		}
	case len(key) >= 2 && key[0] == 'f':
		idx, err := strconv.Atoi(key[1:])
		if err != nil || idx < 0 || idx >= record.MaxFields {
			return fmt.Errorf("clause %q: field index out of range", c)
		}
		p := fieldPred{idx: idx, op: op}
		switch {
		case len(val) >= 2 && (val[0] == '"' || val[0] == '\''):
			if val[len(val)-1] != val[0] {
				return fmt.Errorf("clause %q: unterminated string literal", c)
			}
			p.isStr = true
			p.str = val[1 : len(val)-1]
		case val == "true" || val == "false":
			p.num = 0
			if val == "true" {
				p.num = 1
			}
		default:
			n, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("clause %q: bad literal %q", c, val)
			}
			p.num = n
		}
		f.preds = append(f.preds, p)
	default:
		return fmt.Errorf("clause %q: unknown key %q", c, key)
	}
	return nil
}

// splitClause cuts one clause into key, operator, and value text.
func splitClause(c string) (key string, op predOp, val string, err error) {
	for i := 0; i < len(c); i++ {
		switch c[i] {
		case '=', '!', '<', '>':
			key = c[i:]
			switch {
			case strings.HasPrefix(key, "=="), strings.HasPrefix(key, "!="),
				strings.HasPrefix(key, "<="), strings.HasPrefix(key, ">="):
				val = key[2:]
			default:
				val = key[1:]
			}
			switch {
			case key[0] == '=':
				op = opEQ
			case strings.HasPrefix(key, "!="):
				op = opNE
			case strings.HasPrefix(key, "<="):
				op = opLE
			case key[0] == '<':
				op = opLT
			case strings.HasPrefix(key, ">="):
				op = opGE
			case key[0] == '>':
				op = opGT
			default:
				return "", 0, "", fmt.Errorf("clause %q: bad operator", c)
			}
			if val == "" {
				return "", 0, "", fmt.Errorf("clause %q: missing value", c)
			}
			return c[:i], op, val, nil
		}
	}
	return "", 0, "", fmt.Errorf("clause %q: no operator", c)
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func mini64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// MatchMeta evaluates the metadata clauses (source set, event set, ts
// range) — everything decidable from a cache entry's header without
// decoding the record. Allocation-free.
func (f *Filter) MatchMeta(node int32, event uint8, ts int64, hasTS bool) bool {
	if f.nodes != nil {
		if _, ok := f.nodes[node]; !ok {
			return false
		}
	}
	if f.hasEvent && f.events[event>>6]&(1<<(event&63)) == 0 {
		return false
	}
	if f.tsMin != math.MinInt64 || f.tsMax != math.MaxInt64 {
		if !hasTS || ts < f.tsMin || ts > f.tsMax {
			return false
		}
	}
	return true
}

// NeedsFields reports whether the filter carries field predicates, i.e.
// whether matching requires a decoded record on top of MatchMeta.
func (f *Filter) NeedsFields() bool { return len(f.preds) > 0 }

// MatchFields evaluates the field predicates against a decoded record.
// Allocation-free.
func (f *Filter) MatchFields(rec *record.Record) bool { return f.matchValues(rec.Fields) }

// matchBody evaluates the field predicates against an encoded record
// body, decoded into the caller's scratch array (a reader keeps one, so
// that steady-state matching allocates nothing but string copies).
func (f *Filter) matchBody(body []byte, buf *[record.MaxFields]record.Value) bool {
	r := record.FromEncoded(body, 0, 0)
	fields, err := r.DecodeFields(buf)
	return err == nil && f.matchValues(fields)
}

func (f *Filter) matchValues(fields []record.Value) bool {
	for i := range f.preds {
		p := &f.preds[i]
		if p.idx >= len(fields) {
			return false
		}
		v := &fields[p.idx]
		if p.isStr {
			if v.Type != record.String || !cmpOK(p.op, strings.Compare(v.Str, p.str)) {
				return false
			}
			continue
		}
		if v.Type == record.String {
			return false
		}
		var n float64
		switch v.Type {
		case record.Float32, record.Float64:
			n = v.Float()
		case record.Uint64, record.Reason, record.Conseq:
			n = float64(v.Bits)
		default:
			n = float64(int64(v.Bits))
		}
		var c int
		switch {
		case n < p.num:
			c = -1
		case n > p.num:
			c = 1
		}
		if !cmpOK(p.op, c) {
			return false
		}
	}
	return true
}

func cmpOK(op predOp, c int) bool {
	switch op {
	case opEQ:
		return c == 0
	case opNE:
		return c != 0
	case opLT:
		return c < 0
	case opLE:
		return c <= 0
	case opGT:
		return c > 0
	default:
		return c >= 0
	}
}

// shardMask returns the bitmap of cache shards (given the power-of-two
// shard count) the filter's source set can reach; a filter with no
// source clause reaches every shard. The engine uses it to skip whole
// shards on reads and to suppress wake-ups for flushes that cannot
// contain a match.
func (f *Filter) shardMask(shards int) uint64 {
	if f.nodes == nil || shards >= 64 {
		if shards >= 64 {
			return ^uint64(0)
		}
		return (uint64(1) << shards) - 1
	}
	var m uint64
	for n := range f.nodes {
		m |= 1 << (uint32(n) & uint32(shards-1))
	}
	return m
}

// eventOverlap reports whether the filter's event set intersects a
// flush's seen-class bitmap. A filter without an event clause always
// overlaps.
func (f *Filter) eventOverlap(seen *[4]uint64) bool {
	if !f.hasEvent {
		return true
	}
	for i := range seen {
		if f.events[i]&seen[i] != 0 {
			return true
		}
	}
	return false
}
