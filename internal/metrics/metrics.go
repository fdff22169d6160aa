// Package metrics is BRISK's self-instrumentation substrate: a
// dependency-free registry of atomic counters, gauges and log-bucketed
// histograms with Prometheus-style text exposition, JSON rendering, and an
// opt-in HTTP introspection endpoint.
//
// The instrumentation system measures the target system; this package
// makes the instrumentation system measure itself, the way the paper's
// evaluation does by hand: perturbation per notice, OLS window adaptation,
// tachyon repair rates, drop counts at every bound. Every pipeline stage
// registers its counters here, and the per-package Stats snapshot structs
// become typed views over the registry.
//
// # Model
//
// A Registry holds metric families keyed by name; each family holds one or
// more series distinguished by constant labels. Three live kinds exist —
// Counter (monotone), Gauge (instantaneous) and Histogram (log-bucketed
// distribution, sharing the bucket math of internal/stats) — plus
// func-backed counters and gauges that read state maintained elsewhere
// (heap depths, session-table sizes, ring drop counts) at snapshot time.
//
// Registration is idempotent: re-registering the same name+labels returns
// the existing metric, so a reconnecting session can reclaim its series.
// Snapshot, and the renderers built on it, never hold the registry lock
// while evaluating func-backed metrics, so those callbacks may take
// arbitrary component locks without ordering concerns.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"brisk/internal/stats"
)

// Kind discriminates the metric kinds of a family.
type Kind int

// Metric kinds.
const (
	// KindCounter is a monotonically non-decreasing cumulative count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value that can move both ways.
	KindGauge
	// KindHistogram is a log-bucketed distribution of observations.
	KindHistogram
)

// String names the kind in Prometheus TYPE vocabulary.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Label is one constant name/value pair attached to a series.
type Label struct {
	// Key is the label name ([a-zA-Z_][a-zA-Z0-9_]*).
	Key string
	// Value is the label value (any UTF-8 string; escaped on exposition).
	Value string
}

// Labels is an ordered list of labels. Order is normalized (sorted by key)
// when a series is registered, so {a,b} and {b,a} address the same series.
type Labels []Label

// L is shorthand for building a Labels list from alternating key, value
// strings: L("node", "3", "session", "f00d").
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("metrics: L requires an even number of arguments")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	return ls
}

// key renders the normalized series key used for lookup.
func (ls Labels) key() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// normalized returns a sorted copy of the labels.
func (ls Labels) normalized() Labels {
	if len(ls) == 0 {
		return nil
	}
	cp := append(Labels(nil), ls...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Key < cp[j].Key })
	return cp
}

// Desc describes one series being registered.
type Desc struct {
	// Name is the family name ([a-zA-Z_:][a-zA-Z0-9_:]*). By convention
	// counters end in _total and unit-carrying names embed the unit
	// (…_bytes, …_microseconds).
	Name string
	// Help is the one-line family description emitted as # HELP.
	Help string
	// Unit names the unit of the value ("records", "bytes",
	// "microseconds"); informational, carried into the JSON rendering.
	Unit string
	// Labels are the constant labels of this series; nil for the bare
	// series of the family.
	Labels Labels
}

// Counter is a monotone cumulative counter. The zero value is usable, but
// counters are normally created through Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a concurrency-safe logarithmic histogram of non-negative
// integer observations (µs, bytes, …): bucket i covers [2^i, 2^(i+1))
// with bucket 0 covering [0, 2), as laid out by stats.LogBucketIndex.
type Histogram struct {
	buckets [stats.LogBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
}

// Observe records one observation; negative values clamp to 0.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[stats.LogBucketIndex(float64(v))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	// Buckets holds per-bucket counts, trimmed after the last non-empty
	// bucket; Buckets[i] covers [2^i, 2^(i+1)).
	Buckets []uint64
	// Count is the total number of observations.
	Count uint64
	// Sum is the sum of all observations.
	Sum float64
}

// Snapshot copies the histogram. Concurrent Observe calls may or may not
// be included; the copy is internally consistent enough for monitoring
// (bucket totals may briefly lag Count by in-flight observations).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = float64(h.sum.Load())
	last := -1
	var buckets [stats.LogBuckets]uint64
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
		if buckets[i] != 0 {
			last = i
		}
	}
	s.Buckets = append([]uint64(nil), buckets[:last+1]...)
	return s
}

// Mean returns the mean observation, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns an upper bound on the q-th quantile using bucket upper
// edges (see stats.LogBucketQuantile).
func (s HistSnapshot) Quantile(q float64) float64 {
	return stats.LogBucketQuantile(s.Buckets, s.Count, q)
}

// series is one registered time series.
type series struct {
	labels  Labels
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	cfn     func() uint64
	gfn     func() float64
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	unit   string
	kind   Kind
	series map[string]*series
}

// Registry holds metric families. Create with NewRegistry; the zero value
// is not usable.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether s is a legal metric name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// validLabelKey reports whether s is a legal label name.
func validLabelKey(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register finds or creates the series for d under the registry lock and
// runs init on it while still holding the lock. It panics on invalid
// names or on a kind conflict with an existing family — both programmer
// errors caught at wiring time.
func (r *Registry) register(d Desc, kind Kind, init func(*series)) {
	if !validName(d.Name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", d.Name))
	}
	labels := d.Labels.normalized()
	for _, l := range labels {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l.Key, d.Name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[d.Name]
	if !ok {
		f = &family{name: d.Name, help: d.Help, unit: d.Unit, kind: kind,
			series: make(map[string]*series)}
		r.families[d.Name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %v, requested as %v",
			d.Name, f.kind, kind))
	}
	key := labels.key()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: labels}
		f.series[key] = s
	}
	init(s)
}

// Counter registers (or returns the existing) counter series for d.
func (r *Registry) Counter(d Desc) *Counter {
	var c *Counter
	r.register(d, KindCounter, func(s *series) {
		if s.counter == nil && s.cfn == nil {
			s.counter = &Counter{}
		}
		if s.counter == nil {
			panic(fmt.Sprintf("metrics: %s{%s} registered as a func counter", d.Name, d.Labels.key()))
		}
		c = s.counter
	})
	return c
}

// CounterFunc registers a counter series whose value is read from fn at
// snapshot time. fn must be monotone non-decreasing and safe to call from
// any goroutine; it is never called with the registry lock held, so it may
// take component locks freely. Re-registering replaces the function.
func (r *Registry) CounterFunc(d Desc, fn func() uint64) {
	r.register(d, KindCounter, func(s *series) {
		if s.counter != nil {
			panic(fmt.Sprintf("metrics: %s{%s} registered as a live counter", d.Name, d.Labels.key()))
		}
		s.cfn = fn
	})
}

// Gauge registers (or returns the existing) gauge series for d.
func (r *Registry) Gauge(d Desc) *Gauge {
	var g *Gauge
	r.register(d, KindGauge, func(s *series) {
		if s.gauge == nil && s.gfn == nil {
			s.gauge = &Gauge{}
		}
		if s.gauge == nil {
			panic(fmt.Sprintf("metrics: %s{%s} registered as a func gauge", d.Name, d.Labels.key()))
		}
		g = s.gauge
	})
	return g
}

// GaugeFunc registers a gauge series whose value is read from fn at
// snapshot time, under the same locking freedom as CounterFunc.
// Re-registering replaces the function.
func (r *Registry) GaugeFunc(d Desc, fn func() float64) {
	r.register(d, KindGauge, func(s *series) {
		if s.gauge != nil {
			panic(fmt.Sprintf("metrics: %s{%s} registered as a live gauge", d.Name, d.Labels.key()))
		}
		s.gfn = fn
	})
}

// Histogram registers (or returns the existing) histogram series for d.
func (r *Registry) Histogram(d Desc) *Histogram {
	var h *Histogram
	r.register(d, KindHistogram, func(s *series) {
		if s.hist == nil {
			s.hist = &Histogram{}
		}
		h = s.hist
	})
	return h
}

// Unregister removes the series with the given name and labels, and its
// family once empty. It reports whether a series was removed. Used when a
// labeled entity (a resumable session, say) is permanently retired.
func (r *Registry) Unregister(name string, labels Labels) bool {
	key := labels.normalized().key()
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return false
	}
	if _, ok := f.series[key]; !ok {
		return false
	}
	delete(f.series, key)
	if len(f.series) == 0 {
		delete(r.families, name)
	}
	return true
}

// SeriesSnapshot is one series' point-in-time state.
type SeriesSnapshot struct {
	// Labels are the series' constant labels (normalized order).
	Labels Labels
	// Value is the counter or gauge value; 0 for histograms.
	Value float64
	// Hist is set for histogram series.
	Hist *HistSnapshot
}

// FamilySnapshot is one family's point-in-time state.
type FamilySnapshot struct {
	// Name, Help, Unit and Kind echo the registration Desc.
	Name, Help, Unit string
	// Kind is the family's metric kind.
	Kind Kind
	// Series lists every series of the family, sorted by label key.
	Series []SeriesSnapshot
}

// Snapshot captures every registered metric, families sorted by name and
// series by label set. Func-backed metrics are evaluated after the
// registry lock is released, so their callbacks may take component locks.
func (r *Registry) Snapshot() []FamilySnapshot {
	type pending struct {
		fam int
		ser *series
	}
	r.mu.RLock()
	out := make([]FamilySnapshot, 0, len(r.families))
	var refs []pending
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Unit: f.unit, Kind: f.kind}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			refs = append(refs, pending{fam: len(out), ser: f.series[k]})
			fs.Series = append(fs.Series, SeriesSnapshot{})
		}
		out = append(out, fs)
	}
	r.mu.RUnlock()

	// Evaluate outside the lock; refs are appended in series order per
	// family, so a per-family cursor maps them back.
	cursor := make([]int, len(out))
	for _, p := range refs {
		ss := &out[p.fam].Series[cursor[p.fam]]
		cursor[p.fam]++
		ss.Labels = p.ser.labels
		switch {
		case p.ser.counter != nil:
			ss.Value = float64(p.ser.counter.Value())
		case p.ser.cfn != nil:
			ss.Value = float64(p.ser.cfn())
		case p.ser.gauge != nil:
			ss.Value = float64(p.ser.gauge.Value())
		case p.ser.gfn != nil:
			ss.Value = p.ser.gfn()
		case p.ser.hist != nil:
			h := p.ser.hist.Snapshot()
			ss.Hist = &h
		}
	}
	return out
}
