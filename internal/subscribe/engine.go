package subscribe

import (
	"cmp"
	"context"
	"errors"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"brisk/internal/metrics"
	"brisk/internal/record"
)

// Config tunes an Engine. The zero value is a working configuration.
type Config struct {
	// Shards is the hot-window shard count (power of two, max 64;
	// default 8). Sources are mapped to shards by the low bits of their
	// node id, so one hot source contends on one shard only.
	Shards int
	// WindowBytes is the hot window's total byte budget across shards
	// (default 8 MiB). The oldest entries of a shard are evicted when
	// its slice of the budget fills.
	WindowBytes int
	// WindowTTL bounds entry age; entries older than it are evicted on
	// the next publish to their shard (default 30 s; negative disables).
	WindowTTL time.Duration
	// BatchRecords caps how many entries one reader copies out of one
	// shard per lock hold — the batch loader's unit for catch-up reads
	// and live tailing (default 256).
	BatchRecords int
	// Metrics, when non-nil, receives the brisk_sub_* series.
	Metrics *metrics.Registry
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Shards > 64 {
		cfg.Shards = 64
	}
	// Round up to a power of two so the source→shard map is a mask.
	for cfg.Shards&(cfg.Shards-1) != 0 {
		cfg.Shards++
	}
	if cfg.WindowBytes <= 0 {
		cfg.WindowBytes = 8 << 20
	}
	if cfg.WindowTTL == 0 {
		cfg.WindowTTL = 30 * time.Second
	}
	if cfg.BatchRecords <= 0 {
		cfg.BatchRecords = 256
	}
	return cfg
}

// Event is one delivery to a subscriber or query: either a data record
// or a loss marker covering records the reader missed (hot-window
// retention overran its cursor). The marker reuses the pipeline's 0xFF
// loss-record convention, so "delivered means emitted or marker-covered"
// holds on the read side exactly as it does on the write side.
type Event struct {
	// Seq is the global emission sequence the manager published the
	// record at; loss markers carry the sequence of the first record
	// delivered after the gap (0 when the gap reaches the stream head).
	Seq uint64
	// Shard is the hot-window shard the event came from — the loss
	// marker's locus, since a marker can cover several sources.
	Shard int
	// Record is the event payload with a private Fields array. For loss
	// markers (record.IsLossMarker) the count and covered range are in
	// the marker fields; Node is 0 because a shard-level gap has no
	// single source.
	Record record.Record
}

// Engine is the subscription engine: one per manager, fed by the
// merger's sink flush via Publish/EndFlush (the ism.Config.Tap
// contract), read by any number of subscribers and queries.
type Engine struct {
	cfg   Config
	cache *cache
	fr    *freq

	// Publisher-owned state (the manager's pipeline lock): the global emission
	// sequence and the dirty masks accumulated between sink flushes.
	pubSeq      uint64
	dirtyShards uint64
	dirtyEvents [4]uint64
	dirty       bool

	mu     sync.RWMutex
	subs   []*Subscription
	closed bool

	subsN      atomic.Int64
	publishedC *metrics.Counter
	deliveredC *metrics.Counter
	droppedC   *metrics.Counter
	markersC   *metrics.Counter
	hitsC      *metrics.Counter
	evictionsC *metrics.Counter
	wakeupsC   *metrics.Counter
	queriesC   *metrics.Counter
}

// New creates an engine.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	var ttl int64
	if cfg.WindowTTL > 0 {
		ttl = cfg.WindowTTL.Microseconds()
	}
	e := &Engine{
		cfg:   cfg,
		cache: newCache(cfg.Shards, cfg.WindowBytes, ttl),
		fr:    newFreq(),
	}
	e.registerMetrics(cfg.Metrics)
	return e
}

func (e *Engine) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	e.publishedC = reg.Counter(metrics.Desc{Name: "brisk_sub_published_total",
		Help: "sorted records published into the subscription hot window", Unit: "records"})
	e.deliveredC = reg.Counter(metrics.Desc{Name: "brisk_sub_delivered_total",
		Help: "records delivered to streaming subscribers", Unit: "records"})
	e.droppedC = reg.Counter(metrics.Desc{Name: "brisk_sub_dropped_total",
		Help: "records a lagging subscriber missed, covered by read-side loss markers", Unit: "records"})
	e.markersC = reg.Counter(metrics.Desc{Name: "brisk_sub_loss_markers_total",
		Help: "read-side loss markers synthesized for overrun subscriber cursors", Unit: "markers"})
	e.hitsC = reg.Counter(metrics.Desc{Name: "brisk_sub_cache_hits_total",
		Help: "records served to readers out of the hot-window cache (live tails, catch-up and queries)", Unit: "records"})
	e.evictionsC = reg.Counter(metrics.Desc{Name: "brisk_sub_cache_evictions_total",
		Help: "hot-window entries evicted by the byte budget or TTL", Unit: "records"})
	e.wakeupsC = reg.Counter(metrics.Desc{Name: "brisk_sub_wakeups_total",
		Help: "subscriber wake-ups issued at sink flushes (mask-suppressed flushes send none)", Unit: "wakeups"})
	e.queriesC = reg.Counter(metrics.Desc{Name: "brisk_sub_queries_total",
		Help: "bounded /query reads served from the hot window", Unit: "queries"})
	reg.GaugeFunc(metrics.Desc{Name: "brisk_sub_subscribers",
		Help: "streaming subscriptions currently attached"},
		func() float64 { return float64(e.subsN.Load()) })
	reg.GaugeFunc(metrics.Desc{Name: "brisk_sub_cache_entries",
		Help: "records currently retained in the hot window", Unit: "records"},
		func() float64 { n, _, _ := e.cache.stats(); return float64(n) })
	reg.GaugeFunc(metrics.Desc{Name: "brisk_sub_cache_bytes",
		Help: "encoded bytes currently retained in the hot window", Unit: "bytes"},
		func() float64 { _, b, _ := e.cache.stats(); return float64(b) })
	reg.GaugeFunc(metrics.Desc{Name: "brisk_sub_queue_depth",
		Help: "deepest subscriber backlog (hot-window entries published but not yet read)", Unit: "records"},
		func() float64 {
			e.mu.RLock()
			defer e.mu.RUnlock()
			var max int64
			for _, s := range e.subs {
				if l := s.lag.Load(); l > max {
					max = l
				}
			}
			return float64(max)
		})
	reg.GaugeFunc(metrics.Desc{Name: "brisk_sub_sketch_width",
		Help: "count-min sketch width (counters per row)"},
		func() float64 { return sketchWidth })
	reg.GaugeFunc(metrics.Desc{Name: "brisk_sub_sketch_depth",
		Help: "count-min sketch depth (hash rows)"},
		func() float64 { return sketchDepth })
}

// Publish appends one sink-accepted record to the hot window and the
// frequency sketch. It is the ism.Config.Tap hot path: called under the
// manager's pipeline lock for every emitted record with the node-prefixed
// encoding the memory-buffer sink produced (borrowed — copied here) and
// the flush's manager-clock instant. It never blocks on subscribers and
// allocates nothing in steady state.
func (e *Engine) Publish(rec *record.Record, encoded []byte, now int64) {
	seq := e.pubSeq
	e.pubSeq++
	sh := uint32(rec.Node) & e.cache.mask
	evicted := e.cache.shards[sh].put(e.cache, seq, rec.Node, rec.Event, rec.TS, rec.HasTS, now, encoded)
	if evicted > 0 {
		e.evictionsC.Add(uint64(evicted))
	}
	e.fr.observe(rec.Node, rec.Event)
	e.publishedC.Inc()
	e.dirtyShards |= 1 << sh
	e.dirtyEvents[rec.Event>>6] |= 1 << (rec.Event & 63)
	e.dirty = true
}

// EndFlush wakes the subscribers whose filters can match something in
// the records published since the last flush. Called once per sink
// flush under the manager's pipeline lock, so fan-out cost is per flush, not per
// record — and the shard/event masks suppress wake-ups entirely for
// subscribers that cannot match, which is what keeps thousands of idle
// subscribers nearly free on the ingest path.
func (e *Engine) EndFlush() {
	if !e.dirty {
		return
	}
	shards, events := e.dirtyShards, e.dirtyEvents
	e.dirtyShards, e.dirtyEvents, e.dirty = 0, [4]uint64{}, false
	e.mu.RLock()
	for _, s := range e.subs {
		if s.mask&shards == 0 || !s.f.eventOverlap(&events) {
			continue
		}
		select {
		case s.wake <- struct{}{}:
			e.wakeupsC.Inc()
		default:
		}
	}
	e.mu.RUnlock()
}

// ErrClosed is returned by Subscribe on a closed engine.
var ErrClosed = errors.New("subscribe: engine closed")

// Subscription is one attached streaming reader. Read with Next from a
// single goroutine; stop with Close.
type Subscription struct {
	e    *Engine
	f    *Filter
	mask uint64
	wake chan struct{}
	done chan struct{}
	once sync.Once

	cursors []uint64 // per shard: next logical index to read
	shards  []int    // shard indices the filter can reach

	lag       atomic.Int64 // entries published but not yet read, last collect
	delivered uint64       // reader-goroutine-owned totals
	dropped   uint64

	loadBuf []loaded
	arena   []byte // bodies of the last collected batch
	views   []view
	events  []Event
	scratch [record.MaxFields]record.Value // field-filter decode space
}

// Subscribe attaches a streaming subscription. With fromOldest the
// cursor starts at the oldest retained entry of each shard (catch-up
// replay from the hot window); otherwise it starts at the head and sees
// only records published after the call.
func (e *Engine) Subscribe(f *Filter, fromOldest bool) (*Subscription, error) {
	if f == nil {
		f = &Filter{tsMin: -1 << 63, tsMax: 1<<63 - 1}
	}
	s := &Subscription{
		e:       e,
		f:       f,
		mask:    f.shardMask(len(e.cache.shards)),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		cursors: make([]uint64, len(e.cache.shards)),
	}
	for i := range e.cache.shards {
		if s.mask&(1<<i) == 0 {
			continue
		}
		s.shards = append(s.shards, i)
		tail, head := e.cache.shards[i].bounds()
		if fromOldest {
			s.cursors[i] = tail
		} else {
			s.cursors[i] = head
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	e.subs = append(e.subs, s)
	e.subsN.Store(int64(len(e.subs)))
	return s, nil
}

// Close detaches the subscription. Next drains what the reader already
// reached, then reports io.EOF.
func (s *Subscription) Close() {
	s.once.Do(func() {
		e := s.e
		e.mu.Lock()
		for i, other := range e.subs {
			if other == s {
				e.subs = append(e.subs[:i], e.subs[i+1:]...)
				break
			}
		}
		e.subsN.Store(int64(len(e.subs)))
		e.mu.Unlock()
		close(s.done)
	})
}

// Stats reports the subscription's delivery totals. Call from the
// reader goroutine (the totals are reader-owned).
func (s *Subscription) Stats() (delivered, dropped uint64) {
	return s.delivered, s.dropped
}

// Next blocks until the subscription has events, the context ends, or
// the subscription (or engine) is closed. The returned slice is reused
// by the next call; events hold private Fields storage and may be
// retained. After Close, Next drains remaining reachable events and
// then returns io.EOF — the clean end-of-stream.
func (s *Subscription) Next(ctx context.Context) ([]Event, error) {
	vs, err := s.nextViews(ctx)
	if err != nil {
		return nil, err
	}
	s.events = materialize(s.events[:0], vs, s.arena)
	return s.events, nil
}

// materialize appends the views as events with private Fields.
func materialize(dst []Event, vs []view, arena []byte) []Event {
	for i := range vs {
		v := &vs[i]
		ev := Event{Seq: v.seq, Shard: v.shard}
		if _, err := record.DecodeInto(&ev.Record, arena[v.off:v.end]); err != nil {
			continue // cannot happen: the cache stores what the sink encoded
		}
		ev.Record.Node = v.node
		dst = append(dst, ev)
	}
	return dst
}

// nextViews is Next without materialising: it returns the batch as
// views whose bodies lie in s.arena, valid until the next call. The HTTP
// tail renders them straight from those bytes.
func (s *Subscription) nextViews(ctx context.Context) ([]view, error) {
	for {
		progressed := s.collect()
		if len(s.views) > 0 {
			return s.views, nil
		}
		if progressed {
			// Scanned entries that all filtered out: more may remain
			// past the batch bound, so poll again before blocking.
			continue
		}
		select {
		case <-s.wake:
		case <-s.done:
			if s.collect(); len(s.views) > 0 {
				return s.views, nil
			}
			return nil, io.EOF
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// view is one collected delivery before it is materialised or rendered:
// a hot-window entry's body (node prefix stripped) or a synthesized
// read-side loss marker, in the reader's arena.
type view struct {
	seq      uint64
	shard    int
	node     int32
	loss     bool // a loss marker, read-side or written into the window
	off, end int  // the record body in the arena
}

// collect performs one batched read pass over the subscription's shards
// into s.views and s.arena: copy out up to BatchRecords matching entries
// per shard (metadata pre-filtered under the shard lock), synthesize
// loss markers for overrun cursors, field-filter outside the locks, and
// merge to global emission order. progressed reports whether any cursor
// moved.
func (s *Subscription) collect() (progressed bool) {
	e := s.e
	s.views = s.views[:0]
	s.arena = s.arena[:0]
	var lag int64
	for _, i := range s.shards {
		cursor := s.cursors[i]
		s.loadBuf = s.loadBuf[:0]
		loadedE, arena, scanned, gap, gapTS, tail, head :=
			e.cache.shards[i].load(s.f, cursor, e.cfg.BatchRecords, s.loadBuf, s.arena)
		s.arena = arena
		if gap > 0 {
			cursor = tail
			s.dropped += gap
			e.droppedC.Add(gap)
			e.markersC.Inc()
			var markerSeq uint64
			if len(loadedE) > 0 {
				markerSeq = loadedE[0].seq
			}
			m := record.NewLossMarker(gap, 0, gapTS)
			off := len(s.arena)
			s.arena, _ = m.Append(s.arena)
			s.views = append(s.views, view{seq: markerSeq, shard: i, loss: true, off: off, end: len(s.arena)})
			progressed = true
		}
		if scanned > 0 {
			progressed = true
		}
		cursor += scanned
		s.cursors[i] = cursor
		lag += int64(head - cursor)
		for j := range loadedE {
			l := &loadedE[j]
			body := s.arena[l.off+4 : l.end]
			if s.f.NeedsFields() && !s.f.matchBody(body, &s.scratch) {
				continue
			}
			s.views = append(s.views, view{seq: l.seq, shard: i, node: l.node,
				loss: isLossBody(body), off: l.off + 4, end: l.end})
		}
		s.loadBuf = loadedE[:0]
	}
	s.lag.Store(lag)
	if len(s.views) > 0 {
		sortViews(s.views)
		n := uint64(0)
		for i := range s.views {
			if !s.views[i].loss {
				n++
			}
		}
		s.delivered += n
		e.deliveredC.Add(n)
		e.hitsC.Add(n)
	}
	return progressed
}

// isLossBody reports whether an encoded record body is a loss marker.
func isLossBody(body []byte) bool {
	if body[2] != record.LossEvent {
		return false
	}
	r := record.FromEncoded(body, 0, 0)
	return record.IsLossMarker(&r)
}

// sortViews orders a collected batch by global emission sequence, loss
// markers first among equals (a marker covers records published before
// the record carrying the same sequence). Insertion sort: batches are
// small and almost sorted (each shard contributes an ascending run).
func sortViews(vs []view) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && viewLess(&vs[j], &vs[j-1]); j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

func viewLess(a, b *view) bool {
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.loss && !b.loss
}

// Query reads a bounded window from the hot cache without subscribing:
// up to limit matching records, newest-last (ascending emission order).
// The scan is bounded by the cache retention itself — the hot window is
// the query's universe; older data is not reachable from this engine.
func (e *Engine) Query(f *Filter, limit int) []Event {
	vs, arena := e.query(f, limit)
	return materialize(make([]Event, 0, len(vs)), vs, arena)
}

// query finds the newest limit matches of f as views over the returned
// arena, ascending by seq. Each reachable shard is read newest-first, in
// BatchRecords windows pre-filtered on metadata under the shard lock and
// field-filtered outside it, and stops at limit matches; only the
// matches' bodies are kept.
func (e *Engine) query(f *Filter, limit int) ([]view, []byte) {
	if f == nil {
		f = &Filter{tsMin: -1 << 63, tsMax: 1<<63 - 1}
	}
	if limit <= 0 {
		limit = 1000
	}
	e.queriesC.Inc()
	var (
		vs          []view
		arena, scr  []byte
		loadedE     []loaded
		scratch     [record.MaxFields]record.Value
		batch       = e.cfg.BatchRecords
		mask        = f.shardMask(len(e.cache.shards))
		needsFields = f.NeedsFields()
	)
	for i, sh := range e.cache.shards {
		if mask&(1<<i) == 0 {
			continue
		}
		_, before := sh.bounds()
		for found := 0; found < limit; {
			want := batch
			if !needsFields && limit-found < want {
				want = limit - found
			}
			var scanned, tail uint64
			loadedE, scr, scanned, tail = sh.loadBack(f, before, batch, want, loadedE[:0], scr[:0])
			for j := range loadedE {
				l := &loadedE[j]
				body := scr[l.off+4 : l.end]
				if needsFields && !f.matchBody(body, &scratch) {
					continue
				}
				off := len(arena)
				arena = append(arena, body...)
				vs = append(vs, view{seq: l.seq, shard: i, node: l.node, off: off, end: len(arena)})
				if found++; found == limit {
					break
				}
			}
			before -= scanned
			if scanned == 0 || before <= tail {
				break
			}
		}
	}
	slices.SortFunc(vs, func(a, b view) int { return cmp.Compare(a.seq, b.seq) })
	if len(vs) > limit {
		vs = vs[len(vs)-limit:] // keep the newest
	}
	e.hitsC.Add(uint64(len(vs)))
	return vs, arena
}

// TopSources returns the estimated K noisiest sources (node ids) seen
// by the count-min sketch since start, heaviest first.
func (e *Engine) TopSources(k int) []TopEntry { return e.fr.topSources(k) }

// TopEvents returns the estimated K noisiest event classes.
func (e *Engine) TopEvents(k int) []TopEntry { return e.fr.topEvents(k) }

// Close detaches every subscription (each drains what it reached, then
// sees io.EOF) and refuses new ones. Safe to call more than once.
// Publish must not be called after Close — the manager guarantees that
// by closing its pipeline first.
func (e *Engine) Close() {
	e.mu.Lock()
	subs := e.subs
	e.subs = nil
	e.closed = true
	e.subsN.Store(0)
	e.mu.Unlock()
	for _, s := range subs {
		s.once.Do(func() { close(s.done) })
	}
}
