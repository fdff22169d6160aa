package brisk

import (
	"io"
	"net/http"
	"time"

	"brisk/internal/clocksync"
	"brisk/internal/ism"
	"brisk/internal/metrics"
	"brisk/internal/ols"
	"brisk/internal/picl"
	"brisk/internal/subscribe"
	"brisk/internal/visual"
)

// TimeFramePolicy selects how the manager's on-line sorter adapts its
// delay window T when it observes records arriving out of order.
type TimeFramePolicy int

const (
	// TimeFrameLateness sets T to the latest late event's lateness — the
	// paper's recommended strategy for latency-critical applications.
	TimeFrameLateness TimeFramePolicy = iota
	// TimeFrameDouble doubles T on each inversion.
	TimeFrameDouble
	// TimeFrameFixed never adapts T.
	TimeFrameFixed
)

func (p TimeFramePolicy) grow() ols.GrowPolicy {
	switch p {
	case TimeFrameDouble:
		return ols.GrowDouble
	case TimeFrameFixed:
		return ols.GrowFixed
	default:
		return ols.GrowToLateness
	}
}

// SorterOptions tunes the on-line sorting algorithm.
type SorterOptions struct {
	// InitialT is the starting delay window in µs (default 1000).
	InitialT int64
	// MinT and MaxT bound the window (defaults 0 and 10 s).
	MinT, MaxT int64
	// HalfLife is the exponential-decay half-life of T in µs; 0 keeps T
	// from decaying. A large half-life (small decay exponent) is the
	// paper's recommendation outside latency-critical use.
	HalfLife int64
	// Policy selects the growth rule.
	Policy TimeFramePolicy
	// MaxBuffered bounds records delayed in memory (0 = unbounded). It
	// also arms credit flow control: the manager stops acknowledging its
	// sensors once the sorter holds ¾ of the bound and resumes at half
	// that, granting at most 4096 records per sensor per ack.
	MaxBuffered int
	// Core selects the in-window data structure: the default calendar
	// queue (amortized O(1) per record, falls back to the heap on
	// pathological skew) or the binary heap baseline. Both emit
	// identically; this is purely a performance knob (see TUNING.md).
	Core SorterCore
}

// SorterCore selects the sorter's in-window data structure.
type SorterCore = ols.CoreKind

// The sorter cores. CoreCalendar (the zero value) is the production
// default; CoreHeap forces the baseline binary heap.
const (
	CoreCalendar = ols.CoreCalendar
	CoreHeap     = ols.CoreHeap
)

// SyncOptions tunes the clock-synchronization master.
type SyncOptions struct {
	// Period is the polling round period; 0 disables synchronization.
	// Each round takes 5 probes per slave and applies 0.7 of the skew
	// below a 100 µs threshold (the paper's values).
	Period time.Duration
	// MaxRTT discards probes with round trips above this bound (µs).
	MaxRTT int64
	// UncertaintyBound, when > 0, switches the master to model-based
	// probe scheduling: each slave carries a drift + offset estimator,
	// corrections extrapolate from estimated drift between probes, and
	// a slave is probed only when its predicted one-σ offset
	// uncertainty (µs) crosses this bound. See TUNING.md, "The probe
	// budget".
	UncertaintyBound int64
}

// PICLOptions configures trace-file output.
type PICLOptions struct {
	// W receives the trace lines.
	W io.Writer
	// Relative selects floating-point seconds since start rather than
	// absolute microseconds of UTC.
	Relative bool
	// Start is the µs instant used as second-zero in relative mode.
	Start int64
}

// SubscribeOptions configures the manager's read-side subscription
// engine: a consumer layer tapped into the post-merge sorted stream that
// serves streaming subscribers (/subscribe), bounded catch-up queries
// (/query) and top-K frequency summaries (/topk) out of a sharded
// in-memory hot window, without perturbing the ingest path. The zero
// value is a working configuration; see TUNING.md for sizing the window
// against the memory budget.
type SubscribeOptions struct {
	// WindowBytes is the hot window's byte budget across shards
	// (default 8 MiB).
	WindowBytes int
}

// ManagerOptions configures StartManager. The zero value listens on an
// ephemeral localhost port with default tuning. The manager PINGs each
// sensor every second, disconnects one silent for three intervals, and
// keeps a disconnected sensor's session resumable for two minutes.
type ManagerOptions struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// Clock is the manager clock (default: system clock).
	Clock Clock
	// Sorter tunes the on-line sorter.
	Sorter SorterOptions
	// OLSShards is the number of independent on-line sorter shards.
	// Sources are partitioned across shards and the shard outputs are
	// recombined through a timestamp-keyed k-way merge before causal
	// matching and sink fan-out, so record ingestion scales with cores.
	// 0 or 1 keeps the single sorter (the exact unsharded behaviour);
	// negative means one shard per CPU.
	OLSShards int
	// Sync tunes the clock-synchronization master.
	Sync SyncOptions
	// MergeInterval is the merger wake period (default 5 ms) — the
	// manager-side latency knob.
	MergeInterval time.Duration
	// BufferRecords is the consumer memory-buffer capacity (default
	// 65536 records).
	BufferRecords int
	// PICL, when non-nil, enables trace-file output.
	PICL *PICLOptions
	// Subscribe, when non-nil, enables the read-side subscription
	// engine (see Manager.Subscriptions and Manager.MountSubscribe).
	Subscribe *SubscribeOptions
	// Filter, when non-nil, selects which sorted records reach the
	// sinks. See FilterEvents for the common case of selecting event
	// classes. The filter runs after sorting and causal repair.
	Filter func(rec *Record) bool
	// Logf receives diagnostics (default: standard log package).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, is the registry the manager registers its
	// series in; nil gives the manager a private registry, readable via
	// Manager.Metrics.
	Metrics *Metrics
	// TraceSampleEvery is the pipeline stage tracer's sampling period
	// (every Nth record's age is measured per stage). 0 means the
	// default (64); negative disables tracing.
	TraceSampleEvery int
}

// FilterEvents returns a Filter passing only the given event classes —
// the "specify what to monitor" convenience for ManagerOptions.Filter.
func FilterEvents(classes ...uint8) func(*Record) bool {
	var wanted [256]bool
	for _, c := range classes {
		wanted[c] = true
	}
	return func(r *Record) bool { return wanted[r.Event] }
}

// ManagerStats snapshots the manager's counters.
type ManagerStats = ism.Stats

// Manager is a running instrumentation-system manager.
type Manager struct {
	inner *ism.Manager
	disp  *visual.Dispatcher
	sub   *subscribe.Engine
}

// StartManager creates and starts a manager.
func StartManager(opts ManagerOptions) (*Manager, error) {
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	var eng *subscribe.Engine
	if opts.Subscribe != nil {
		// The engine's series land in the same registry as the
		// manager's, so one observability endpoint serves both.
		if opts.Metrics == nil {
			opts.Metrics = NewMetrics()
		}
		eng = subscribe.New(subscribe.Config{
			WindowBytes: opts.Subscribe.WindowBytes,
			Metrics:     opts.Metrics,
		})
	}
	cfg := ism.Config{
		Addr:  opts.Addr,
		Clock: opts.Clock,
		Sorter: ols.Config{
			InitialT:    opts.Sorter.InitialT,
			MinT:        opts.Sorter.MinT,
			MaxT:        opts.Sorter.MaxT,
			HalfLife:    opts.Sorter.HalfLife,
			Grow:        opts.Sorter.Policy.grow(),
			MaxBuffered: opts.Sorter.MaxBuffered,
			Core:        opts.Sorter.Core,
		},
		OLSShards:     opts.OLSShards,
		MergeInterval: opts.MergeInterval,
		BufferRecords: opts.BufferRecords,
		Sync: clocksync.Config{
			MaxRTT:           opts.Sync.MaxRTT,
			UncertaintyBound: opts.Sync.UncertaintyBound,
		},
		SyncPeriod:       opts.Sync.Period,
		Filter:           opts.Filter,
		Logf:             opts.Logf,
		Metrics:          opts.Metrics,
		TraceSampleEvery: opts.TraceSampleEvery,
	}
	if eng != nil {
		cfg.Sinks = append(cfg.Sinks, eng)
	}
	if opts.PICL != nil {
		mode := picl.TimeUTC
		if opts.PICL.Relative {
			mode = picl.TimeRelative
		}
		cfg.Sinks = append(cfg.Sinks, picl.NewWriter(opts.PICL.W, mode, opts.PICL.Start))
	}
	disp := visual.NewDispatcher()
	cfg.Sinks = append(cfg.Sinks, disp)
	m, err := ism.New(cfg)
	if err != nil {
		return nil, err
	}
	reg := m.Metrics()
	reg.CounterFunc(metrics.Desc{Name: "brisk_visual_lines_sent_total",
		Help: "PICL lines delivered to remote visual objects", Unit: "lines"},
		func() uint64 { sent, _ := disp.Totals(); return sent })
	reg.CounterFunc(metrics.Desc{Name: "brisk_visual_lines_dropped_total",
		Help: "PICL lines dropped at slow visual consumers", Unit: "lines"},
		func() uint64 { _, dropped := disp.Totals(); return dropped })
	m.Start()
	return &Manager{inner: m, disp: disp, sub: eng}, nil
}

// Addr returns the manager's bound TCP address, which nodes connect to.
func (m *Manager) Addr() string { return m.inner.Addr() }

// Stats snapshots the manager's counters.
func (m *Manager) Stats() ManagerStats { return m.inner.Stats() }

// Metrics returns the registry holding the manager's series — the one
// passed in ManagerOptions.Metrics, or the manager's private registry.
// Serve it with ServeObservability.
func (m *Manager) Metrics() *Metrics { return m.inner.Metrics() }

// SyncNow requests an immediate clock-synchronization round.
func (m *Manager) SyncNow() { m.inner.SyncRound() }

// AttachVisual connects a remote visual object at addr (served by a
// visual.Server, see cmd/briskview) under the given object name; every
// sorted record is then delivered to it as a PICL string.
func (m *Manager) AttachVisual(addr, object string, queue int) error {
	r, err := visual.Dial(addr, object, queue)
	if err != nil {
		return err
	}
	m.disp.Attach(r)
	return nil
}

// Consume returns a consumer positioned at the oldest retained record of
// the manager's memory buffer.
func (m *Manager) Consume() *Consumer {
	return &Consumer{cur: m.inner.NewCursor()}
}

// SubscriptionEngine is the read-side subscription engine created when
// ManagerOptions.Subscribe is set: programmatic subscriptions
// (Engine.Subscribe / Subscription.Next), bounded queries (Engine.Query)
// and top-K summaries, plus the HTTP handlers MountSubscribe wires up.
type SubscriptionEngine = subscribe.Engine

// Subscription is one attached reader of the sorted stream.
type Subscription = subscribe.Subscription

// SubscribeFilter is a compiled subscription filter; build one with
// ParseSubscribeFilter. A nil filter matches everything.
type SubscribeFilter = subscribe.Filter

// ParseSubscribeFilter compiles a filter expression — a conjunction of
// clauses like "node=1,2 event=5 ts>=1000 f0>3.5" (see OBSERVABILITY.md
// for the grammar). The empty expression matches everything.
func ParseSubscribeFilter(expr string) (*SubscribeFilter, error) {
	return subscribe.ParseFilter(expr)
}

// Subscriptions returns the manager's read-side subscription engine, or
// nil when ManagerOptions.Subscribe was not set. Use it to attach
// programmatic subscribers (Engine.Subscribe), run bounded queries, or
// mount its HTTP API; MountSubscribe covers the common case.
func (m *Manager) Subscriptions() *SubscriptionEngine { return m.sub }

// MountSubscribe registers the subscription API on an observability
// server: /subscribe (streaming NDJSON), /query (bounded window) and
// /topk (sketch heavy hitters). Returns false when the manager was
// started without SubscribeOptions.
func (m *Manager) MountSubscribe(srv *ObservabilityServer) bool {
	if m.sub == nil {
		return false
	}
	srv.Handle("/subscribe", http.HandlerFunc(m.sub.ServeSubscribe))
	srv.Handle("/query", http.HandlerFunc(m.sub.ServeQuery))
	srv.Handle("/topk", http.HandlerFunc(m.sub.ServeTopK))
	return true
}

// Close shuts the manager down, flushing the sorter and every sink.
// Streaming subscribers receive everything flushed, then a clean
// end-of-stream.
func (m *Manager) Close() error {
	err := m.inner.Close()
	if m.sub != nil {
		// After inner.Close the merger has flushed its final batch
		// through the tap; closing the engine lets subscribers drain
		// what they can reach and then see io.EOF.
		m.sub.Close()
	}
	if cerr := m.disp.Close(); err == nil {
		err = cerr
	}
	return err
}
