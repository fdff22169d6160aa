// Package ism implements the BRISK instrumentation-system manager.
//
// The ISM accepts TCP connections from external sensors, keeps the
// arriving record batches in per-sensor queues (in-order arrival being
// guaranteed by the stream socket), merges them with the heap-based
// on-line sorter, matches causally-related events, and fans the sorted
// stream out to its sinks:
//
//   - a memory buffer read by instrumentation-data consumer tools (the
//     default output mode),
//   - optional PICL ASCII trace logging, and
//   - an optional list of remote visual objects.
//
// The ISM is also the clock-synchronization master: it polls the external
// sensors in rounds and issues corrections, and the causally-related-event
// matcher requests an immediate extra round whenever a tachyon shows the
// clocks have come apart.
package ism

import (
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"brisk/internal/clocksync"
	"brisk/internal/cre"
	"brisk/internal/metrics"
	"brisk/internal/ols"
	"brisk/internal/picl"
	"brisk/internal/record"
	"brisk/internal/shm"
	"brisk/internal/vclock"
	"brisk/internal/visual"
	"brisk/internal/wire"
)

// Config configures a Manager. The zero value (plus an Addr) is a working
// configuration with the defaults noted per field.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7411". Use port 0
	// for an ephemeral port (see Manager.Addr).
	Addr string
	// Clock is the manager clock; nil means the system clock.
	Clock vclock.Clock
	// Sorter tunes the on-line sorting algorithm.
	Sorter ols.Config
	// OLSShards is the number of independent on-line sorter shards.
	// Sources are partitioned across shards (each with its own heap and
	// adaptive time frame) and the shard outputs are recombined through
	// a timestamp-keyed k-way merge, so decode workers push in parallel
	// and leave extraction to the merger. 0 or 1 means a single sorter,
	// which each decode worker pushes into, extracts from and flushes to
	// the sinks itself under sorterMu; negative means one
	// shard per CPU (GOMAXPROCS). Values above GOMAXPROCS are honoured
	// but add no parallelism.
	OLSShards int
	// MergeInterval is how often the merger extracts aged records; it is
	// the manager-side latency-control knob. Default 5 ms. (The paper's
	// worst-case latency lower bound comes from exactly this kind of
	// waiting select call.)
	MergeInterval time.Duration
	// BufferRecords is the memory-buffer capacity in records. Default
	// 65536.
	BufferRecords int
	// PICL, when non-nil, receives every sorted record as a trace line.
	PICL *picl.Writer
	// Visual, when non-nil, receives every sorted record as a PICL
	// string, fan-out to remote visual objects.
	Visual *visual.Dispatcher
	// Sync configures the clock-synchronization master.
	Sync clocksync.Config
	// SyncPeriod is the polling round period; 0 disables the master.
	SyncPeriod time.Duration
	// ProbeTimeout bounds one probe exchange. Default 250 ms.
	ProbeTimeout time.Duration
	// HeartbeatInterval is the per-connection PING period. A sensor that
	// sends nothing (not even a PONG) for three intervals is
	// declared dead and disconnected, so half-open links from crashed or
	// partitioned nodes cannot pin queue state forever. Default 1 s;
	// negative disables heartbeats.
	HeartbeatInterval time.Duration
	// SessionRetention bounds how long a detached session (its node id
	// and dedupe state) is kept for resumption after its connection
	// drops. Default 2 min; negative drops sessions immediately.
	SessionRetention time.Duration
	// AckHighWater and AckLowWater are sorter-occupancy watermarks (in
	// records) for the ack gate. When the sorter's buffered count rises to
	// AckHighWater the manager stops acknowledging data batches (a
	// deferred ack is the halt signal — the sensor's credit runs out and
	// it pauses); when it falls back to AckLowWater the deferred acks are
	// released. Defaults derive from Sorter.MaxBuffered (¾ and ½ of it);
	// flow control is disabled when both resolve to 0, and a negative
	// AckHighWater disables it explicitly even with MaxBuffered set.
	AckHighWater int
	AckLowWater  int
	// Filter, when non-nil, selects which sorted records reach the
	// sinks; records it rejects are counted but not delivered. It runs
	// downstream of the causal matcher so causal bookkeeping stays
	// complete even when only a subset is consumed — the tool-side
	// "specify what to monitor" hook of the paper's transparent
	// monitoring discussion.
	Filter func(rec *record.Record) bool
	// Forward, when non-nil, receives every sorted record the sinks
	// accept (loss markers included — they are exempt from Filter),
	// called with the pipeline lock (sorterMu) held: on the merger, or
	// with one shard on whichever decode worker holds the lock. The
	// relay tier uses it as its uplink tap. The record borrows merge
	// staging storage: implementations must encode or copy what they
	// keep before returning, and must never block.
	Forward func(rec *record.Record)
	// Tap, when non-nil, is the read-side subscription tap: it receives
	// every record the sinks accept (loss markers included) together
	// with the node-prefixed encoding the memory-buffer sink produced
	// and the flush's manager-clock instant, then one EndFlush per sink
	// flush to amortize subscriber wake-ups. Both calls run with the
	// pipeline lock held, on whichever goroutine holds it: implementations
	// must never block and must not allocate on the Publish path — the
	// ingest pipeline's zero-allocation contract extends through the
	// tap. The record and encoding borrow merge staging storage and
	// must be copied if kept.
	Tap SinkTap
	// GateBacklog, when non-nil, reports extra records that should count
	// toward the ack-gate occupancy on top of the sorter's own buffered
	// count. A relay manager points it at its uplink backlog, so a
	// parent withholding acks closes this manager's gate too — the
	// mechanism that composes backpressure across tiers. Called on every
	// gate update; must be fast and lock-free.
	GateBacklog func() int
	// Logf logs diagnostics; nil means log.Printf.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, is the registry the manager registers its
	// series in; nil means a private registry (see Manager.Metrics).
	Metrics *metrics.Registry
	// TraceSampleEvery is the pipeline stage tracer's sampling period:
	// every Nth record through a stage has its age measured. 0 means
	// DefaultTraceSampleEvery; negative disables tracing.
	TraceSampleEvery int
}

// DefaultTraceSampleEvery is the default pipeline-trace sampling period.
const DefaultTraceSampleEvery = 64

const (
	// heartbeatMisses is how many silent heartbeat intervals kill a peer.
	heartbeatMisses = 3
	// decodeQueueDepth is the per-session decode-worker queue depth in
	// batches: how many received-but-undecoded data batches may be
	// buffered per session before its reader blocks, pushing backpressure
	// into TCP. N sessions decode on N workers in parallel; what lies
	// downstream of the sorter runs one at a time under sorterMu.
	decodeQueueDepth = 4
	// sinkBatchRecords caps how many sorted records accumulate before an
	// intra-merge sink flush. Larger batches amortize the per-flush costs
	// (one clock read, one memory-buffer lock) over more records at the
	// price of peak latency jitter.
	sinkBatchRecords = 512
	// maxCreditWindow caps any single credit grant (records in flight per
	// sensor).
	maxCreditWindow = 4096
)

// SinkTap consumes the sorted stream at the sink stage — the
// subscription engine's attachment point (see Config.Tap).
type SinkTap interface {
	// Publish receives one sink-accepted record, its node-prefixed
	// encoding, and the manager clock of the flush. Borrowed storage;
	// must not block or allocate.
	Publish(rec *record.Record, encoded []byte, now int64)
	// EndFlush marks the end of one sink flush.
	EndFlush()
}

// Stats is a snapshot of manager counters.
type Stats struct {
	// Connected is the number of external sensors currently attached.
	Connected int
	// Received counts records accepted from all sensors.
	Received uint64
	// Emitted counts records that left the sorter toward the sinks.
	Emitted uint64
	// Batches counts data batches received.
	Batches uint64
	// RelayBatches counts relay batches (origin-attributed batches from
	// a downstream relay-tier ISM) among them.
	RelayBatches uint64
	// BytesIn counts wire payload bytes received.
	BytesIn uint64
	// Sorter and CRE expose the subsystem counters.
	Sorter ols.Stats
	CRE    cre.Stats
	// SyncRounds counts completed synchronization rounds.
	SyncRounds uint64
	// SyncProbes counts probe round trips the synchronization master has
	// issued — the traffic the model-based scheduler trades against
	// skew; SyncFallbacks counts model-divergence events that forced
	// full-round fallbacks.
	SyncProbes    uint64
	SyncFallbacks uint64
	// TachyonSyncs counts extra rounds requested by the CRE matcher.
	TachyonSyncs uint64
	// Filtered counts sorted records suppressed by the configured filter.
	Filtered uint64
	// ResumedSessions counts reconnections that reattached an existing
	// session (same node id, dedupe state intact).
	ResumedSessions uint64
	// DedupedBatches counts replayed data batches dropped by the
	// sequence-number filter (already merged before the link broke).
	DedupedBatches uint64
	// AckDeferred counts data-batch acks withheld by the overload gate.
	AckDeferred uint64
	// LossMarkers counts loss-marker records the manager synthesized for
	// records it dropped at the sorter bound; MarkedLost is the total
	// record count those markers represent.
	LossMarkers uint64
	MarkedLost  uint64
	// CreditGateClosed reports whether the ack gate is currently closed
	// (sorter occupancy between the watermarks after crossing the high
	// one).
	CreditGateClosed bool
	// SorterBuffered is the sorter's current occupancy in records,
	// aggregated across shards — the quantity the ack gate watches.
	SorterBuffered int
	// SorterShards is the configured number of on-line sorter shards.
	SorterShards int
	// DeadPeers counts connections severed by heartbeat timeout.
	DeadPeers uint64
	// Sessions is the number of live sessions (attached or within the
	// retention window).
	Sessions int
	// EmitLatencyMeanMicros and EmitLatencyP99Micros summarize delivery
	// latency (manager clock at emission minus the record's corrected
	// timestamp) over the manager's lifetime.
	EmitLatencyMeanMicros float64
	EmitLatencyP99Micros  float64
}

// conn is one attached external sensor.
type conn struct {
	node     int32
	name     string
	wc       *wire.Conn
	raw      net.Conn
	replies  chan *wire.ProbeReply
	seq      atomic.Uint32
	gone     atomic.Bool
	sess     *session     // nil for sessionless (v1-style) sensors
	lastRecv atomic.Int64 // UnixNano of the last frame received
	pingSeq  atomic.Uint32
}

// session is the durable identity of one external sensor across
// reconnections: the node id the sorter and clock-sync master key on, and
// the batch-sequence high-water mark that makes replays idempotent.
type session struct {
	id   uint64
	node int32

	// batchesC and dedupedC are this session's labeled batch and replay
	// counters; nil for sessionless sensors. They live as long as the
	// session: expiry unregisters them from the registry.
	batchesC *metrics.Counter
	dedupedC *metrics.Counter

	// acceptMu makes acceptBatch's dedupe check, hand-off to the decode
	// worker and lastSeq update one step. A reader evicted by a resume can
	// still be blocked in that hand-off while the resumed link replays the
	// same batch; without it both copies would pass the check.
	acceptMu sync.Mutex

	mu         sync.Mutex
	name       string
	lastSeq    uint64 // highest batch sequence handed to the decode worker
	cur        *conn  // attached connection, nil while detached
	detachedAt time.Time

	// work feeds the session's decode worker; free recycles payload
	// buffers back to the reader so a steady batch stream is copied zero
	// times and allocated never. Both channels outlive any one connection:
	// the worker is per session, which is what preserves per-source FIFO
	// order across a resume.
	work     chan pending
	free     chan []byte
	quit     chan struct{}
	stopOnce sync.Once

	// inflight counts records accepted from this session's link but not
	// yet through the sorter (queued for decode or being pushed);
	// the credit grant subtracts it so a sensor's window shrinks as its
	// backlog inside the manager grows.
	inflight atomic.Int64
	// deferred holds the highest batch sequence whose ack the overload
	// gate withheld (0 = none). The next gate update that finds the
	// sorter below the low watermark releases it.
	deferred atomic.Uint64
}

// stop retires the session's decode worker (it drains queued work first).
func (s *session) stop() { s.stopOnce.Do(func() { close(s.quit) }) }

// severCurrent kills the session's attached connection, if any; the
// decode worker uses it to surface a malformed batch as a link error.
func (s *session) severCurrent() {
	s.mu.Lock()
	c := s.cur
	s.mu.Unlock()
	if c != nil {
		c.gone.Store(true)
		c.raw.Close()
	}
}

// pending is one received-but-undecoded data batch queued to a session's
// decode worker. relay marks a RelayBatch payload: node-prefixed entries
// carrying their own origin ids instead of the session's node.
type pending struct {
	count   uint32
	payload []byte
	relay   bool
}

// Manager is the ISM. Create with New, start with Serve (or let New's
// listener run), stop with Close.
type Manager struct {
	cfg   Config
	clock vclock.Clock
	logf  func(string, ...any)

	ln     net.Listener
	buffer *shm.Buffer

	mu       sync.Mutex
	conns    map[int32]*conn
	sessions map[uint64]*session
	nextNode int32

	extractNow  chan struct{} // sharded mode: wakes the merger when a backlog builds
	syncNow     chan struct{}
	done        chan struct{}
	stopWorkers chan struct{} // closed after the readers exit; workers drain and stop
	wg          sync.WaitGroup
	wgConns     sync.WaitGroup // connection reader goroutines
	wgWorkers   sync.WaitGroup // per-session decode workers
	closed      atomic.Bool

	reg          *metrics.Registry
	tracer       *metrics.StageTracer
	received     *metrics.Counter
	batches      *metrics.Counter
	relayBatches *metrics.Counter
	bytesIn      *metrics.Counter
	emitted      *metrics.Counter

	// sorterMu guards the pipeline state downstream of the sorter
	// (matcher, out, sinkBufs, emitNow). The sorter itself locks
	// internally per shard. With one shard a decode worker holds sorterMu
	// across its whole merge event, push through sink flush, because the
	// records an Extract hands out borrow the shard's slabs until the
	// flush; with several the decode workers push into their shards
	// outside it and contend only inside ols.Sharded.
	sorterMu sync.Mutex
	sorter   *ols.Sharded
	shardN   int
	matcher  *cre.Matcher
	emitLat  *metrics.Histogram
	windowT  *metrics.Histogram

	// Batched sink delivery, owned by whoever holds sorterMu.
	// out collects fully-processed records between flushes; sinkBufs holds
	// one recycled encode buffer per record of the largest flush so far.
	out      []record.Record
	sinkBufs [][]byte
	emitNow  int64 // manager clock for the current merge event
	// fieldBuf takes the one decode a sink-bound record gets when a
	// filter, the PICL log or a visual object reads its field values.
	fieldBuf [record.MaxFields]record.Value

	workersLive atomic.Int64
	queueStalls *metrics.Counter
	sinkBatchH  *metrics.Histogram

	// Credit-based flow control. Gate transitions run under gateMu —
	// every decode worker updates the gate after its pushes, the merger
	// after its extraction passes; the per-connection
	// readers read the atomics to size (or defer) each ack's window
	// grant.
	flowEnabled bool
	ackHigh     int
	ackLow      int

	gateMu          sync.Mutex
	headroom        atomic.Int64 // ackHigh − sorter.Buffered(), gate-updated
	gateClosed      atomic.Bool
	gateClosedAt    int64 // manager µs when the gate closed; gateMu-owned
	attachedN       atomic.Int64
	deferredPending atomic.Int64

	connScratch []*conn // gateMu-owned snapshot scratch for releaseDeferred

	creditWindowH *metrics.Histogram
	ackDeferredC  *metrics.Counter
	overloadPause *metrics.Histogram
	lossMarkersC  *metrics.Counter
	markedLostC   *metrics.Counter
	srcDropC      map[int32]*metrics.Counter // sorterMu-owned label cache

	syncRounds   *metrics.Counter
	tachyonSyncs *metrics.Counter
	filtered     *metrics.Counter
	resumed      *metrics.Counter
	deduped      *metrics.Counter
	deadPeers    *metrics.Counter
	syncFailed   *metrics.Counter
	syncSkew     *metrics.Histogram

	// Model-based synchronization state, owned by the syncLoop goroutine:
	// the persistent master (estimators survive across rounds, keyed by
	// node id so they survive reconnects too) and its exported series.
	syncMaster      *clocksync.Master
	syncProbes      *metrics.Counter
	syncFallbacks   *metrics.Counter
	syncUncertainty *metrics.Gauge
	driftGauges     map[int32]*atomic.Uint64 // float64 bits, per slave node

	visualBuf  *lineBuffer
	visualPICL *picl.Writer
}

// Pipeline tracer stages owned by the manager side.
const (
	stageIngest      = iota // batch decoded off the wire, about to enter the sorter
	stageSorterEmit         // record left the on-line sorter
	stageSinkDeliver        // record delivered to the sinks
)

// lineBuffer renders one PICL line at a time for the visual dispatcher.
type lineBuffer struct {
	buf []byte
}

func (b *lineBuffer) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// New creates a manager and starts listening. Call Serve to begin
// accepting external sensors.
func New(cfg Config) (*Manager, error) {
	if cfg.Clock == nil {
		cfg.Clock = vclock.System{}
	}
	if cfg.MergeInterval <= 0 {
		cfg.MergeInterval = 5 * time.Millisecond
	}
	if cfg.BufferRecords <= 0 {
		cfg.BufferRecords = 65536
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 250 * time.Millisecond
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.SessionRetention == 0 {
		cfg.SessionRetention = 2 * time.Minute
	}
	if cfg.AckHighWater < 0 {
		cfg.AckHighWater = 0 // explicit disable
	} else if cfg.AckHighWater == 0 && cfg.Sorter.MaxBuffered > 0 {
		cfg.AckHighWater = cfg.Sorter.MaxBuffered * 3 / 4
	}
	if cfg.AckLowWater <= 0 {
		cfg.AckLowWater = cfg.AckHighWater / 2
	}
	if cfg.AckLowWater >= cfg.AckHighWater {
		cfg.AckLowWater = cfg.AckHighWater - 1
	}
	if cfg.OLSShards < 0 {
		cfg.OLSShards = runtime.GOMAXPROCS(0)
	}
	if cfg.OLSShards < 1 {
		cfg.OLSShards = 1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("ism: listen: %w", err)
	}
	m := &Manager{
		cfg:         cfg,
		clock:       cfg.Clock,
		logf:        logf,
		ln:          ln,
		buffer:      shm.NewBuffer(cfg.BufferRecords),
		conns:       make(map[int32]*conn),
		sessions:    make(map[uint64]*session),
		extractNow:  make(chan struct{}, 1),
		syncNow:     make(chan struct{}, 1),
		done:        make(chan struct{}),
		stopWorkers: make(chan struct{}),
		sorter:      ols.NewSharded(cfg.Sorter, cfg.OLSShards),
		shardN:      cfg.OLSShards,
		flowEnabled: cfg.AckHighWater > 0,
		ackHigh:     cfg.AckHighWater,
		ackLow:      cfg.AckLowWater,
		srcDropC:    make(map[int32]*metrics.Counter),
	}
	m.headroom.Store(int64(m.ackHigh))
	m.registerMetrics(cfg.Metrics)
	m.matcher = cre.New(cre.Config{
		OnTachyon: func(int64, *record.Record) {
			m.tachyonSyncs.Inc()
			select {
			case m.syncNow <- struct{}{}:
			default:
			}
		},
	})
	if cfg.Visual != nil {
		m.visualBuf = &lineBuffer{}
		m.visualPICL = picl.NewWriter(m.visualBuf, picl.TimeUTC, 0)
	}
	return m, nil
}

// registerMetrics creates (or adopts) the registry and binds every
// manager-side series: live counters for the record path, histograms for
// emit latency and the sorter's window trajectory, and func-backed views
// over the pipeline state (sorterMu) and the session table (m.mu).
// Func-backed series are evaluated outside the registry lock, so the
// closures here may take those locks freely.
func (m *Manager) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m.reg = reg
	m.received = reg.Counter(metrics.Desc{Name: "brisk_ism_records_received_total",
		Help: "records accepted from all external sensors", Unit: "records"})
	m.batches = reg.Counter(metrics.Desc{Name: "brisk_ism_batches_received_total",
		Help: "data-batch frames received, including replays", Unit: "batches"})
	m.relayBatches = reg.Counter(metrics.Desc{Name: "brisk_ism_relay_batches_received_total",
		Help: "relay-batch frames received from downstream relay-tier managers", Unit: "batches"})
	m.bytesIn = reg.Counter(metrics.Desc{Name: "brisk_ism_wire_bytes_in_total",
		Help: "wire payload bytes received from all sensors", Unit: "bytes"})
	m.emitted = reg.Counter(metrics.Desc{Name: "brisk_ism_records_emitted_total",
		Help: "sorted records delivered to the sinks", Unit: "records"})
	m.syncRounds = reg.Counter(metrics.Desc{Name: "brisk_ism_sync_rounds_total",
		Help: "completed clock-synchronization rounds", Unit: "rounds"})
	m.tachyonSyncs = reg.Counter(metrics.Desc{Name: "brisk_ism_tachyon_syncs_total",
		Help: "extra synchronization rounds requested by the causal matcher", Unit: "rounds"})
	m.filtered = reg.Counter(metrics.Desc{Name: "brisk_ism_records_filtered_total",
		Help: "sorted records suppressed by the configured filter", Unit: "records"})
	m.resumed = reg.Counter(metrics.Desc{Name: "brisk_ism_sessions_resumed_total",
		Help: "reconnections that reattached an existing session", Unit: "sessions"})
	m.deduped = reg.Counter(metrics.Desc{Name: "brisk_ism_batches_deduped_total",
		Help: "replayed batches dropped by the sequence-number filter", Unit: "batches"})
	m.deadPeers = reg.Counter(metrics.Desc{Name: "brisk_ism_dead_peers_total",
		Help: "connections severed by heartbeat timeout", Unit: "connections"})
	m.syncFailed = reg.Counter(metrics.Desc{Name: "brisk_ism_sync_failed_probes_total",
		Help: "slaves that yielded no usable offset estimate in a round", Unit: "slaves"})
	m.emitLat = reg.Histogram(metrics.Desc{Name: "brisk_ism_emit_latency_microseconds",
		Help: "delivery latency: manager clock at emission minus the record's corrected timestamp",
		Unit: "microseconds"})
	m.windowT = reg.Histogram(metrics.Desc{Name: "brisk_ols_window_trajectory_microseconds",
		Help: "on-line sorter window T sampled at every merge tick (its adaptation trajectory)",
		Unit: "microseconds"})
	m.syncSkew = reg.Histogram(metrics.Desc{Name: "brisk_ism_sync_skew_microseconds",
		Help: "mean relative clock skew observed per synchronization round",
		Unit: "microseconds"})
	m.syncProbes = reg.Counter(metrics.Desc{Name: "brisk_sync_probes_total",
		Help: "clock-synchronization probe round trips issued", Unit: "probes"})
	m.syncFallbacks = reg.Counter(metrics.Desc{Name: "brisk_sync_model_fallback_total",
		Help: "model-divergence events that forced full-round fallbacks", Unit: "events"})
	m.syncUncertainty = reg.Gauge(metrics.Desc{Name: "brisk_sync_uncertainty_us",
		Help: "largest predicted one-sigma offset uncertainty across slaves at the last sync round",
		Unit: "microseconds"})
	m.driftGauges = make(map[int32]*atomic.Uint64)
	m.queueStalls = reg.Counter(metrics.Desc{Name: "brisk_ism_decode_queue_stalls_total",
		Help: "data batches that found their session's decode queue full (the reader blocked, pushing backpressure into TCP)",
		Unit: "batches"})
	m.sinkBatchH = reg.Histogram(metrics.Desc{Name: "brisk_ism_sink_batch_records",
		Help: "records delivered per batched sink flush", Unit: "records"})
	m.creditWindowH = reg.Histogram(metrics.Desc{Name: "brisk_ism_credit_window",
		Help: "credit window granted per data-batch ack (records in flight the sensor may hold)",
		Unit: "records"})
	m.ackDeferredC = reg.Counter(metrics.Desc{Name: "brisk_ism_ack_deferred_total",
		Help: "data-batch acks withheld by the overload gate (released once the sorter drains)",
		Unit: "acks"})
	m.overloadPause = reg.Histogram(metrics.Desc{Name: "brisk_ism_overload_pause_microseconds",
		Help: "how long the ack gate stayed closed per overload episode (high watermark to low watermark)",
		Unit: "microseconds"})
	m.lossMarkersC = reg.Counter(metrics.Desc{Name: "brisk_ism_loss_markers_total",
		Help: "loss-marker records synthesized for records dropped at the sorter bound",
		Unit: "markers"})
	m.markedLostC = reg.Counter(metrics.Desc{Name: "brisk_ism_marked_lost_records_total",
		Help: "records represented by manager-synthesized loss markers",
		Unit: "records"})
	reg.GaugeFunc(metrics.Desc{Name: "brisk_ism_ack_gate_closed",
		Help: "1 while the overload gate is withholding acks, else 0"},
		func() float64 {
			if m.gateClosed.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc(metrics.Desc{Name: "brisk_ism_decode_workers",
		Help: "per-session decode workers currently running"},
		func() float64 { return float64(m.workersLive.Load()) })
	reg.GaugeFunc(metrics.Desc{Name: "brisk_ism_connected_sensors",
		Help: "external sensors currently attached"},
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.conns))
		})
	reg.GaugeFunc(metrics.Desc{Name: "brisk_ism_sessions",
		Help: "live sessions (attached or within the retention window)"},
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.sessions))
		})
	// The sharded sorter locks internally (per shard), so its views need
	// no sorterMu; the matcher views below still do.
	reg.GaugeFunc(metrics.Desc{Name: "brisk_ols_window_microseconds",
		Help: "current on-line sorter window T (the adaptive time frame; max across shards)", Unit: "microseconds"},
		func() float64 { return float64(m.sorter.TimeFrame()) })
	reg.GaugeFunc(metrics.Desc{Name: "brisk_ols_heap_depth",
		Help: "records currently buffered inside the sorter's delay window (aggregate across shards, either core)", Unit: "records"},
		func() float64 { return float64(m.sorter.Buffered()) })
	reg.GaugeFunc(metrics.Desc{Name: "brisk_ols_slab_bytes",
		Help: "encoded bytes of the records buffered inside the sorter's delay window (aggregate across shards; each record holds a 32-byte sort key on top)", Unit: "bytes"},
		func() float64 { return float64(m.sorter.SlabBytes()) })
	reg.GaugeFunc(metrics.Desc{Name: "brisk_ols_bucket_occupancy",
		Help: "live records in the fullest calendar bucket across shards (0 on the heap core or while the heap fallback is active)", Unit: "records"},
		func() float64 { return float64(m.sorter.MaxBucketOccupancy()) })
	reg.CounterFunc(metrics.Desc{Name: "brisk_ols_fallback_heap_total",
		Help: "times a calendar-core shard fell back to its binary heap (timestamp regression, tachyon beyond re-anchor reach, or hot-bucket imbalance)",
		Unit: "fallbacks"},
		func() uint64 { return m.sorter.Stats().HeapFallbacks })
	reg.CounterFunc(metrics.Desc{Name: "brisk_ols_calendar_rebuilds_total",
		Help: "times a calendar-core shard re-bucketed its ring at a doubled width (in-flight span outgrew the ring)",
		Unit: "rebuilds"},
		func() uint64 { return m.sorter.Stats().CalendarRebuilds })
	olsCounter := func(name, help string, get func(ols.Stats) uint64) {
		reg.CounterFunc(metrics.Desc{Name: name, Help: help, Unit: "records"}, func() uint64 {
			return get(m.sorter.Stats())
		})
	}
	olsCounter("brisk_ols_pushed_total", "records pushed into the on-line sorter",
		func(s ols.Stats) uint64 { return s.Pushed })
	olsCounter("brisk_ols_emitted_total", "records extracted from the on-line sorter in order",
		func(s ols.Stats) uint64 { return s.Emitted })
	olsCounter("brisk_ols_inversions_total", "records that arrived after a later-stamped record was emitted",
		func(s ols.Stats) uint64 { return s.Inversions })
	if m.shardN > 1 {
		reg.CounterFunc(metrics.Desc{Name: "brisk_ols_merge_stalls_total",
			Help: "extraction passes that emitted nothing while records were buffered (every shard head still inside its delay window)",
			Unit: "passes"},
			func() uint64 { return m.sorter.MergeStalls() })
		for i := 0; i < m.shardN; i++ {
			i := i
			labels := metrics.L("shard", strconv.Itoa(i))
			reg.GaugeFunc(metrics.Desc{Name: "brisk_ols_shard_window_microseconds",
				Help: "shard's current adaptive time frame T", Unit: "microseconds", Labels: labels},
				func() float64 { return float64(m.sorter.ShardTimeFrame(i)) })
			reg.GaugeFunc(metrics.Desc{Name: "brisk_ols_shard_buffered",
				Help: "records currently buffered in this shard's heaps", Unit: "records", Labels: labels},
				func() float64 { return float64(m.sorter.ShardBuffered(i)) })
			reg.GaugeFunc(metrics.Desc{Name: "brisk_ols_shard_slab_bytes",
				Help: "encoded bytes of the records buffered in this shard", Unit: "bytes", Labels: labels},
				func() float64 { return float64(m.sorter.ShardSlabBytes(i)) })
			shardCounter := func(name, help string, get func(ols.Stats) uint64) {
				reg.CounterFunc(metrics.Desc{Name: name, Help: help, Unit: "records", Labels: labels},
					func() uint64 { return get(m.sorter.ShardStats(i)) })
			}
			shardCounter("brisk_ols_shard_pushed_total", "records pushed into this sorter shard",
				func(s ols.Stats) uint64 { return s.Pushed })
			shardCounter("brisk_ols_shard_emitted_total", "records this sorter shard handed to the k-way merge",
				func(s ols.Stats) uint64 { return s.Emitted })
			shardCounter("brisk_ols_shard_inversions_total", "records that arrived behind the merged emission frontier at this shard",
				func(s ols.Stats) uint64 { return s.Inversions })
			shardCounter("brisk_ols_shard_dropped_full_total", "records this shard dropped at the aggregate MaxBuffered or per-source quota bound",
				func(s ols.Stats) uint64 { return s.DroppedFull })
			reg.CounterFunc(metrics.Desc{Name: "brisk_ols_shard_fallback_heap_total",
				Help: "times this shard's calendar core fell back to its binary heap", Unit: "fallbacks", Labels: labels},
				func() uint64 { return m.sorter.ShardStats(i).HeapFallbacks })
		}
	}
	creCounter := func(name, help string, get func(cre.Stats) uint64) {
		reg.CounterFunc(metrics.Desc{Name: name, Help: help, Unit: "records"}, func() uint64 {
			m.sorterMu.Lock()
			defer m.sorterMu.Unlock()
			return get(m.matcher.Stats())
		})
	}
	creCounter("brisk_cre_processed_total", "records passed through the causal matcher",
		func(s cre.Stats) uint64 { return s.Processed })
	creCounter("brisk_cre_matched_total", "consequence records whose reason was found",
		func(s cre.Stats) uint64 { return s.Matched })
	creCounter("brisk_cre_tachyons_total", "consequence records whose timestamps had to be overridden",
		func(s cre.Stats) uint64 { return s.Tachyons })
	creCounter("brisk_cre_held_timed_out_total", "held consequences released because their reason never arrived",
		func(s cre.Stats) uint64 { return s.HeldTimedOut })
	reg.GaugeFunc(metrics.Desc{Name: "brisk_cre_held_now",
		Help: "consequence records currently held awaiting their reason", Unit: "records"},
		func() float64 {
			m.sorterMu.Lock()
			defer m.sorterMu.Unlock()
			return float64(m.matcher.Stats().HeldNow)
		})
	reg.CounterFunc(metrics.Desc{Name: "brisk_ism_buffer_written_total",
		Help: "records published to the memory buffer sink", Unit: "records"},
		func() uint64 { return m.buffer.Written() })
	if m.cfg.Visual != nil {
		reg.CounterFunc(metrics.Desc{Name: "brisk_visual_lines_sent_total",
			Help: "PICL lines delivered to remote visual objects", Unit: "lines"},
			func() uint64 { sent, _ := m.cfg.Visual.Totals(); return sent })
		reg.CounterFunc(metrics.Desc{Name: "brisk_visual_lines_dropped_total",
			Help: "PICL lines dropped at slow visual consumers", Unit: "lines"},
			func() uint64 { _, dropped := m.cfg.Visual.Totals(); return dropped })
	}
	if m.cfg.TraceSampleEvery >= 0 {
		every := m.cfg.TraceSampleEvery
		if every == 0 {
			every = DefaultTraceSampleEvery
		}
		m.tracer = metrics.NewStageTracer(reg, "brisk_pipeline_stage_age_microseconds",
			"age of a sampled record (local clock minus record timestamp) on reaching each pipeline stage",
			every, "ism_ingest", "sorter_emit", "sink_deliver")
	}
}

// Metrics returns the registry holding the manager's series, for serving
// through an introspection endpoint.
func (m *Manager) Metrics() *metrics.Registry { return m.reg }

// Addr returns the bound listen address.
func (m *Manager) Addr() string { return m.ln.Addr().String() }

// Buffer returns the memory buffer consumer tools read.
func (m *Manager) Buffer() *shm.Buffer { return m.buffer }

// NewCursor returns a cursor over the sorted output stream. Records are
// stored framed exactly as the NOTICE encoders wrote them, prefixed with a
// 4-byte big-endian node id for attribution.
func (m *Manager) NewCursor() *shm.Cursor { return m.buffer.NewCursor() }

// DecodeBuffered decodes one memory-buffer entry produced by this manager.
func DecodeBuffered(p []byte) (rec record.Record, err error) {
	err = DecodeBufferedInto(&rec, p)
	return rec, err
}

// DecodeBufferedInto is DecodeBuffered into a record the caller owns,
// reusing its Fields capacity. The record does not alias p.
func DecodeBufferedInto(rec *record.Record, p []byte) error {
	if len(p) < 4 {
		return errors.New("ism: short buffer entry")
	}
	if _, err := record.DecodeInto(rec, p[4:]); err != nil {
		return err
	}
	rec.Node = int32(uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3]))
	return nil
}

// Serve runs the accept loop, merger, and synchronization master until
// Close. It always returns a non-nil error (net.ErrClosed after Close).
func (m *Manager) Serve() error {
	m.wg.Add(1)
	go m.mergeLoop()
	if m.cfg.SyncPeriod > 0 {
		m.wg.Add(1)
		go m.syncLoop()
	}
	if m.cfg.HeartbeatInterval > 0 {
		m.wg.Add(1)
		go m.heartbeatLoop()
	}
	for {
		raw, err := m.ln.Accept()
		if err != nil {
			return err
		}
		m.wgConns.Add(1)
		go func() {
			defer m.wgConns.Done()
			m.handleConn(raw)
		}()
	}
}

// Start launches Serve on its own goroutine.
func (m *Manager) Start() {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		if err := m.Serve(); err != nil && !errors.Is(err, net.ErrClosed) {
			m.logf("ism: serve: %v", err)
		}
	}()
}

func (m *Manager) handleConn(raw net.Conn) {
	defer raw.Close()
	wc := wire.NewConn(raw)
	msg, err := wc.Recv()
	if err != nil {
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok || hello.Version != wire.ProtocolVersion {
		m.logf("ism: bad hello from %v", raw.RemoteAddr())
		return
	}
	c := &conn{
		name:    hello.Name,
		wc:      wc,
		raw:     raw,
		replies: make(chan *wire.ProbeReply, 8),
	}
	c.lastRecv.Store(time.Now().UnixNano())

	var sess *session
	var evict *conn
	resumed := false
	m.mu.Lock()
	if hello.Session != 0 {
		if s, ok := m.sessions[hello.Session]; ok && hello.Resume {
			// Reattach: same node id, dedupe state intact. If the old
			// connection is still draining (half-open link the sensor gave
			// up on first), evict it — the session follows the newest link.
			sess = s
			resumed = true
		}
	}
	if sess == nil {
		m.nextNode++
		sess = &session{
			node: m.nextNode,
			work: make(chan pending, decodeQueueDepth),
			free: make(chan []byte, decodeQueueDepth+2),
			quit: make(chan struct{}),
		}
		if hello.Session != 0 {
			sess.id = hello.Session
			m.sessions[hello.Session] = sess
			labels := metrics.L(
				"node", strconv.FormatInt(int64(sess.node), 10),
				"session", strconv.FormatUint(sess.id, 16))
			sess.batchesC = m.reg.Counter(metrics.Desc{
				Name: "brisk_ism_session_batches_total",
				Help: "data batches accepted into the merger, per session",
				Unit: "batches", Labels: labels})
			sess.dedupedC = m.reg.Counter(metrics.Desc{
				Name: "brisk_ism_session_deduped_total",
				Help: "replayed batches dropped by the sequence filter, per session",
				Unit: "batches", Labels: labels})
		}
		m.wgWorkers.Add(1)
		go m.decodeLoop(sess)
	}
	c.node = sess.node
	c.sess = sess
	sess.mu.Lock()
	evict = sess.cur
	sess.cur = c
	sess.name = hello.Name
	lastSeq := sess.lastSeq
	sess.mu.Unlock()
	m.conns[c.node] = c
	m.attachedN.Store(int64(len(m.conns)))
	closing := m.closed.Load()
	m.mu.Unlock()
	if closing {
		// Raced with Close after it snapshotted the connection table: sever
		// ourselves so shutdown does not wait on this reader forever.
		c.gone.Store(true)
		raw.Close()
	}
	if evict != nil && evict != c {
		evict.gone.Store(true)
		evict.raw.Close()
	}
	if resumed {
		m.resumed.Inc()
	}
	defer func() {
		c.gone.Store(true)
		m.mu.Lock()
		// Resume may already have replaced this node's entry; only remove
		// what is still ours.
		if m.conns[c.node] == c {
			delete(m.conns, c.node)
			m.attachedN.Store(int64(len(m.conns)))
		}
		sess.mu.Lock()
		if sess.cur == c {
			sess.cur = nil
			sess.detachedAt = time.Now()
		}
		sess.mu.Unlock()
		if sess.id == 0 {
			// Sessionless sensors die with their connection; retire the
			// decode worker once it drains what we queued.
			sess.stop()
		} else if m.cfg.SessionRetention < 0 {
			delete(m.sessions, sess.id)
			m.unregisterSession(sess)
			sess.stop()
		}
		m.mu.Unlock()
	}()
	// The hello ack cannot be deferred — the sensor needs it to finish its
	// handshake — so a closed gate grants a trickle window of 1: enough to
	// keep the resume protocol moving without feeding the overload.
	helloWindow, open := m.grantWindow(sess)
	if !open {
		helloWindow = 1
	}
	if err := wc.Send(&wire.HelloAck{Node: c.node, Resumed: resumed, LastSeq: lastSeq,
		Window: helloWindow, Version: hello.Version}); err != nil {
		return
	}
	if resumed {
		m.logf("ism: node %d (%s) resumed session (last seq %d)", c.node, c.name, lastSeq)
	} else {
		m.logf("ism: node %d (%s) connected", c.node, c.name)
	}

	for {
		msg, err := wc.RecvReuse()
		if err != nil {
			if !m.closed.Load() && !c.gone.Load() {
				m.logf("ism: node %d: %v", c.node, err)
			}
			return
		}
		c.lastRecv.Store(time.Now().UnixNano())
		switch t := msg.(type) {
		case *wire.DataBatch:
			if !m.acceptBatch(wc, sess, t.Seq, t.Count, &t.Payload, false) {
				return
			}
		case *wire.RelayBatch:
			m.relayBatches.Inc()
			if !m.acceptBatch(wc, sess, t.Seq, t.Count, &t.Payload, true) {
				return
			}
		case *wire.ProbeReply:
			// The reused message is recycled on the next RecvReuse; the
			// sync master holds replies across frames, so copy.
			pr := *t
			select {
			case c.replies <- &pr:
			default: // stale reply, drop
			}
		case *wire.Pong:
			// Heartbeat answer; lastRecv above is all it needed to say.
		case *wire.Bye:
			return
		default:
			m.logf("ism: node %d: unexpected %v", c.node, msg.Type())
			return
		}
	}
}

// acceptBatch runs the shared ingest path for one DataBatch or RelayBatch
// frame: dedupe by session sequence, hand the payload to the session's
// decode worker (swapping a recycled buffer into the reused wire message
// via payload), and ack or defer. Returns false when the connection must
// be dropped.
func (m *Manager) acceptBatch(wc *wire.Conn, sess *session, seq uint64, count uint32, payload *[]byte, relay bool) bool {
	m.batches.Inc()
	m.bytesIn.Add(uint64(len(*payload)))
	sequenced := seq != 0 && sess.id != 0
	if sequenced {
		sess.acceptMu.Lock()
		sess.mu.Lock()
		dup := seq <= sess.lastSeq
		high := sess.lastSeq
		sess.mu.Unlock()
		if dup {
			sess.acceptMu.Unlock()
			// Replay of a batch merged before the link broke. Re-ack so
			// the sender can release it (or defer the re-ack like any
			// other when the gate is closed).
			m.deduped.Inc()
			if sess.dedupedC != nil {
				sess.dedupedC.Inc()
			}
			return m.ackOrDefer(wc, sess, high) == nil
		}
	}
	queued := m.enqueue(sess, pending{count: count, payload: *payload, relay: relay}, payload)
	if sequenced {
		if queued {
			sess.mu.Lock()
			sess.lastSeq = seq
			sess.mu.Unlock()
		}
		sess.acceptMu.Unlock()
	}
	if !queued {
		return false
	}
	if sess.batchesC != nil {
		sess.batchesC.Inc()
	}
	// Ack once the batch is queued: the worker owns it from here and
	// shutdown drains the queue, so an acked batch is never lost — under
	// overload it is either merged or represented by a loss-marker
	// record, never silently discarded. When the sorter is past its high
	// watermark the ack is deferred instead: the sender's credit runs dry
	// and it pauses until a later gate update releases the ack.
	if sequenced {
		if err := m.ackOrDefer(wc, sess, seq); err != nil {
			return false
		}
	}
	return true
}

// enqueue hands pb to the session's decode worker, blocking while its
// queue is full so backpressure reaches the sender through TCP. RecvReuse
// lets the reader give up the payload by swapping a recycled buffer into
// the reused wire message: the next frame decodes into that instead, so
// a steady stream allocates no payload storage at all. It reports false
// when the session or the manager stopped first.
func (m *Manager) enqueue(sess *session, pb pending, payload *[]byte) bool {
	select {
	case *payload = <-sess.free:
	default:
		*payload = nil
	}
	sess.inflight.Add(int64(pb.count))
	select {
	case sess.work <- pb:
		return true
	default:
	}
	m.queueStalls.Inc()
	select {
	case sess.work <- pb:
		return true
	case <-sess.quit:
		return false
	case <-m.done:
		return false
	}
}

// unregisterSession drops a dead session's labeled series so the registry
// does not accumulate one pair of counters per sensor lifetime forever.
func (m *Manager) unregisterSession(s *session) {
	if s.batchesC == nil {
		return
	}
	labels := metrics.L(
		"node", strconv.FormatInt(int64(s.node), 10),
		"session", strconv.FormatUint(s.id, 16))
	m.reg.Unregister("brisk_ism_session_batches_total", labels)
	m.reg.Unregister("brisk_ism_session_deduped_total", labels)
}

// grantWindow sizes a credit grant for one session: its fair share of the
// sorter headroom below the high watermark, minus what it already has in
// flight inside the manager. ok is false when the ack must be deferred
// (gate closed or the share is exhausted). With flow control disabled it
// returns (0, true): window 0 on the wire means unlimited credit.
func (m *Manager) grantWindow(s *session) (uint32, bool) {
	if !m.flowEnabled {
		return 0, true
	}
	if m.gateClosed.Load() {
		return 0, false
	}
	att := m.attachedN.Load()
	if att < 1 {
		att = 1
	}
	w := m.headroom.Load()/att - s.inflight.Load()
	if w <= 0 {
		return 0, false
	}
	if w > maxCreditWindow {
		w = maxCreditWindow
	}
	return uint32(w), true
}

// ackOrDefer sends a cumulative data ack carrying a credit window, or —
// when the overload gate withholds it — records the sequence for the
// gate to acknowledge once the sorter drains. A deferred ack is the
// protocol's halt signal: the manager never sends an explicit zero
// window, so a sensor out of credit is always woken by a later ack.
func (m *Manager) ackOrDefer(wc *wire.Conn, s *session, seq uint64) error {
	w, ok := m.grantWindow(s)
	if ok {
		if m.flowEnabled {
			m.creditWindowH.Observe(int64(w))
		}
		return wc.Send(&wire.DataAck{Seq: seq, Window: w})
	}
	if s.deferred.Swap(seq) == 0 {
		m.deferredPending.Add(1)
	}
	m.ackDeferredC.Inc()
	return nil
}

// updateGate runs the watermark hysteresis after a merge event. buffered
// is the aggregate sorter occupancy just sampled; the call itself runs
// outside the sorter locks so releasing deferred acks (which takes m.mu
// and writes to peer connections) never extends a merge critical
// section. gateMu serializes concurrent callers — every decode worker
// updates the gate after its pushes, not just the merger.
func (m *Manager) updateGate(buffered int, now int64) {
	if !m.flowEnabled {
		return
	}
	if m.cfg.GateBacklog != nil {
		// Records stalled downstream of this manager (a relay's uplink
		// backlog) occupy the same budget as records inside the sorter:
		// a parent withholding acks closes this gate too.
		buffered += m.cfg.GateBacklog()
	}
	m.gateMu.Lock()
	defer m.gateMu.Unlock()
	m.headroom.Store(int64(m.ackHigh - buffered))
	if m.gateClosed.Load() {
		if buffered <= m.ackLow {
			m.gateClosed.Store(false)
			m.overloadPause.Observe(now - m.gateClosedAt)
		}
	} else if buffered >= m.ackHigh {
		m.gateClosed.Store(true)
		m.gateClosedAt = now
	}
	if !m.gateClosed.Load() {
		m.releaseDeferred()
	}
}

// releaseDeferred acknowledges every deferred batch whose session can be
// granted credit again. Runs under gateMu; the scratch slice is reused
// so an idle manager's ticks stay allocation-free.
func (m *Manager) releaseDeferred() {
	if m.deferredPending.Load() == 0 {
		return
	}
	m.mu.Lock()
	conns := m.connScratch[:0]
	for _, c := range m.conns {
		conns = append(conns, c)
	}
	m.connScratch = conns
	m.mu.Unlock()
	for _, c := range conns {
		s := c.sess
		if s == nil || c.gone.Load() {
			continue
		}
		seq := s.deferred.Load()
		if seq == 0 {
			continue
		}
		w, ok := m.grantWindow(s)
		if !ok {
			continue
		}
		// The reader may have deferred a newer sequence meanwhile; the
		// failed swap keeps it pending for the next tick.
		if !s.deferred.CompareAndSwap(seq, 0) {
			continue
		}
		m.deferredPending.Add(-1)
		m.creditWindowH.Observe(int64(w))
		if err := c.wc.Send(&wire.DataAck{Seq: seq, Window: w}); err != nil {
			c.raw.Close() // the reader notices and cleans up
		}
	}
}

// harvestLosses converts the sorter's per-source drop accumulators into
// loss-marker records injected into the output stream, and reconciles the
// per-source drop counters. Runs with sorterMu held, after a merge event's
// pushes; the markers bypass the causal matcher (they carry no causal
// fields) and are exempt from the sink filter.
func (m *Manager) harvestLosses() {
	m.sorter.TakeLosses(func(src int32, count uint64, firstTS, lastTS int64) {
		rec := record.NewLossMarker(count, firstTS, lastTS)
		rec.Node = src
		m.lossMarkersC.Inc()
		m.markedLostC.Add(count)
		m.srcDropCounter(src).Add(count)
		m.collect(rec)
	})
}

// srcDropCounter returns the per-source labeled drop counter, creating it
// on the source's first drop. Runs with sorterMu held.
func (m *Manager) srcDropCounter(src int32) *metrics.Counter {
	if c, ok := m.srcDropC[src]; ok {
		return c
	}
	c := m.reg.Counter(metrics.Desc{
		Name:   "brisk_ols_dropped_full_total",
		Help:   "records dropped at the sorter's MaxBuffered or per-source quota bound",
		Unit:   "records",
		Labels: metrics.L("source", strconv.FormatInt(int64(src), 10)),
	})
	m.srcDropC[src] = c
	return c
}

// decodeLoop is one session's decode worker: it turns queued wire payloads
// into pooled record batches and feeds the sorter. One worker per session —
// not per connection — so N sessions decode in parallel while each source's
// batches stay FIFO, across reconnects included. The worker outlives its
// connections and stops either with its session or at shutdown (after the
// readers are gone), draining queued work first so acked batches survive.
func (m *Manager) decodeLoop(s *session) {
	defer m.wgWorkers.Done()
	m.workersLive.Add(1)
	defer m.workersLive.Add(-1)
	for {
		select {
		case pb := <-s.work:
			m.decodeOne(s, pb)
		case <-s.quit:
			m.drainWork(s)
			return
		case <-m.stopWorkers:
			m.drainWork(s)
			return
		}
	}
}

// drainWork decodes everything still queued; the readers have stopped, so
// the queue can only shrink.
func (m *Manager) drainWork(s *session) {
	for {
		select {
		case pb := <-s.work:
			m.decodeOne(s, pb)
		default:
			return
		}
	}
}

// decodeOne scans one batch into a pooled record slice — validated as
// strictly as a full decode, but each record stays the bytes it arrived
// as — and hands it to the sorter: with several shards it pushes and
// leaves extraction to the merger, with one it runs the whole merge event
// itself. The records borrow the payload buffer, so it goes back to the
// session's reader only once the push has copied them out; the batch
// comes back via the pool. A malformed batch severs the link — it was
// already acked, so the sensor must not replay the poison frame forever.
func (m *Manager) decodeOne(s *session, pb pending) {
	bp := record.GetBatch()
	var recs []record.Record
	var err error
	if pb.relay {
		recs, err = record.ScanNodeAppend((*bp)[:0], pb.payload)
	} else {
		recs, err = record.ScanAppend((*bp)[:0], pb.payload)
	}
	if err == nil && uint32(len(recs)) != pb.count {
		err = fmt.Errorf("batch declared %d records, contained %d", pb.count, len(recs))
	}
	*bp = recs
	if err != nil {
		m.release(s, bp, pb.payload, int(pb.count))
		m.logf("ism: node %d: bad batch: %v", s.node, err)
		s.severCurrent()
		return
	}
	m.received.Add(uint64(len(recs)))
	if m.tracer != nil && len(recs) > 0 && m.tracer.ShouldSample(stageIngest) {
		if r := &recs[0]; r.HasTS {
			m.tracer.Observe(stageIngest, m.clock.NowMicros()-r.TS)
		}
	}
	if m.shardN == 1 {
		m.mergeBatch(s, pb, bp)
		return
	}
	// Sharded mode: push straight into this source's sorter shard, so
	// decode workers for sources on different shards never serialize.
	// Extraction (and everything downstream of it) stays with the merger;
	// wake it when a sink batch's worth has built up so backlog drains at
	// ingest rate, not merge-tick rate.
	now := m.clock.NowMicros()
	m.pushBatch(s, pb, bp, now)
	m.updateGate(m.sorter.Buffered(), now)
	if m.sorter.Buffered() >= sinkBatchRecords {
		select {
		case m.extractNow <- struct{}{}:
			// Hand this processor to the merger just woken. On a
			// saturated box a worker with a full queue otherwise runs
			// out its time slice first, and what it pushes meanwhile
			// ages in the sorter unextracted.
			runtime.Gosched()
		default:
		}
	}
}

// pushBatch moves one scanned batch into the sorter and, the sorter
// having copied every record's bytes, releases what the batch borrowed.
// A relay batch's records carry their own origins in rec.Node.
func (m *Manager) pushBatch(s *session, pb pending, bp *[]record.Record, now int64) {
	if pb.relay {
		m.sorter.PushMixed(*bp, now)
	} else {
		m.sorter.PushBatch(s.node, *bp, now)
	}
	m.release(s, bp, pb.payload, len(*bp))
}

// release returns a batch to the pool and its payload buffer to the
// session's reader, and takes n records off the session's inflight count.
// Nothing may read the batch's records afterwards: the next frame lands
// in the payload they borrow.
func (m *Manager) release(s *session, bp *[]record.Record, payload []byte, n int) {
	record.PutBatch(bp)
	select {
	case s.free <- payload[:0]:
	default:
	}
	s.inflight.Add(-int64(n))
}

// mergeLoop runs the timed extraction passes and the final flush at
// shutdown.
func (m *Manager) mergeLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.MergeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.extractNow:
			m.extractTick()
		case <-ticker.C:
			m.extractTick()
		case <-m.done:
			// The readers and decode workers are gone (Close waits on them
			// before closing done), so nothing pushes any more: flush
			// everything still buffered.
			now := m.clock.NowMicros()
			m.sorterMu.Lock()
			m.emitNow = now
			m.sorter.Flush(m.sinkRecord)
			m.matcher.Flush(m.collect)
			m.harvestLosses()
			m.flushSinks(now)
			m.sorterMu.Unlock()
			m.buffer.Close()
			if m.cfg.PICL != nil {
				if err := m.cfg.PICL.Flush(); err != nil {
					m.logf("ism: picl flush: %v", err)
				}
			}
			return
		}
	}
}

// extractTick is one merger extraction pass: drain every aged record
// out of the sorter (merged across shards), tick the matcher, harvest
// losses, and flush the sinks. With one shard it runs on the merge
// interval (and moves only what aged without a push); with several it
// also runs whenever a decode worker signals a built-up backlog.
func (m *Manager) extractTick() {
	m.sorterMu.Lock()
	now := m.clock.NowMicros()
	m.emitNow = now
	m.windowT.Observe(m.sorter.TimeFrame())
	n := m.sorter.Extract(now, m.sinkRecord)
	m.matcher.Tick(now, m.collect)
	m.harvestLosses()
	m.flushSinks(now)
	buffered := m.sorter.Buffered()
	m.sorterMu.Unlock()
	m.updateGate(buffered, now)
	if n > 0 {
		// The same hand-off one stage on: the pass woke the buffer's
		// readers, and with decode workers signalling continuously the
		// merger would otherwise start its next pass before they run.
		runtime.Gosched()
	}
}

// mergeBatch is a single-shard merge event, run by the decode worker
// that scanned the batch: push it through the sorter and flush what
// emerges to the sinks as a unit — one clock read, one buffer lock per
// batch instead of per record. All of it holds sorterMu, because the
// records Extract emits borrow the shard's slabs until flushSinks has
// written them, and a push meanwhile could overwrite those bytes. The
// clock is read inside the lock, so the sorter sees manager time advance
// monotonically from one merge event to the next, whichever goroutine
// runs it.
func (m *Manager) mergeBatch(s *session, pb pending, bp *[]record.Record) {
	m.sorterMu.Lock()
	now := m.clock.NowMicros()
	m.pushBatch(s, pb, bp, now)
	m.emitNow = now
	m.sorter.Extract(now, m.sinkRecord)
	m.harvestLosses()
	m.flushSinks(now)
	buffered := m.sorter.Buffered()
	m.sorterMu.Unlock()
	m.updateGate(buffered, now)
}

// sinkRecord feeds one sorted record through the CRE matcher toward the
// sinks. Runs with sorterMu held.
func (m *Manager) sinkRecord(rec record.Record) {
	if m.tracer != nil && rec.HasTS && m.tracer.ShouldSample(stageSorterEmit) {
		m.tracer.Observe(stageSorterEmit, m.emitNow-rec.TS)
	}
	m.matcher.Process(rec, m.emitNow, m.collect)
}

// collect accumulates one fully-processed record for the next sink flush.
// The record still borrows sorter slab or merge staging bytes; they stay
// valid because nothing is pushed into a single-shard sorter (every push
// there holds sorterMu), and no new merge pass staged, before flushSinks
// runs.
func (m *Manager) collect(rec record.Record) {
	m.out = append(m.out, rec)
	if len(m.out) >= sinkBatchRecords {
		m.flushSinks(m.emitNow)
	}
}

// flushSinks delivers every collected record to the sinks in one pass:
// node prefix plus the record's own bytes (its timestamp patched if the
// matcher repaired it) into recycled per-record buffers, published to the
// memory buffer under a single lock, and PICL/visual lines streamed. A
// record's field values are decoded only when something here reads them
// — a user filter, the PICL log, an attached visual object — and then
// once, into fieldBuf. Runs with sorterMu held.
func (m *Manager) flushSinks(now int64) {
	if len(m.out) == 0 {
		return
	}
	visual := m.cfg.Visual != nil && m.cfg.Visual.Len() > 0
	needFields := m.cfg.Filter != nil || m.cfg.PICL != nil || visual
	n := 0
	for i := range m.out {
		rec := &m.out[i]
		if needFields {
			fields, err := rec.DecodeFields(&m.fieldBuf)
			if err != nil {
				m.logf("ism: decode for sinks: %v", err)
			}
			rec.Fields = fields
		}
		// Loss markers are exempt from the filter: the whole point of the
		// marker is that no consumer can miss the gap.
		if m.cfg.Filter != nil && rec.Event != record.LossEvent && !m.cfg.Filter(rec) {
			m.filtered.Inc()
			continue
		}
		// Memory buffer: node prefix + the NOTICE binary structure.
		for n >= len(m.sinkBufs) {
			m.sinkBufs = append(m.sinkBufs, nil)
		}
		buf := append(m.sinkBufs[n][:0],
			byte(uint32(rec.Node)>>24), byte(uint32(rec.Node)>>16),
			byte(uint32(rec.Node)>>8), byte(uint32(rec.Node)))
		buf, err := rec.Append(buf)
		if err != nil {
			// Unreachable for anything the sorter emitted (it holds only
			// bytes it could encode); counted as received-not-emitted if a
			// synthesized record ever fails.
			m.logf("ism: encode for buffer: %v", err)
			continue
		}
		m.sinkBufs[n] = buf
		n++
		m.emitted.Inc()
		if m.cfg.Forward != nil {
			m.cfg.Forward(rec)
		}
		if rec.HasTS {
			age := now - rec.TS
			m.emitLat.Observe(age)
			if m.tracer != nil && m.tracer.ShouldSample(stageSinkDeliver) {
				m.tracer.Observe(stageSinkDeliver, age)
			}
		}
		if m.cfg.Tap != nil {
			m.cfg.Tap.Publish(rec, buf, now)
		}
		if m.cfg.PICL != nil {
			if err := m.cfg.PICL.WriteRecord(rec); err != nil {
				m.logf("ism: picl write: %v", err)
			}
		}
		if visual {
			m.visualBuf.buf = m.visualBuf.buf[:0]
			if err := m.visualPICL.WriteRecord(rec); err == nil {
				if err := m.visualPICL.Flush(); err == nil {
					line := string(m.visualBuf.buf)
					if l := len(line); l > 0 && line[l-1] == '\n' {
						line = line[:l-1]
					}
					m.cfg.Visual.Dispatch(line)
				}
			}
		}
	}
	m.buffer.PublishBatch(m.sinkBufs[:n])
	if m.cfg.Tap != nil {
		m.cfg.Tap.EndFlush()
	}
	m.sinkBatchH.Observe(int64(len(m.out)))
	m.out = m.out[:0]
}

// heartbeatLoop pings every attached sensor each interval and severs
// peers that have been silent for heartbeatMisses intervals — the
// half-open links a stalled network leaves behind. It also expires
// detached sessions past the retention window.
func (m *Manager) heartbeatLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-ticker.C:
		}
		deadline := time.Now().Add(-heartbeatMisses * m.cfg.HeartbeatInterval).UnixNano()
		m.mu.Lock()
		conns := make([]*conn, 0, len(m.conns))
		for _, c := range m.conns {
			conns = append(conns, c)
		}
		if m.cfg.SessionRetention > 0 {
			cutoff := time.Now().Add(-m.cfg.SessionRetention)
			for id, s := range m.sessions {
				s.mu.Lock()
				expired := s.cur == nil && !s.detachedAt.IsZero() && s.detachedAt.Before(cutoff)
				s.mu.Unlock()
				if expired {
					delete(m.sessions, id)
					m.unregisterSession(s)
					s.stop()
					m.logf("ism: session of node %d expired", s.node)
				}
			}
		}
		m.mu.Unlock()
		for _, c := range conns {
			if c.gone.Load() {
				continue
			}
			if c.lastRecv.Load() < deadline {
				m.deadPeers.Inc()
				m.logf("ism: node %d (%s) missed %d heartbeats, disconnecting",
					c.node, c.name, heartbeatMisses)
				c.raw.Close() // handleConn's Recv fails and cleans up
				continue
			}
			if err := c.wc.Send(&wire.Ping{Seq: c.pingSeq.Add(1)}); err != nil {
				c.raw.Close()
			}
		}
	}
}

// connSlave adapts an attached external sensor to clocksync.SlaveConn.
type connSlave struct {
	m *Manager
	c *conn
}

// Exchange implements clocksync.SlaveConn over the wire protocol.
func (s *connSlave) Exchange() (int64, error) {
	if s.c.gone.Load() {
		return 0, errors.New("ism: slave disconnected")
	}
	seq := s.c.seq.Add(1)
	if err := s.c.wc.Send(&wire.Probe{Seq: seq, MasterSend: s.m.clock.NowMicros()}); err != nil {
		return 0, err
	}
	deadline := time.NewTimer(s.m.cfg.ProbeTimeout)
	defer deadline.Stop()
	for {
		select {
		case r := <-s.c.replies:
			if r.Seq != seq {
				continue // stale
			}
			return r.SlaveTime, nil
		case <-deadline.C:
			return 0, errors.New("ism: probe timeout")
		case <-s.m.done:
			return 0, errors.New("ism: shutting down")
		}
	}
}

// Adjust implements clocksync.SlaveConn. RatePPB −1 leaves the slave's
// extrapolation rate untouched: under the fixed-cadence master slaves
// never extrapolate, exactly as before rates existed.
func (s *connSlave) Adjust(delta int64) error {
	return s.c.wc.Send(&wire.Adjust{DeltaMicros: delta, RatePPB: -1})
}

// AdjustRate implements clocksync.RateConn: a zero-step adjustment whose
// rate field steers the slave's correction growth between probes.
func (s *connSlave) AdjustRate(ppm float64) error {
	return s.c.wc.Send(&wire.Adjust{RatePPB: int64(ppm * 1000)})
}

// syncLoop runs periodic synchronization rounds, plus the immediate extra
// rounds requested by the CRE matcher after a tachyon.
func (m *Manager) syncLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.SyncPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			m.runSyncRound()
		case <-m.syncNow:
			m.runSyncRound()
		case <-m.done:
			return
		}
	}
}

// runSyncRound builds the slave set from the currently attached sensors
// and performs one round. The master persists across rounds: under
// model-based scheduling (Sync.UncertaintyBound > 0) each slave's drift +
// offset estimator is keyed by node id, so it survives both round
// boundaries and reconnections, and only the slaves whose model
// uncertainty demands it are actually probed.
func (m *Manager) runSyncRound() {
	m.mu.Lock()
	slaves := make([]clocksync.SlaveConn, 0, len(m.conns))
	keys := make([]uint64, 0, len(m.conns))
	nodes := make([]int32, 0, len(m.conns))
	for _, c := range m.conns {
		slaves = append(slaves, &connSlave{m: m, c: c})
		keys = append(keys, uint64(uint32(c.node)))
		nodes = append(nodes, c.node)
	}
	m.mu.Unlock()
	if len(slaves) == 0 {
		return
	}
	if m.syncMaster == nil {
		m.syncMaster = clocksync.NewMaster(m.clock, m.cfg.Sync, nil)
	}
	m.syncMaster.SetSlaves(slaves, keys)
	rep, err := m.syncMaster.Round()
	m.syncProbes.Add(uint64(rep.Probes))
	m.publishSyncModel(nodes, rep)
	if err != nil {
		m.logf("ism: sync round: %v", err)
		return
	}
	if rep.Failed > 0 {
		m.logf("ism: sync round %d: %d slave(s) unreachable", rep.Round, rep.Failed)
		m.syncFailed.Add(uint64(rep.Failed))
	}
	if rep.Fallbacks > 0 {
		m.logf("ism: sync round %d: %d model divergence(s), falling back to full rounds", rep.Round, rep.Fallbacks)
		m.syncFallbacks.Add(uint64(rep.Fallbacks))
	}
	m.syncSkew.Observe(int64(rep.Corrections.AvgRelSkew))
	m.syncRounds.Inc()
}

// publishSyncModel exports the round's per-slave model state: one
// brisk_sync_drift_ppm gauge per node (milli-ppm resolution) and the
// fleet-wide worst predicted uncertainty. Gauges of nodes that left the
// fleet are unregistered so a long-lived manager with churning node ids
// does not accumulate series without bound.
func (m *Manager) publishSyncModel(nodes []int32, rep clocksync.RoundReport) {
	if len(m.driftGauges) > len(nodes) {
		current := make(map[int32]bool, len(nodes))
		for _, node := range nodes {
			current[node] = true
		}
		for node := range m.driftGauges {
			if !current[node] {
				m.reg.Unregister("brisk_sync_drift_ppm",
					metrics.L("slave", strconv.FormatInt(int64(node), 10)))
				delete(m.driftGauges, node)
			}
		}
	}
	var maxU float64
	haveU := false
	for i, node := range nodes {
		if i < len(rep.UncertaintyUS) && !math.IsNaN(rep.UncertaintyUS[i]) {
			if !haveU || rep.UncertaintyUS[i] > maxU {
				maxU = rep.UncertaintyUS[i]
				haveU = true
			}
		}
		if i >= len(rep.DriftPPM) || math.IsNaN(rep.DriftPPM[i]) {
			continue
		}
		v, ok := m.driftGauges[node]
		if !ok {
			v = new(atomic.Uint64)
			vv := v
			m.reg.GaugeFunc(metrics.Desc{Name: "brisk_sync_drift_ppm",
				Help:   "estimated residual clock drift per slave",
				Unit:   "ppm",
				Labels: metrics.L("slave", strconv.FormatInt(int64(node), 10))},
				func() float64 { return math.Float64frombits(vv.Load()) })
			m.driftGauges[node] = v
		}
		v.Store(math.Float64bits(rep.DriftPPM[i]))
	}
	if haveU {
		m.syncUncertainty.Set(int64(maxU))
	}
}

// SyncRound triggers one synchronization round immediately (used by tests
// and tools).
func (m *Manager) SyncRound() {
	select {
	case m.syncNow <- struct{}{}:
	default:
	}
}

// Stats returns a snapshot of the manager counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	connected := len(m.conns)
	sessions := len(m.sessions)
	m.mu.Unlock()
	m.sorterMu.Lock()
	cs := m.matcher.Stats()
	m.sorterMu.Unlock()
	ss := m.sorter.Stats()
	buffered := m.sorter.Buffered()
	lat := m.emitLat.Snapshot()
	return Stats{
		Connected:             connected,
		Received:              m.received.Value(),
		Emitted:               m.emitted.Value(),
		Batches:               m.batches.Value(),
		RelayBatches:          m.relayBatches.Value(),
		BytesIn:               m.bytesIn.Value(),
		Sorter:                ss,
		CRE:                   cs,
		SyncRounds:            m.syncRounds.Value(),
		SyncProbes:            m.syncProbes.Value(),
		SyncFallbacks:         m.syncFallbacks.Value(),
		TachyonSyncs:          m.tachyonSyncs.Value(),
		Filtered:              m.filtered.Value(),
		ResumedSessions:       m.resumed.Value(),
		DedupedBatches:        m.deduped.Value(),
		DeadPeers:             m.deadPeers.Value(),
		AckDeferred:           m.ackDeferredC.Value(),
		LossMarkers:           m.lossMarkersC.Value(),
		MarkedLost:            m.markedLostC.Value(),
		CreditGateClosed:      m.gateClosed.Load(),
		SorterBuffered:        buffered,
		SorterShards:          m.shardN,
		Sessions:              sessions,
		EmitLatencyMeanMicros: lat.Mean(),
		EmitLatencyP99Micros:  lat.Quantile(0.99),
	}
}

// Close shuts the manager down in pipeline order: stop accepting, sever
// the sensors and wait for their readers, retire the decode workers (they
// drain their queues first, merging as they go), then close done so the
// merger flushes the sorter and sinks. Every batch that was acked before
// Close is delivered.
func (m *Manager) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	err := m.ln.Close()
	m.mu.Lock()
	for _, c := range m.conns {
		c.gone.Store(true)
		c.raw.Close()
	}
	m.mu.Unlock()
	m.wgConns.Wait()
	close(m.stopWorkers)
	m.wgWorkers.Wait()
	close(m.done)
	m.wg.Wait()
	return err
}
