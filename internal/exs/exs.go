// Package exs implements the BRISK external sensor: the per-node process
// that completes a local instrumentation server (LIS).
//
// The external sensor runs beside the instrumented applications (in the
// paper, as a separate process that "may be assigned a lower priority"),
// reads the instrumentation data the internal sensors wrote into the
// node's shared-memory rings, adds the clock-correction value it maintains
// to each embedded timestamp, packages records in the XDR transfer
// protocol, and ships them to the manager over a TCP stream socket.
//
// Two knobs trade throughput against latency, BRISK's central tension:
// BatchBytes (bigger batches amortize transfer cost) and FlushInterval
// (how long a partial batch may wait — the source of the paper's
// worst-case latency bound from waiting select calls).
//
// The external sensor is also the clock-synchronization slave: it answers
// the manager's probes with its corrected clock and applies adjustment
// messages to the correction value.
//
// # Fault tolerance
//
// The manager link is treated as lossy, and surviving it is delegated to
// the shared sender in internal/uplink: every shipped batch is sequence-
// numbered and retained in a bounded queue until the manager acknowledges
// it; a broken connection is redialed with exponential backoff plus
// jitter while the sensor keeps draining the shm rings into that queue
// (so the application never blocks); on resume the acknowledged prefix is
// released and the remainder replayed, the manager deduping anything that
// was in flight. If the queue overflows, the oldest batches are dropped
// and counted (Stats.Dropped); if the retry cap is exhausted the sensor
// degrades to drain-and-discard (Stats.LostOffline) so the node never
// wedges. This package keeps what is the sensor's own: ring collection,
// timestamp patching, batching, flush widening under withheld credit, and
// the loss markers that testify to every drop it observed.
package exs

import (
	"context"
	"errors"
	"sync"
	"time"

	"brisk/internal/metrics"
	"brisk/internal/record"
	"brisk/internal/shm"
	"brisk/internal/uplink"
	"brisk/internal/vclock"
	"brisk/internal/wire"
)

// Pipeline trace stages observed by the external sensor (see
// metrics.StageTracer): a record's age when it leaves the shared-memory
// ring, and again when its batch is written to the wire.
const (
	stageRingDrain = iota
	stageWireSend
)

// Config configures an external sensor.
type Config struct {
	// ManagerAddr is the ISM's TCP address.
	ManagerAddr string
	// NodeName identifies this node in the HELLO exchange.
	NodeName string
	// Region is the node's shared-memory region holding sensor rings.
	Region *shm.Region
	// Clock is the node clock with its correction layer. Sensors write
	// raw timestamps from the same underlying clock; the external sensor
	// patches the correction in at ship time. nil means a fresh
	// Corrected over the system clock.
	Clock *vclock.Corrected
	// BatchBytes triggers a send once a batch reaches this size.
	// Default 16384.
	BatchBytes int
	// FlushInterval bounds how long a non-empty partial batch waits.
	// Default 5 ms. While the manager withholds credit each stalled flush
	// doubles the effective interval, up to maxFlushWiden × FlushInterval.
	FlushInterval time.Duration
	// PollInterval is the ring-scan period while idle. Default 500 µs.
	PollInterval time.Duration
	// ReconnectBase is the first backoff delay after a lost manager
	// connection; it doubles per failed attempt. Default 50 ms.
	ReconnectBase time.Duration
	// ReconnectMax caps the exponential backoff (each delay carries ±20%
	// jitter). Default 5 s.
	ReconnectMax time.Duration
	// ReconnectRand, when non-nil, is the [0,1) source the reconnect
	// jitter is drawn from, called only on the reconnector goroutine.
	// Injectable so backoff schedules are deterministic under test; nil
	// uses a private PRNG seeded from the session id and the wall clock.
	ReconnectRand func() float64
	// MaxReconnectAttempts caps consecutive failed reconnect attempts
	// per outage before the sensor gives up and degrades to
	// drain-and-discard. 0 means 20; negative means retry forever.
	MaxReconnectAttempts int
	// SpillBytes bounds the in-memory retransmit/spill queue holding
	// unacknowledged and offline batches. When exceeded, the oldest
	// batches are dropped and their records counted in Stats.Dropped.
	// Default 4 MiB.
	SpillBytes int
	// DialTimeout bounds one connection attempt including the HELLO
	// exchange. Default 5 s.
	DialTimeout time.Duration
	// Metrics is the registry the sensor's counters live in; nil means a
	// fresh private registry (see EXS.Metrics).
	Metrics *metrics.Registry
	// TraceSampleEvery is the pipeline-trace sampling period: every Nth
	// drained batch has one record's stage ages recorded. 0 means
	// DefaultTraceSampleEvery; negative disables tracing.
	TraceSampleEvery int
	// Logf logs diagnostics; nil means log.Printf.
	Logf func(format string, args ...any)
}

// DefaultTraceSampleEvery is the pipeline-trace sampling period used when
// Config.TraceSampleEvery is zero.
const DefaultTraceSampleEvery = 64

// maxFlushWiden bounds how far a credit-stalled sensor widens its
// effective flush interval, as a multiple of FlushInterval. Larger
// batches shipped less often are exactly what an overloaded manager
// wants.
const maxFlushWiden = 8

// Stats is a snapshot of external-sensor counters.
type Stats struct {
	// Node is the manager-assigned node id (0 before HELLO completes).
	Node int32
	// Session is the node's resume-session identifier.
	Session uint64
	// Online reports whether the manager connection is currently up.
	Online bool
	// Sent counts records shipped to the manager (first transmission;
	// replays after a resume are not double-counted).
	Sent uint64
	// Batches counts data-batch frames written, including retransmits.
	Batches uint64
	// BytesOut counts wire payload bytes sent across all connections.
	BytesOut uint64
	// RingDropped counts records lost at the sensor rings (application
	// outran the drain).
	RingDropped uint64
	// Probes counts clock-synchronization probes answered.
	Probes uint64
	// Adjusts counts clock adjustments applied.
	Adjusts uint64
	// Correction is the current clock-correction value (µs).
	Correction int64
	// Reconnects counts successful reconnections to the manager.
	Reconnects uint64
	// Retransmits counts batches replayed after a resume.
	Retransmits uint64
	// Spilled counts records buffered while the manager was unreachable.
	Spilled uint64
	// Dropped counts records evicted from the bounded spill queue
	// (drop-oldest) or discarded with it at shutdown.
	Dropped uint64
	// QueuedBytes is the current size of the unacknowledged/spill queue.
	QueuedBytes int
	// LostOffline counts records discarded after the sensor gave up
	// reconnecting (the drain keeps running so the application never
	// blocks).
	LostOffline uint64
	// CreditWindow is the manager's latest credit grant (records in
	// flight allowed); -1 when the manager has flow control disabled.
	CreditWindow int64
	// CreditStalls counts pump passes that paused on exhausted credit.
	CreditStalls uint64
	// LossMarkers counts loss-marker records shipped to account for
	// records this sensor dropped; MarkedLost is the record total those
	// markers represent.
	LossMarkers uint64
	MarkedLost  uint64
}

// EXS is one running external sensor. Create with Dial or DialContext,
// stop with Close.
type EXS struct {
	cfg   Config
	clock *vclock.Corrected
	up    *uplink.Sender

	// Counters live in the metrics registry; the Stats snapshot is a
	// typed view over them. link holds the series the sender advances.
	reg         *metrics.Registry
	tracer      *metrics.StageTracer // nil when tracing is disabled
	link        uplink.Counters
	spilled     *metrics.Counter
	lostOffline *metrics.Counter
	lossMarkers *metrics.Counter
	markedLost  *metrics.Counter
	drainPauseH *metrics.Histogram

	mergeTS []int64 // per-ring head-TS scratch; drain-goroutine only

	done     chan struct{}
	wgDrain  sync.WaitGroup
	flushNow chan struct{}
}

// Dial connects to the manager, performs the HELLO exchange, and starts
// the drain, control and reconnect loops.
func Dial(cfg Config) (*EXS, error) {
	return DialContext(context.Background(), cfg)
}

// DialContext is Dial with a lifetime context: canceling ctx aborts any
// in-flight dial or backoff wait and permanently stops reconnection (the
// drain keeps discarding so the application never blocks); call Close to
// release the remaining resources.
func DialContext(ctx context.Context, cfg Config) (*EXS, error) {
	if cfg.Region == nil {
		return nil, errors.New("exs: Config.Region is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewCorrected(vclock.System{})
	}
	if cfg.BatchBytes <= 0 {
		cfg.BatchBytes = 16384
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 5 * time.Millisecond
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Microsecond
	}
	if cfg.SpillBytes <= 0 {
		cfg.SpillBytes = 4 << 20
	}
	e := &EXS{
		cfg:      cfg,
		clock:    cfg.Clock,
		done:     make(chan struct{}),
		flushNow: make(chan struct{}, 1),
	}
	e.registerMetrics(cfg.Metrics)
	ucfg := uplink.Config{
		Addr:                 cfg.ManagerAddr,
		Name:                 cfg.NodeName,
		Tag:                  "exs",
		Peer:                 "manager",
		Frame:                wire.MsgData,
		Clock:                cfg.Clock,
		QueueBytes:           cfg.SpillBytes,
		DialTimeout:          cfg.DialTimeout,
		ReconnectBase:        cfg.ReconnectBase,
		ReconnectMax:         cfg.ReconnectMax,
		MaxReconnectAttempts: cfg.MaxReconnectAttempts,
		ReconnectRand:        cfg.ReconnectRand,
		Logf:                 cfg.Logf,
		Counters:             e.link,
	}
	if e.tracer != nil {
		ucfg.OnFirstSend = e.traceWireSend
	}
	up, err := uplink.Dial(ctx, ucfg)
	if err != nil {
		return nil, err
	}
	e.up = up
	e.registerLinkGauges()
	e.wgDrain.Add(1)
	go e.drainLoop()
	return e, nil
}

// registerMetrics creates (or adopts) the registry and binds the series
// that need no live link: the event-path counters (the sender advances
// the ones in e.link), func-backed views of the rings and the clock, and
// the pipeline stage tracer.
func (e *EXS) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	e.reg = reg
	e.link.Sent = reg.Counter(metrics.Desc{Name: "brisk_exs_records_sent_total",
		Help: "records shipped to the manager (first transmission only)", Unit: "records"})
	e.link.Batches = reg.Counter(metrics.Desc{Name: "brisk_exs_batches_sent_total",
		Help: "data-batch frames written, including retransmits", Unit: "batches"})
	e.link.Probes = reg.Counter(metrics.Desc{Name: "brisk_exs_clock_probes_total",
		Help: "clock-synchronization probes answered", Unit: "probes"})
	e.link.Adjusts = reg.Counter(metrics.Desc{Name: "brisk_exs_clock_adjusts_total",
		Help: "clock adjustments applied", Unit: "adjustments"})
	e.link.Reconnects = reg.Counter(metrics.Desc{Name: "brisk_exs_reconnects_total",
		Help: "successful reconnections to the manager", Unit: "connections"})
	e.link.Retransmits = reg.Counter(metrics.Desc{Name: "brisk_exs_retransmit_batches_total",
		Help: "batches replayed after a session resume", Unit: "batches"})
	e.spilled = reg.Counter(metrics.Desc{Name: "brisk_exs_spilled_records_total",
		Help: "records buffered while the manager was unreachable", Unit: "records"})
	e.link.Dropped = reg.Counter(metrics.Desc{Name: "brisk_exs_dropped_records_total",
		Help: "records evicted from the bounded spill queue or discarded at shutdown", Unit: "records"})
	e.lostOffline = reg.Counter(metrics.Desc{Name: "brisk_exs_lost_offline_records_total",
		Help: "records discarded after reconnection was abandoned", Unit: "records"})
	e.link.CreditStalls = reg.Counter(metrics.Desc{Name: "brisk_exs_credit_stalls_total",
		Help: "pump passes that paused because the manager's credit window was exhausted", Unit: "stalls"})
	e.lossMarkers = reg.Counter(metrics.Desc{Name: "brisk_exs_loss_markers_total",
		Help: "loss-marker records shipped to account for sensor-side drops", Unit: "markers"})
	e.markedLost = reg.Counter(metrics.Desc{Name: "brisk_exs_marked_lost_records_total",
		Help: "records represented by sensor-shipped loss markers", Unit: "records"})
	e.drainPauseH = reg.Histogram(metrics.Desc{Name: "brisk_exs_drain_pause_microseconds",
		Help: "how long ring collection stayed paused per credit-exhaustion episode",
		Unit: "microseconds"})
	reg.CounterFunc(metrics.Desc{Name: "brisk_exs_ring_records_written_total",
		Help: "records accepted by the node's sensor rings", Unit: "records"},
		func() uint64 { written, _ := e.cfg.Region.Stats(); return written })
	reg.CounterFunc(metrics.Desc{Name: "brisk_exs_ring_records_dropped_total",
		Help: "records dropped at the sensor rings (application outran the drain)", Unit: "records"},
		func() uint64 { _, dropped := e.cfg.Region.Stats(); return dropped })
	reg.GaugeFunc(metrics.Desc{Name: "brisk_exs_clock_correction_microseconds",
		Help: "current clock-correction value", Unit: "microseconds"},
		func() float64 { return float64(e.clock.Correction()) })
	if e.cfg.TraceSampleEvery >= 0 {
		every := e.cfg.TraceSampleEvery
		if every == 0 {
			every = DefaultTraceSampleEvery
		}
		e.tracer = metrics.NewStageTracer(reg, "brisk_pipeline_stage_age_microseconds",
			"age of a sampled record (local clock minus record timestamp) on reaching each pipeline stage",
			every, "ring_drain", "wire_send")
	}
}

// registerLinkGauges binds the func-backed series that read the sender,
// once there is one.
func (e *EXS) registerLinkGauges() {
	e.reg.GaugeFunc(metrics.Desc{Name: "brisk_exs_credit_window",
		Help: "the manager's latest credit grant (records in flight allowed); -1 when flow control is disabled",
		Unit: "records"},
		func() float64 { return float64(e.up.CreditWindow()) })
	e.reg.CounterFunc(metrics.Desc{Name: "brisk_exs_wire_bytes_out_total",
		Help: "wire frame bytes written across all manager connections", Unit: "bytes"},
		e.up.BytesOut)
	e.reg.GaugeFunc(metrics.Desc{Name: "brisk_exs_online",
		Help: "1 while the manager connection is up, else 0"},
		func() float64 {
			if e.up.Online() {
				return 1
			}
			return 0
		})
	e.reg.GaugeFunc(metrics.Desc{Name: "brisk_exs_queue_bytes",
		Help: "current bytes held in the unacknowledged/spill queue", Unit: "bytes"},
		func() float64 { return float64(e.up.QueuedBytes()) })
}

// Metrics returns the registry holding the sensor's counters, for serving
// through an introspection endpoint or merging into snapshots.
func (e *EXS) Metrics() *metrics.Registry { return e.reg }

// Node returns the manager-assigned node id.
func (e *EXS) Node() int32 { return e.up.Node() }

// Session returns the node's resume-session identifier.
func (e *EXS) Session() uint64 { return e.up.Session() }

// Clock returns the node's corrected clock.
func (e *EXS) Clock() *vclock.Corrected { return e.clock }

// Flush asks the drain loop to ship any buffered records immediately.
func (e *EXS) Flush() {
	select {
	case e.flushNow <- struct{}{}:
	default:
	}
}

// traceWireSend is the sender's first-send hook: it samples the age of a
// batch's first record as it reaches the wire.
func (e *EXS) traceWireSend(payload []byte) {
	if e.tracer.ShouldSample(stageWireSend) {
		if ts, ok := peekFirstTS(payload); ok {
			e.tracer.Observe(stageWireSend, e.clock.NowMicros()-ts)
		}
	}
}

// drainLoop scans the sensor rings, patches timestamps with the current
// correction value, and ships batches under the batching/latency policy.
//
// Overload reaction: while the manager withholds credit (the pump is
// stalled) the loop widens its effective flush interval — bigger batches
// shipped less often are exactly what an overloaded manager wants — and,
// once the spill queue is half full, stops collecting from the rings
// entirely so new records are dropped at the ring (counted, cheap,
// oldest-first) instead of growing the queue. Every drop the sensor
// observes (ring overruns, spill evictions) is folded into a loss-marker
// record carried by the next shipped batch, so the merged stream always
// testifies to what is missing.
func (e *EXS) drainLoop() {
	defer e.wgDrain.Done()
	batch := make([]byte, 0, e.cfg.BatchBytes*2)
	count := 0
	var oldestAt time.Time // wall time the current partial batch started
	effFlush := e.cfg.FlushInterval
	maxFlush := maxFlushWiden * e.cfg.FlushInterval
	var pauseStart time.Time // nonzero while ring collection is paused
	_, lastRingDropped := e.cfg.Region.Stats()

	// noteRingDrops folds newly observed ring drops into the pending-loss
	// accumulator. The ring does not record dropped timestamps, so the
	// covered range collapses to "now" on the corrected clock.
	noteRingDrops := func() {
		if _, rd := e.cfg.Region.Stats(); rd > lastRingDropped {
			now := e.clock.NowMicros()
			e.up.AddLoss(rd-lastRingDropped, now, now)
			lastRingDropped = rd
		}
	}

	ship := func() {
		if e.up.Dead() {
			// No link will ever carry a marker again; the drops stay
			// visible through the Dropped/RingDropped counters.
			e.up.TakeLoss()
			if count > 0 {
				e.lostOffline.Add(uint64(count))
				batch = batch[:0]
				count = 0
			}
			return
		}
		if n, f, l := e.up.TakeLoss(); n > 0 {
			m := record.NewLossMarker(n, f, l)
			if nb, err := m.Append(batch); err == nil {
				batch = nb
				count++
				e.lossMarkers.Add(1)
				e.markedLost.Add(n)
			} else {
				e.up.AddLoss(n, f, l) // keep it for the next batch
			}
		}
		if count == 0 {
			return
		}
		e.up.Enqueue(batch, count)
		if !e.up.Online() {
			e.spilled.Add(uint64(count))
		}
		batch = batch[:0]
		count = 0
		e.up.Pump()
	}

	ticker := time.NewTicker(e.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.done:
			noteRingDrops()
			for e.collect(&batch, &count) > 0 || count > 0 || e.up.HasLoss() {
				ship()
			}
			return
		case <-e.flushNow:
			e.collect(&batch, &count)
			ship()
			oldestAt = time.Time{}
		case <-ticker.C:
			noteRingDrops()
			stalled := e.up.Stalled()
			if !stalled {
				effFlush = e.cfg.FlushInterval
			}
			if stalled && e.up.QueuedBytes() >= e.cfg.SpillBytes/2 {
				// Further collection would only evict older queued batches;
				// prefer counted drops at the ring until credit returns.
				if pauseStart.IsZero() {
					pauseStart = time.Now()
				}
				continue
			}
			if !pauseStart.IsZero() {
				e.drainPauseH.Observe(time.Since(pauseStart).Microseconds())
				pauseStart = time.Time{}
			}
			// Drain in batch-sized chunks until the rings empty; the
			// bound on passes keeps control-channel latency sane under
			// sustained overload.
			for pass := 0; pass < 64; pass++ {
				got := e.collect(&batch, &count)
				if count > 0 && oldestAt.IsZero() {
					oldestAt = time.Now()
				}
				if len(batch) >= e.cfg.BatchBytes {
					ship()
					oldestAt = time.Time{}
					continue
				}
				if got == 0 {
					break
				}
			}
			if count > 0 && time.Since(oldestAt) >= effFlush {
				ship()
				oldestAt = time.Time{}
				if stalled && effFlush < maxFlush {
					effFlush = min(2*effFlush, maxFlush)
				}
			}
			if count == 0 {
				oldestAt = time.Time{}
				// Quiescent with unshipped loss testimony: ship a
				// marker-only batch rather than letting the record of the
				// loss linger until shutdown. Gated on an empty queue and
				// live credit so a stalled sensor cannot flood its own
				// spill queue with marker batches.
				if !stalled && e.up.Online() &&
					e.up.QueuedBytes() == 0 && e.up.HasLoss() {
					ship()
				}
			}
		}
	}
}

// collect drains the rings into the batch up to roughly the batch-size
// budget, correcting timestamps as it goes. It returns the number of
// records collected this pass.
//
// A node with several sensor rings must ship a single timestamp-ordered
// stream: the manager's sorter preserves per-node arrival order by design
// (a "source" is a node, and only stream heads enter its heap), so an
// interleaving scrambled here could never be repaired downstream. With
// one ring the ring's own FIFO order is the timestamp order and the bulk
// path applies; with more, collect k-way-merges the ring heads.
func (e *EXS) collect(batch *[]byte, count *int) int {
	correction := e.clock.Correction()
	rings := e.cfg.Region.Rings()
	if len(rings) > 1 {
		return e.collectMerge(rings, batch, count, correction)
	}
	total := 0
	for _, ring := range rings {
		budget := e.cfg.BatchBytes - len(*batch)
		if budget <= 0 {
			break
		}
		start := len(*batch)
		var n int
		*batch, n = ring.DrainAppend(*batch, budget)
		if n == 0 {
			continue
		}
		total += n
		*count += n
		if correction != 0 {
			patchRegion((*batch)[start:], correction)
		}
		if e.tracer != nil && e.tracer.ShouldSample(stageRingDrain) {
			// The timestamp is already corrected here, so age against the
			// corrected clock measures ring dwell plus drain latency.
			if ts, ok := peekFirstTS((*batch)[start:]); ok {
				e.tracer.Observe(stageRingDrain, e.clock.NowMicros()-ts)
			}
		}
	}
	return total
}

// collectMerge drains several rings into the batch in timestamp order,
// popping whichever ring's head record is oldest until the batch budget
// is spent or every ring is empty. Raw (uncorrected) timestamps compare
// correctly because all rings on a node share one clock; the correction
// is patched in after each pop, like the bulk path.
func (e *EXS) collectMerge(rings []*shm.Ring, batch *[]byte, count *int, correction int64) int {
	// tsEmpty marks a drained ring; a real timestamp never reaches it.
	const tsEmpty = int64(^uint64(0) >> 1)
	if cap(e.mergeTS) < len(rings) {
		e.mergeTS = make([]int64, len(rings))
	}
	heads := e.mergeTS[:len(rings)]
	for i, r := range rings {
		if ts, ok := r.HeadTS(); ok {
			heads[i] = ts
		} else {
			heads[i] = tsEmpty
		}
	}
	total := 0
	for len(*batch) < e.cfg.BatchBytes {
		best := -1
		for i := range heads {
			if heads[i] == tsEmpty {
				continue
			}
			if best == -1 || heads[i] < heads[best] {
				best = i
			}
		}
		if best == -1 {
			break
		}
		start := len(*batch)
		var ok bool
		*batch, ok = rings[best].DrainOne(*batch)
		if !ok {
			heads[best] = tsEmpty
			continue
		}
		total++
		*count++
		if correction != 0 {
			patchRegion((*batch)[start:], correction)
		}
		if e.tracer != nil && e.tracer.ShouldSample(stageRingDrain) {
			if ts, ok := peekFirstTS((*batch)[start:]); ok {
				e.tracer.Observe(stageRingDrain, e.clock.NowMicros()-ts)
			}
		}
		if ts, ok := rings[best].HeadTS(); ok {
			heads[best] = ts
		} else {
			heads[best] = tsEmpty
		}
	}
	return total
}

// peekFirstTS reads the (possibly corrected) timestamp of the first record
// in an encoded region without decoding it.
func peekFirstTS(region []byte) (int64, bool) {
	size, err := record.PeekSize(region)
	if err != nil || size > len(region) {
		return 0, false
	}
	ts, _, ok := record.PeekTS(region[:size])
	return ts, ok
}

// patchRegion adds the correction to the TS field of every record in an
// encoded region.
func patchRegion(region []byte, correction int64) {
	for len(region) > 0 {
		size, err := record.PeekSize(region)
		if err != nil || size > len(region) {
			return // malformed; leave as-is, the manager will reject it
		}
		if ts, off, ok := record.PeekTS(region[:size]); ok {
			record.PatchTS(region, off, ts+correction)
		}
		region = region[size:]
	}
}

// Stats returns a snapshot of counters.
func (e *EXS) Stats() Stats {
	_, ringDropped := e.cfg.Region.Stats()
	return Stats{
		Node:         e.up.Node(),
		Session:      e.up.Session(),
		Online:       e.up.Online(),
		Sent:         e.link.Sent.Value(),
		Batches:      e.link.Batches.Value(),
		BytesOut:     e.up.BytesOut(),
		RingDropped:  ringDropped,
		Probes:       e.link.Probes.Value(),
		Adjusts:      e.link.Adjusts.Value(),
		Correction:   e.clock.Correction(),
		Reconnects:   e.link.Reconnects.Value(),
		Retransmits:  e.link.Retransmits.Value(),
		Spilled:      e.spilled.Value(),
		Dropped:      e.link.Dropped.Value(),
		QueuedBytes:  e.up.QueuedBytes(),
		LostOffline:  e.lostOffline.Value(),
		CreditWindow: e.up.CreditWindow(),
		CreditStalls: e.link.CreditStalls.Value(),
		LossMarkers:  e.lossMarkers.Value(),
		MarkedLost:   e.markedLost.Value(),
	}
}

// Close ships any buffered records, announces BYE, and disconnects. It
// returns promptly even while a reconnect loop is mid-backoff or
// mid-dial, or the manager has stopped reading; records still
// unacknowledged at that point are dropped and counted.
func (e *EXS) Close() error {
	return e.up.Close(func() {
		// Let the drain loop ship its final batch before the socket goes.
		close(e.done)
		e.wgDrain.Wait()
	})
}
