// Package relay implements the intermediate tier of a hierarchical
// (federated) BRISK deployment: a relay owns a regional fleet of
// external sensors — running the full manager pipeline against them
// (per-session decode, on-line sort, causal matching, clock sync) — and
// forwards its already-monotone merged stream upward to a parent ISM
// over the ordinary wire protocol as one high-rate session.
//
// The relay is two halves bolted together:
//
//   - downstream, an embedded ism.Manager that lists the relay as its
//     last sink, so every emitted record (origin-attributed, loss markers
//     included) is copied into the uplink, and whose GateBacklog hook
//     counts the uplink's unacknowledged backlog toward the ack-gate
//     occupancy — so a parent withholding acks closes this tier's gate
//     and the halt propagates to the leaves;
//   - upstream, the same resumable-session sender the external sensor
//     links (internal/uplink: sequence-numbered replay queue, credit flow
//     control, session resume, drop-oldest eviction tallied for loss
//     markers), shipping RelayBatch frames whose entries carry their
//     4-byte origin node ids, rebased by NodeBase so origins stay
//     globally unique across relays. This package only assembles and
//     seals those batches.
//
// Clock correction composes per hop: the relay's child-tier sync master
// runs on the relay's raw clock (children converge to the relay frame),
// the parent's probes are answered with the relay's corrected clock and
// its adjustments accumulate in that correction, and every forwarded
// timestamp is patched by the correction as it is copied — so a leaf
// record reaches the root in the root frame with error bounded by the
// sum of the per-hop residuals.
//
// Loss markers never disappear: a marker emitted downstream is forwarded
// like any record, and batches evicted from the uplink queue are folded
// (marker coverage included) into a pending-loss accumulator whose next
// synthesized marker rides at the head of a later batch. The composed
// contract "acked ⇒ emitted at the root or represented by a loss
// marker" therefore holds across both hops.
package relay

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"brisk/internal/ism"
	"brisk/internal/metrics"
	"brisk/internal/record"
	"brisk/internal/uplink"
	"brisk/internal/vclock"
	"brisk/internal/wire"
	"brisk/internal/xdr"
)

// Config configures a Relay. Addr and Parent are required.
type Config struct {
	// Addr is the downstream TCP listen address for this relay's
	// regional sensor fleet (port 0 for ephemeral; see Relay.Addr).
	Addr string
	// Parent is the parent manager's address the merged stream is
	// forwarded to.
	Parent string
	// Name is the node name announced upstream. Default "relay".
	Name string
	// NodeBase is added to every forwarded origin node id (and stamps
	// uplink-synthesized loss markers), keeping origins globally unique
	// when several relays feed one root: give relay i a base of
	// i×(its fleet size).
	NodeBase int32
	// Clock is the relay's raw local clock; nil means the system clock.
	// The downstream manager (and so the child-tier sync master) runs
	// directly on it; the uplink wraps it in the corrected clock the
	// parent's sync rounds adjust.
	Clock vclock.Clock
	// ISM tunes the downstream manager (sorter, shards, watermarks,
	// sync cadence, …). Addr, Clock, GateBacklog and Metrics are
	// overridden by the relay, which appends itself to Sinks.
	ISM ism.Config
	// BatchRecords is how many forwarded records one uplink batch
	// carries before it is sealed. Default 256.
	BatchRecords int
	// FlushInterval bounds how long a partial batch may wait before
	// shipping. Default 2 ms.
	FlushInterval time.Duration
	// QueueBytes bounds the uplink retransmit queue; the oldest sealed
	// batch is evicted (folded into a loss marker) past it. Default 4 MiB.
	QueueBytes int
	// DialTimeout bounds one parent dial + handshake. Default 5 s.
	DialTimeout time.Duration
	// ReconnectBase and ReconnectMax shape the uplink's exponential
	// backoff. Defaults 50 ms and 5 s.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// MaxReconnectAttempts caps one outage's retries; 0 means 20,
	// negative retries forever.
	MaxReconnectAttempts int
	// ReconnectRand, when non-nil, is the [0,1) source the uplink's
	// ±20% backoff jitter is drawn from. Injectable so backoff schedules
	// are deterministic under test; nil uses a private PRNG seeded from
	// the session id and the wall clock.
	ReconnectRand func() float64
	// Metrics, when non-nil, receives both the relay's uplink series and
	// the embedded manager's series; nil means a private registry.
	Metrics *metrics.Registry
	// Logf logs diagnostics; nil means log.Printf.
	Logf func(format string, args ...any)
}

// Stats is a snapshot of relay counters.
type Stats struct {
	// Node is the parent-assigned node id of the uplink session.
	Node int32
	// Session is the uplink's resume-session identifier.
	Session uint64
	// Online reports a live parent connection.
	Online bool
	// Forwarded counts records tapped off the downstream emission.
	Forwarded uint64
	// Shipped counts records first-sent upstream (marker records
	// included); Batches counts RelayBatch frames, retransmits included.
	Shipped uint64
	Batches uint64
	// Retransmits counts batches replayed after a session resume.
	Retransmits uint64
	// Reconnects counts successful uplink reconnections.
	Reconnects uint64
	// Dropped counts records discarded from the uplink queue (eviction
	// or unacknowledged at close); every evicted record is folded into a
	// loss marker first.
	Dropped uint64
	// LossMarkers counts uplink-synthesized markers; MarkedLost is the
	// record count they testify to.
	LossMarkers uint64
	MarkedLost  uint64
	// BacklogRecords is the current unacknowledged uplink backlog (the
	// quantity GateBacklog feeds the downstream ack gate).
	BacklogRecords int64
	// QueuedBytes is the sealed-batch queue's current size.
	QueuedBytes int
	// CreditWindow is the parent's current grant (-1 without flow
	// control); CreditStalls counts pump passes stopped on empty credit.
	CreditWindow int64
	CreditStalls uint64
	// Probes and Adjusts count parent sync traffic served; Correction is
	// the accumulated relay→root clock correction in µs.
	Probes     uint64
	Adjusts    uint64
	Correction int64
	// ISM is the embedded downstream manager's snapshot.
	ISM ism.Stats
}

// Relay is one intermediate-tier node. Create with New, stop with Close.
type Relay struct {
	cfg    Config
	logf   func(string, ...any)
	rawClk vclock.Clock
	clock  *vclock.Corrected
	mgr    *ism.Manager
	reg    *metrics.Registry
	up     *uplink.Sender

	// mu guards the batch under assembly: cur accumulates encoded entries
	// between seals, sealBuf is scratch for a seal that must put a loss
	// marker in front of them.
	mu       sync.Mutex
	cur      []byte
	curCount int
	sealBuf  []byte

	backlog atomic.Int64 // records in cur + the sender's queue (pending-loss coverage excluded)

	done     chan struct{}
	flushNow chan struct{}
	wgFlush  sync.WaitGroup

	link         uplink.Counters // the series the sender advances
	forwarded    *metrics.Counter
	lossMarkersC *metrics.Counter
	markedLostC  *metrics.Counter
}

// New creates a relay: it starts the downstream manager on cfg.Addr,
// dials the parent, and begins forwarding.
func New(cfg Config) (*Relay, error) {
	if cfg.Addr == "" || cfg.Parent == "" {
		return nil, errors.New("relay: Config.Addr and Config.Parent are required")
	}
	if cfg.Name == "" {
		cfg.Name = "relay"
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.System{}
	}
	if cfg.BatchRecords <= 0 {
		cfg.BatchRecords = 256
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 2 * time.Millisecond
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	r := &Relay{
		cfg:      cfg,
		logf:     logf,
		rawClk:   cfg.Clock,
		clock:    vclock.NewCorrected(cfg.Clock),
		done:     make(chan struct{}),
		flushNow: make(chan struct{}, 1),
	}
	r.registerMetrics(cfg.Metrics)

	mcfg := cfg.ISM
	mcfg.Addr = cfg.Addr
	mcfg.Clock = r.rawClk
	mcfg.Sinks = append(mcfg.Sinks[:len(mcfg.Sinks):len(mcfg.Sinks)], r)
	mcfg.GateBacklog = func() int { return int(r.backlog.Load()) }
	mcfg.Metrics = r.reg
	if mcfg.Logf == nil {
		mcfg.Logf = logf
	}
	mgr, err := ism.New(mcfg)
	if err != nil {
		return nil, fmt.Errorf("relay: downstream manager: %w", err)
	}
	r.mgr = mgr

	r.up, err = uplink.Dial(context.Background(), uplink.Config{
		Addr:                 cfg.Parent,
		Name:                 cfg.Name,
		Tag:                  "relay",
		Peer:                 "parent",
		Frame:                wire.MsgRelayData,
		Clock:                r.clock,
		QueueBytes:           cfg.QueueBytes,
		DialTimeout:          cfg.DialTimeout,
		ReconnectBase:        cfg.ReconnectBase,
		ReconnectMax:         cfg.ReconnectMax,
		MaxReconnectAttempts: cfg.MaxReconnectAttempts,
		ReconnectRand:        cfg.ReconnectRand,
		Logf:                 logf,
		Counters:             r.link,
		OnRelease:            func(records int) { r.backlog.Add(-int64(records)) },
	})
	if err != nil {
		mgr.Close()
		return nil, err
	}
	r.reg.GaugeFunc(metrics.Desc{Name: "brisk_relay_online",
		Help: "1 while the uplink session is attached to the parent"},
		func() float64 {
			if r.up.Online() {
				return 1
			}
			return 0
		})

	mgr.Start()
	r.wgFlush.Add(1)
	go r.flushLoop()
	return r, nil
}

// registerMetrics creates (or adopts) the registry and binds the relay's
// series; the ones in r.link are advanced by the uplink sender.
func (r *Relay) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r.reg = reg
	r.forwarded = reg.Counter(metrics.Desc{Name: "brisk_relay_forwarded_total",
		Help: "records tapped off the downstream emission into the uplink", Unit: "records"})
	r.link.Sent = reg.Counter(metrics.Desc{Name: "brisk_relay_shipped_total",
		Help: "records first-sent to the parent (uplink markers included)", Unit: "records"})
	r.link.Batches = reg.Counter(metrics.Desc{Name: "brisk_relay_batches_total",
		Help: "relay-batch frames written upstream, retransmits included", Unit: "batches"})
	r.link.Retransmits = reg.Counter(metrics.Desc{Name: "brisk_relay_retransmit_batches_total",
		Help: "uplink batches replayed after a session resume", Unit: "batches"})
	r.link.Reconnects = reg.Counter(metrics.Desc{Name: "brisk_relay_reconnects_total",
		Help: "successful uplink reconnections to the parent", Unit: "connections"})
	r.link.Dropped = reg.Counter(metrics.Desc{Name: "brisk_relay_dropped_total",
		Help: "records discarded from the uplink queue (evicted into a loss marker, or unacknowledged at close)",
		Unit: "records"})
	r.lossMarkersC = reg.Counter(metrics.Desc{Name: "brisk_relay_loss_markers_total",
		Help: "loss markers synthesized by the uplink for evicted batches", Unit: "markers"})
	r.markedLostC = reg.Counter(metrics.Desc{Name: "brisk_relay_marked_lost_total",
		Help: "records represented by uplink-synthesized loss markers", Unit: "records"})
	r.link.CreditStalls = reg.Counter(metrics.Desc{Name: "brisk_relay_credit_stalls_total",
		Help: "uplink pump passes stopped on exhausted parent credit", Unit: "stalls"})
	r.link.Probes = reg.Counter(metrics.Desc{Name: "brisk_relay_clock_probes_total",
		Help: "parent clock-synchronization probes answered", Unit: "probes"})
	r.link.Adjusts = reg.Counter(metrics.Desc{Name: "brisk_relay_clock_adjusts_total",
		Help: "parent clock adjustments applied to the relay correction", Unit: "adjustments"})
	reg.GaugeFunc(metrics.Desc{Name: "brisk_relay_backlog_records",
		Help: "unacknowledged uplink backlog counted toward the downstream ack gate", Unit: "records"},
		func() float64 { return float64(r.backlog.Load()) })
	reg.GaugeFunc(metrics.Desc{Name: "brisk_relay_correction_microseconds",
		Help: "accumulated relay-to-root clock correction (this hop's offset estimate)", Unit: "microseconds"},
		func() float64 { return float64(r.clock.Correction()) })
}

// Metrics returns the registry holding the relay's (and its embedded
// manager's) series.
func (r *Relay) Metrics() *metrics.Registry { return r.reg }

// Manager returns the embedded downstream manager (for its Addr, buffer
// cursors and stats).
func (r *Relay) Manager() *ism.Manager { return r.mgr }

// Addr returns the downstream listen address sensors dial.
func (r *Relay) Addr() string { return r.mgr.Addr() }

// Node returns the parent-assigned uplink node id.
func (r *Relay) Node() int32 { return r.up.Node() }

// Clock returns the relay's corrected clock (raw clock plus the
// correction accumulated from parent sync rounds).
func (r *Relay) Clock() *vclock.Corrected { return r.clock }

// Publish is the downstream manager's uplink sink: it copies one
// emitted record's node-prefixed encoding into the batch under assembly,
// rebases the origin id by NodeBase and patches the timestamp into the
// parent frame. Runs with the downstream manager's pipeline lock held, so
// it only appends — sealing copies the batch into the sender's queue but
// never touches the network.
func (r *Relay) Publish(rec *record.Record, encoded []byte, _ int64) {
	corr := r.clock.Correction()
	r.mu.Lock()
	mark := len(r.cur)
	r.cur = append(r.cur, encoded...)
	entry := r.cur[mark:]
	xdr.PutUint32(entry, uint32(rec.Node+r.cfg.NodeBase))
	if corr != 0 {
		if ts, off, ok := record.PeekTS(entry[4:]); ok {
			record.PatchTS(entry[4:], off, ts+corr)
		}
	}
	r.curCount++
	r.backlog.Add(1)
	seal := r.curCount >= r.cfg.BatchRecords
	if seal {
		r.sealLocked()
	}
	r.mu.Unlock()
	r.forwarded.Inc()
	if seal {
		r.kick()
	}
}

// EndFlush is a no-op: batches seal by size and on the flush interval.
func (r *Relay) EndFlush() {}

// kick asks the flush loop to pump now.
func (r *Relay) kick() {
	select {
	case r.flushNow <- struct{}{}:
	default:
	}
}

// appendMarker encodes one node-prefixed loss marker entry.
func appendMarker(buf []byte, node int32, count uint64, firstTS, lastTS int64) ([]byte, error) {
	rec := record.NewLossMarker(count, firstTS, lastTS)
	buf = append(buf,
		byte(uint32(node)>>24), byte(uint32(node)>>16),
		byte(uint32(node)>>8), byte(uint32(node)))
	return rec.Append(buf)
}

// sealLocked closes the batch under assembly into the sender's queue,
// putting a loss marker in front of it when evictions are pending (a
// marker alone when there is nothing else to ship). Caller holds mu.
func (r *Relay) sealLocked() {
	payload, count := r.cur, r.curCount
	if n, f, l := r.up.TakeLoss(); n > 0 {
		if m, err := appendMarker(r.sealBuf[:0], r.cfg.NodeBase, n, f, l); err == nil {
			r.sealBuf = append(m, r.cur...)
			payload, count = r.sealBuf, count+1
			r.backlog.Add(1)
			r.lossMarkersC.Inc()
			r.markedLostC.Add(n)
		} else {
			r.up.AddLoss(n, f, l) // keep it for the next seal
		}
	}
	if count == 0 {
		return
	}
	r.up.Enqueue(payload, count)
	r.cur, r.curCount = r.cur[:0], 0
}

// flushLoop seals aged partial batches and pumps the queue, on the
// flush interval and on demand.
func (r *Relay) flushLoop() {
	defer r.wgFlush.Done()
	ticker := time.NewTicker(r.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-r.flushNow:
		case <-ticker.C:
			r.mu.Lock()
			r.sealLocked()
			r.mu.Unlock()
		}
		r.up.Pump()
	}
}

// Stats returns a snapshot of the relay counters.
func (r *Relay) Stats() Stats {
	return Stats{
		Node:           r.up.Node(),
		Session:        r.up.Session(),
		Online:         r.up.Online(),
		Forwarded:      r.forwarded.Value(),
		Shipped:        r.link.Sent.Value(),
		Batches:        r.link.Batches.Value(),
		Retransmits:    r.link.Retransmits.Value(),
		Reconnects:     r.link.Reconnects.Value(),
		Dropped:        r.link.Dropped.Value(),
		LossMarkers:    r.lossMarkersC.Value(),
		MarkedLost:     r.markedLostC.Value(),
		BacklogRecords: r.backlog.Load(),
		QueuedBytes:    r.up.QueuedBytes(),
		CreditWindow:   r.up.CreditWindow(),
		CreditStalls:   r.link.CreditStalls.Value(),
		Probes:         r.link.Probes.Value(),
		Adjusts:        r.link.Adjusts.Value(),
		Correction:     r.clock.Correction(),
		ISM:            r.mgr.Stats(),
	}
}

// Close shuts the relay down tier by tier: the downstream manager first
// (severing leaf sessions and flushing its sorter through the uplink
// sink), then the uplink tail is sealed and pumped, acknowledged batches
// are awaited (bounded), and the parent link closes with a BYE. Records
// the parent never acknowledged are counted as dropped. The whole
// sequence runs inside the sender's Close, so a parent that stopped
// reading or a redial in progress cannot hold it up.
func (r *Relay) Close() error {
	var err error
	cerr := r.up.Close(func() {
		// Downstream flush: every record acked to a leaf is now either
		// emitted (and so in the uplink) or represented by a marker.
		err = r.mgr.Close()
		close(r.done)
		r.wgFlush.Wait()
		r.mu.Lock()
		r.sealLocked()
		r.mu.Unlock()
	})
	if err == nil {
		err = cerr
	}
	return err
}
