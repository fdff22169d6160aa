// Package uplink implements the sender half of BRISK's transfer protocol:
// the one resumable session every producer keeps with its manager. The
// external sensor (internal/exs) ships DATA batches over it and the relay
// tier (internal/relay) ships node-prefixed RELAY_DATA batches; both link
// the same Sender, so "how a sender survives a flaky link without silent
// loss" is decided here and nowhere else.
//
// A Sender owns
//
//   - the HELLO exchange and session resume;
//   - a sequence-numbered, byte-bounded replay queue: every enqueued batch
//     is retained until the manager's cumulative ack releases it, the
//     oldest batch is evicted past the bound, and released payload storage
//     is recycled into later enqueues;
//   - the credit window: batches go out only while the in-flight record
//     count fits the manager's latest grant, except that the first batch
//     is always sendable so a halt leaves an ack in flight to carry the
//     next grant;
//   - the reconnect state machine: exponential backoff with ±20% jitter,
//     resume, trim to the manager's resume point, replay, then online —
//     or, past the retry cap, a permanent give-up that discards (and
//     counts) the queue;
//   - the control loop answering clock probes, adjustments, acks, pings
//     and BYE;
//   - the pending-loss accumulator: evicted batches are tallied (nested
//     loss markers included) so the owner's next batch can carry a marker
//     that testifies to them — the sender half of "acked ⇒ emitted or
//     represented by a loss marker";
//   - an ack-drained, time-bounded Close.
//
// What a batch contains, when it is cut, and how loss markers are encoded
// stay with the owner.
package uplink

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"log"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"brisk/internal/metrics"
	"brisk/internal/record"
	"brisk/internal/vclock"
	"brisk/internal/wire"
)

// DefaultReconnectAttempts is the per-outage retry cap used when
// Config.MaxReconnectAttempts is zero.
const DefaultReconnectAttempts = 20

const (
	// reconnectJitter is the ± fraction of uniform noise on every backoff
	// delay, keeping a fleet from thundering back in lockstep.
	reconnectJitter = 0.2
	// closeGrace bounds each phase of Close: the owner's final flush
	// against a peer that stopped reading, and the wait for the tail's
	// acknowledgements.
	closeGrace = 2 * time.Second
	// maxFreeBufs bounds the recycled-payload free list so a burst of
	// large batches cannot pin their storage forever.
	maxFreeBufs = 8
	// nodePrefix is the width of the origin node id in front of every
	// RELAY_DATA entry.
	nodePrefix = 4
)

// Connection states.
const (
	stateOnline int32 = iota
	stateReconnecting
	stateDead
)

// Counters are the owner's metric series the sender advances, so each
// tier keeps its own series names. All are required.
type Counters struct {
	// Sent counts records on first transmission; Batches counts frames
	// written, Retransmits the replayed ones among them.
	Sent, Batches, Retransmits *metrics.Counter
	// Reconnects counts successful redials.
	Reconnects *metrics.Counter
	// Dropped counts records evicted from the queue or discarded with it
	// (give-up, close).
	Dropped *metrics.Counter
	// CreditStalls counts pump passes that paused on exhausted credit.
	CreditStalls *metrics.Counter
	// Probes and Adjusts count clock-sync traffic served.
	Probes, Adjusts *metrics.Counter
}

// Config fixes one sender at construction. Zero durations, sizes and the
// retry cap take the documented defaults.
type Config struct {
	// Addr is the manager's TCP address; Name is announced in HELLO.
	Addr, Name string
	// Tag and Peer word the diagnostics: "<Tag>: <Peer> connection lost".
	Tag, Peer string
	// Frame is the batch frame: wire.MsgData, or wire.MsgRelayData whose
	// payload entries each carry a 4-byte origin node id.
	Frame wire.MsgType
	// Clock answers the manager's probes and absorbs its adjustments.
	Clock *vclock.Corrected
	// QueueBytes bounds the replay queue. Default 4 MiB.
	QueueBytes int
	// DialTimeout bounds one dial plus HELLO exchange. Default 5 s.
	DialTimeout time.Duration
	// ReconnectBase doubles per failed attempt up to ReconnectMax.
	// Defaults 50 ms and 5 s.
	ReconnectBase, ReconnectMax time.Duration
	// MaxReconnectAttempts caps one outage's retries; 0 means
	// DefaultReconnectAttempts, negative retries forever.
	MaxReconnectAttempts int
	// ReconnectRand, when non-nil, is the [0,1) source backoff jitter is
	// drawn from (reconnector goroutine only); nil uses a private PRNG.
	ReconnectRand func() float64
	// Logf logs diagnostics; nil means log.Printf.
	Logf func(format string, args ...any)
	// Counters are the owner's series.
	Counters Counters
	// OnRelease, when non-nil, is told how many records left the queue
	// (acked, evicted or discarded). Called with the queue lock held.
	OnRelease func(records int)
	// OnFirstSend, when non-nil, sees each batch payload right after its
	// first transmission. Called with the queue lock held.
	OnFirstSend func(payload []byte)
}

// entry is one batch retained until the manager acknowledges it.
type entry struct {
	seq      uint64
	count    int
	payload  []byte
	sent     bool // written to the current connection
	everSent bool // written to some connection at least once
}

// Sender is one resumable session with a manager. Create with Dial, stop
// with Close.
type Sender struct {
	cfg     Config
	prefix  int // bytes in front of each payload entry
	session uint64
	ctx     context.Context
	cancel  context.CancelFunc

	connMu sync.Mutex
	conn   *wire.Conn // nil while disconnected
	raw    net.Conn
	node   atomic.Int32

	state       atomic.Int32
	closed      atomic.Bool
	done        chan struct{} // closed by Close
	reconnectCh chan struct{}
	wg          sync.WaitGroup // control loops + reconnector

	// mu guards the queue; pump holds it across sends so replayed and
	// fresh batches stay sequence-ordered on the wire.
	mu       sync.Mutex
	queue    []entry
	qBytes   int
	nextSeq  uint64
	freeBufs [][]byte
	// Credit flow control: the manager's latest grant and the records in
	// flight (sent, unacknowledged) against it. creditOn is false until
	// the manager grants a nonzero window.
	creditOn bool
	creditW  int64
	inflight int64
	stalled  bool // last pump paused on exhausted credit
	// Pending loss: dropped records not yet represented by a shipped loss
	// marker, with the timestamp range they covered.
	lossN     uint64
	lossFirst int64
	lossLast  int64

	bytesOutBase atomic.Uint64 // BytesOut of finished connections
}

// Dial connects to the manager, completes the HELLO exchange and starts
// the control loop and reconnector. Canceling ctx aborts any in-flight
// dial or backoff wait and permanently stops reconnection.
func Dial(ctx context.Context, cfg Config) (*Sender, error) {
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = 4 << 20
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.ReconnectBase <= 0 {
		cfg.ReconnectBase = 50 * time.Millisecond
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 5 * time.Second
	}
	if cfg.MaxReconnectAttempts == 0 {
		cfg.MaxReconnectAttempts = DefaultReconnectAttempts
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	s := &Sender{
		cfg:         cfg,
		session:     newSessionID(),
		done:        make(chan struct{}),
		reconnectCh: make(chan struct{}, 1),
	}
	if cfg.Frame == wire.MsgRelayData {
		s.prefix = nodePrefix
	}
	if s.cfg.ReconnectRand == nil {
		s.cfg.ReconnectRand = mrand.New(mrand.NewSource(int64(s.session) ^ time.Now().UnixNano())).Float64
	}
	s.ctx, s.cancel = context.WithCancel(ctx)
	l, err := s.connect(false)
	if err == nil && !l.stop() {
		err = fmt.Errorf("%s: dial %s: %w", cfg.Tag, cfg.Peer, context.Cause(s.ctx))
	}
	if err != nil {
		s.cancel()
		return nil, err
	}
	s.raw, s.conn = l.raw, l.conn
	s.attach(l.ack)
	s.wg.Add(2)
	go s.controlLoop(l.conn)
	go s.reconnector()
	return s, nil
}

// newSessionID returns a random non-zero session identifier.
func newSessionID() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to the clock; uniqueness only needs to hold per
			// manager across the retention window.
			return uint64(time.Now().UnixNano()) | 1
		}
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// link is one handshaken connection that is not yet the live one.
type link struct {
	raw  net.Conn
	conn *wire.Conn
	ack  *wire.HelloAck
	// stop disarms the shutdown hook: until it is called, canceling the
	// sender's context closes raw. It reports false when that has already
	// happened.
	stop func() bool
}

// connect dials the manager and runs the HELLO exchange, bounded by
// DialTimeout. The exchange — and the caller's replay after it — block on
// the socket, not on the context, so the link comes back with a hook
// armed that closes the socket on shutdown; the caller disarms it
// (link.stop) once the link is published or abandoned.
func (s *Sender) connect(resume bool) (*link, error) {
	d := net.Dialer{Timeout: s.cfg.DialTimeout}
	raw, err := d.DialContext(s.ctx, "tcp", s.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("%s: dial %s: %w", s.cfg.Tag, s.cfg.Peer, err)
	}
	l := &link{raw: raw, conn: wire.NewConn(raw)}
	l.stop = context.AfterFunc(s.ctx, func() { raw.Close() })
	if err := s.handshake(l, resume); err != nil {
		l.stop()
		raw.Close()
		return nil, err
	}
	return l, nil
}

// handshake runs the HELLO exchange on a fresh link.
func (s *Sender) handshake(l *link, resume bool) error {
	l.raw.SetDeadline(time.Now().Add(s.cfg.DialTimeout))
	hello := &wire.Hello{
		Version: wire.ProtocolVersion,
		Name:    s.cfg.Name,
		Session: s.session,
		Resume:  resume,
	}
	if err := l.conn.Send(hello); err != nil {
		return fmt.Errorf("%s: hello: %w", s.cfg.Tag, err)
	}
	msg, err := l.conn.Recv()
	if err != nil {
		return fmt.Errorf("%s: hello ack: %w", s.cfg.Tag, err)
	}
	ack, ok := msg.(*wire.HelloAck)
	if !ok {
		return fmt.Errorf("%s: expected HELLO_ACK, got %v", s.cfg.Tag, msg.Type())
	}
	l.ack = ack
	l.raw.SetDeadline(time.Time{})
	return nil
}

// attach records what a HELLO_ACK assigned: the node id and the credit
// grant.
func (s *Sender) attach(ack *wire.HelloAck) {
	s.node.Store(ack.Node)
	s.applyWindow(ack.Window)
}

// Node returns the manager-assigned node id.
func (s *Sender) Node() int32 { return s.node.Load() }

// Session returns the resume-session identifier.
func (s *Sender) Session() uint64 { return s.session }

// Online reports whether the manager connection is currently up.
func (s *Sender) Online() bool { return s.state.Load() == stateOnline }

// Dead reports whether the sender gave up on the manager for good; no
// link will ever carry another batch.
func (s *Sender) Dead() bool { return s.state.Load() == stateDead }

// BytesOut returns the wire bytes written across all connections.
func (s *Sender) BytesOut() uint64 {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	n := s.bytesOutBase.Load()
	if s.conn != nil {
		n += s.conn.BytesOut()
	}
	return n
}

// QueuedBytes returns the replay queue's current size.
func (s *Sender) QueuedBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.qBytes
}

// CreditWindow returns the manager's latest grant in records, or -1 while
// the manager runs without flow control.
func (s *Sender) CreditWindow() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.creditOn {
		return -1
	}
	return s.creditW
}

// Stalled reports whether the last pump pass stopped on exhausted credit.
func (s *Sender) Stalled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stalled
}

// AddLoss folds records the owner dropped into the pending-loss
// accumulator.
func (s *Sender) AddLoss(count uint64, firstTS, lastTS int64) {
	s.mu.Lock()
	s.addLossLocked(count, firstTS, lastTS)
	s.mu.Unlock()
}

func (s *Sender) addLossLocked(count uint64, firstTS, lastTS int64) {
	if count == 0 {
		return
	}
	if s.lossN == 0 {
		s.lossFirst, s.lossLast = firstTS, lastTS
	} else {
		if firstTS < s.lossFirst {
			s.lossFirst = firstTS
		}
		if lastTS > s.lossLast {
			s.lossLast = lastTS
		}
	}
	s.lossN += count
}

// HasLoss reports whether dropped records await a loss marker.
func (s *Sender) HasLoss() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lossN > 0
}

// TakeLoss drains the pending-loss accumulator; the caller must ship a
// marker for what it takes, or hand it back with AddLoss.
func (s *Sender) TakeLoss() (count uint64, firstTS, lastTS int64) {
	s.mu.Lock()
	count, firstTS, lastTS = s.lossN, s.lossFirst, s.lossLast
	s.lossN, s.lossFirst, s.lossLast = 0, 0, 0
	s.mu.Unlock()
	return count, firstTS, lastTS
}

// tally walks an evicted payload — entries of prefix opaque bytes followed
// by one encoded record — and returns the record count and timestamp range
// it covered, folding in the coverage of any loss markers the batch itself
// carried (so a dropped marker's losses are never forgotten). Evictions
// only happen under overload, so the decode walk is off the steady path.
func tally(payload []byte, prefix int) (count uint64, firstTS, lastTS int64) {
	first := true
	note := func(ts int64) {
		if first {
			firstTS, lastTS, first = ts, ts, false
			return
		}
		if ts < firstTS {
			firstTS = ts
		}
		if ts > lastTS {
			lastTS = ts
		}
	}
	for len(payload) > prefix {
		rec, n, err := record.Decode(payload[prefix:])
		if err != nil || n == 0 {
			break
		}
		payload = payload[prefix+n:]
		if c, f, l, ok := record.LossInfo(&rec); ok {
			count += c
			note(f)
			note(l)
			continue
		}
		count++
		if rec.HasTS {
			note(rec.TS)
		}
	}
	return count, firstTS, lastTS
}

// release retires one queue entry: its records leave the credit window
// and the owner's backlog, its storage joins the free list. Caller holds
// mu and unlinks the entry.
func (s *Sender) release(ent *entry) {
	if ent.sent {
		s.inflight -= int64(ent.count)
	}
	s.qBytes -= len(ent.payload)
	if len(s.freeBufs) < maxFreeBufs {
		s.freeBufs = append(s.freeBufs, ent.payload[:0])
	}
	if s.cfg.OnRelease != nil {
		s.cfg.OnRelease(ent.count)
	}
}

// Enqueue copies one batch of count records into the replay queue,
// assigning its sequence number and applying the drop-oldest bound. The
// copy reuses storage released by earlier acks, so a flowing, acked stream
// allocates no queue memory. Evicted batches feed the pending-loss
// accumulator. Enqueue never touches the network; call Pump to send.
func (s *Sender) Enqueue(payload []byte, count int) {
	s.mu.Lock()
	var cp []byte
	if n := len(s.freeBufs); n > 0 {
		cp = s.freeBufs[n-1]
		s.freeBufs = s.freeBufs[:n-1]
	}
	cp = append(cp, payload...)
	s.nextSeq++
	s.queue = append(s.queue, entry{seq: s.nextSeq, count: count, payload: cp})
	s.qBytes += len(cp)
	var evicted uint64
	for s.qBytes > s.cfg.QueueBytes && len(s.queue) > 1 {
		old := s.queue[0]
		s.queue = s.queue[1:]
		s.addLossLocked(tally(old.payload, s.prefix))
		s.release(&old)
		evicted += uint64(old.count)
	}
	s.mu.Unlock()
	if evicted > 0 {
		s.cfg.Counters.Dropped.Add(evicted)
	}
}

// Pump sends whatever the queue and the credit window allow on the live
// connection; offline it does nothing (the reconnector replays).
func (s *Sender) Pump() {
	if c := s.liveConn(); c != nil {
		if err := s.pump(c); err != nil {
			s.markDisconnected(c, err)
		}
	}
}

// liveConn returns the current connection, or nil while disconnected.
func (s *Sender) liveConn() *wire.Conn {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.conn
}

// pump writes every not-yet-sent queued batch to c in sequence order.
// Holding mu across the sends keeps replays and fresh batches ordered;
// the ack path contends on the same mutex but never blocks the socket.
//
// Under credit flow control a batch is only sent while the in-flight
// record count fits the manager's window — except that the first batch is
// always sendable (the grant is never zero, and a halt must still leave
// one batch in flight whose ack will carry the next grant). Exhausted
// credit stops the pass; the next DATA_ACK's grant resumes it.
func (s *Sender) pump(c *wire.Conn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	blocked := false
	for i := range s.queue {
		ent := &s.queue[i]
		if ent.sent {
			continue
		}
		if s.creditOn && s.inflight > 0 && s.inflight+int64(ent.count) > s.creditW {
			blocked = true
			if !s.stalled {
				s.stalled = true
				s.cfg.Counters.CreditStalls.Inc()
			}
			break
		}
		var msg wire.Message
		if s.prefix == 0 {
			msg = &wire.DataBatch{Seq: ent.seq, Count: uint32(ent.count), Payload: ent.payload}
		} else {
			msg = &wire.RelayBatch{Seq: ent.seq, Count: uint32(ent.count), Payload: ent.payload}
		}
		if err := c.Send(msg); err != nil {
			return err
		}
		ent.sent = true
		s.inflight += int64(ent.count)
		s.cfg.Counters.Batches.Inc()
		if ent.everSent {
			s.cfg.Counters.Retransmits.Inc()
			continue
		}
		ent.everSent = true
		s.cfg.Counters.Sent.Add(uint64(ent.count))
		if s.cfg.OnFirstSend != nil {
			s.cfg.OnFirstSend(ent.payload)
		}
	}
	if !blocked {
		s.stalled = false
	}
	return nil
}

// applyWindow installs a credit grant from a HELLO_ACK or DATA_ACK.
// Window 0 means the manager runs without flow control.
func (s *Sender) applyWindow(w uint32) {
	s.mu.Lock()
	s.creditOn, s.creditW = w != 0, int64(w)
	s.mu.Unlock()
}

// ackTo releases every queued batch with sequence ≤ seq.
func (s *Sender) ackTo(seq uint64) {
	s.mu.Lock()
	for len(s.queue) > 0 && s.queue[0].seq <= seq {
		s.release(&s.queue[0])
		s.queue = s.queue[1:]
	}
	if len(s.queue) == 0 {
		s.queue = nil // let the backing array go
	}
	s.mu.Unlock()
}

// discardQueue drops every queued batch, counted. It runs when no link
// will carry the queue any more: permanent give-up and the end of Close.
func (s *Sender) discardQueue() {
	s.mu.Lock()
	var lost uint64
	for i := range s.queue {
		lost += uint64(s.queue[i].count)
		s.release(&s.queue[i])
	}
	s.queue = nil
	s.inflight = 0
	s.stalled = false
	s.mu.Unlock()
	if lost > 0 {
		s.cfg.Counters.Dropped.Add(lost)
	}
}

// markDisconnected tears down the given connection (if it is still the
// current one), flags queued batches for retransmission, and wakes the
// reconnector. Safe to call from any goroutine; duplicate reports against
// the same connection are ignored.
func (s *Sender) markDisconnected(c *wire.Conn, err error) {
	s.connMu.Lock()
	if s.conn != c || c == nil {
		s.connMu.Unlock()
		return
	}
	s.bytesOutBase.Add(c.BytesOut())
	raw := s.raw
	s.conn, s.raw = nil, nil
	s.connMu.Unlock()
	raw.Close()
	s.resetTransmitState()
	if s.closed.Load() {
		return
	}
	if s.state.CompareAndSwap(stateOnline, stateReconnecting) {
		s.cfg.Logf("%s: %s connection lost (%v), reconnecting", s.cfg.Tag, s.cfg.Peer, err)
	}
	select {
	case s.reconnectCh <- struct{}{}:
	default:
	}
}

// resetTransmitState flags every queued batch for retransmission and
// clears the in-flight window. It must run whenever a connection is
// abandoned — including a redial whose replay failed before the link
// went online. Skipping it leaves sent-but-undelivered batches marked
// sent: the next replay pass would omit them, and a cumulative ack for
// a later sequence (the manager tolerates gaps because eviction creates
// legitimate ones) would then release them silently.
func (s *Sender) resetTransmitState() {
	s.mu.Lock()
	for i := range s.queue {
		s.queue[i].sent = false
	}
	s.inflight = 0 // nothing is in flight on a dead link
	s.stalled = false
	s.mu.Unlock()
}

// markDead gives up on the manager permanently: the queue is discarded
// (counted); what the owner enqueues from here on only ages out through
// eviction.
func (s *Sender) markDead(reason string) {
	if s.state.Swap(stateDead) == stateDead {
		return
	}
	s.discardQueue()
	if !s.closed.Load() {
		s.cfg.Logf("%s: giving up on %s (%s), discarding records", s.cfg.Tag, s.cfg.Peer, reason)
	}
}

// backoffDelay computes the exponential-backoff delay for the given
// 0-based attempt: base·2^attempt capped at max, scaled by 1±jitter
// according to rnd (one draw from a [0,1) source), floored at 1 ms so a
// zero base cannot spin-dial.
func backoffDelay(attempt int, base, max time.Duration, rnd float64) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	d = time.Duration(float64(d) * (1 + reconnectJitter*(2*rnd-1)))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// reconnector owns redialing: one retry schedule per reported outage.
func (s *Sender) reconnector() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.reconnectCh:
		}
		if s.state.Load() == stateReconnecting && !s.reconnectLoop() {
			return
		}
	}
}

// reconnectLoop runs one outage's retry schedule: sleep through the
// backoff, re-run the HELLO exchange with the session id, trim the queue
// to the manager's resume point, replay the backlog, and only then mark
// the link online. It returns false when the reconnector should exit
// (shutdown or permanent give-up).
func (s *Sender) reconnectLoop() bool {
	max := s.cfg.MaxReconnectAttempts
	for attempt := 0; ; attempt++ {
		if max >= 0 && attempt >= max {
			s.markDead(fmt.Sprintf("retry cap %d reached", max))
			return false
		}
		delay := backoffDelay(attempt, s.cfg.ReconnectBase, s.cfg.ReconnectMax, s.cfg.ReconnectRand())
		timer := time.NewTimer(delay)
		select {
		case <-s.ctx.Done():
			timer.Stop()
			s.markDead("context canceled")
			return false
		case <-timer.C:
		}
		l, err := s.connect(true)
		if err != nil {
			if s.ctx.Err() != nil {
				s.markDead("context canceled")
				return false
			}
			continue
		}
		s.attach(l.ack)
		if l.ack.Resumed {
			// Everything the manager already accepted is delivered.
			s.ackTo(l.ack.LastSeq)
		}
		// Replay the backlog before going online so fresh batches cannot
		// overtake older sequence numbers. A failure here abandons a
		// connection markDisconnected never saw (s.conn is still nil), so
		// the batches this pump wrote into the dead socket must be
		// re-flagged for retransmission by hand.
		if err := s.pump(l.conn); err != nil {
			l.stop()
			l.raw.Close()
			s.resetTransmitState()
			continue
		}
		s.connMu.Lock()
		s.raw, s.conn = l.raw, l.conn
		s.connMu.Unlock()
		if !l.stop() {
			// Shutdown began while the link was still unpublished: its hook
			// is closing the socket, and Close may already have looked for
			// a connection to close and found none.
			s.markDisconnected(l.conn, context.Cause(s.ctx))
			s.markDead("context canceled")
			return false
		}
		s.state.Store(stateOnline)
		s.cfg.Counters.Reconnects.Inc()
		s.cfg.Logf("%s: reconnected to %s as node %d (resumed=%v)", s.cfg.Tag, s.cfg.Peer, l.ack.Node, l.ack.Resumed)
		s.wg.Add(1)
		go s.controlLoop(l.conn)
		// Catch anything queued while we were replaying.
		s.Pump()
		return true
	}
}

// controlLoop services manager messages on one connection: clock probes,
// adjustments, batch acknowledgements and heartbeats. It exits when the
// connection dies, handing recovery to the reconnector.
func (s *Sender) controlLoop(c *wire.Conn) {
	defer s.wg.Done()
	for {
		msg, err := c.Recv()
		if err == nil {
			err = s.serve(c, msg)
		}
		if err != nil {
			s.markDisconnected(c, err)
			return
		}
	}
}

// serve handles one manager message; an error means the link is done.
func (s *Sender) serve(c *wire.Conn, msg wire.Message) error {
	switch t := msg.(type) {
	case *wire.Probe:
		s.cfg.Counters.Probes.Inc()
		return c.Send(&wire.ProbeReply{
			Seq:        t.Seq,
			MasterSend: t.MasterSend,
			SlaveTime:  s.cfg.Clock.NowMicros(),
		})
	case *wire.Adjust:
		s.cfg.Counters.Adjusts.Inc()
		s.cfg.Clock.Adjust(t.DeltaMicros)
		if t.RatePPB >= 0 {
			// Model-based master: track the reference clock between
			// probes by extrapolating the correction at this rate.
			s.cfg.Clock.SetRatePPM(float64(t.RatePPB) / 1000)
		}
		return nil
	case *wire.DataAck:
		s.ackTo(t.Seq)
		s.applyWindow(t.Window)
		// The ack both freed credit and (possibly) carried a fresh
		// grant, so batches parked on an exhausted window can go now.
		return s.pump(c)
	case *wire.Ping:
		return c.Send(&wire.Pong{Seq: t.Seq})
	case *wire.Bye:
		// The manager announced shutdown; treat it like a lost link so a
		// restarted manager picks the session back up.
		return fmt.Errorf("%s sent BYE", s.cfg.Peer)
	default:
		return fmt.Errorf("unexpected %v from %s", msg.Type(), s.cfg.Peer)
	}
}

// armWriteDeadline gives the live connection closeGrace to finish its
// writes, so a peer that stopped reading cannot block shutdown.
func (s *Sender) armWriteDeadline() {
	s.connMu.Lock()
	if s.raw != nil {
		s.raw.SetWriteDeadline(time.Now().Add(closeGrace))
	}
	s.connMu.Unlock()
}

// Close ends the session: it stops reconnection (aborting any dial or
// backoff wait), lets the owner ship its tail through flush — with the
// socket's writes already deadline-bounded — pumps the queue, waits
// (bounded) for the manager to acknowledge it, announces BYE and
// disconnects. Batches still unacknowledged at that point are dropped and
// counted. Close is idempotent; flush runs once, on the first call.
func (s *Sender) Close(flush func()) error {
	if s.closed.Swap(true) {
		return nil
	}
	s.cancel()
	close(s.done)
	s.armWriteDeadline()
	flush()
	s.armWriteDeadline()
	s.Pump()
	// Closing the socket while acknowledgements are still in flight would
	// make the manager's ack writes hit a closed peer — a TCP reset that
	// destroys the final batches sitting unread in its receive buffer.
	deadline := time.Now().Add(closeGrace)
	for time.Now().Before(deadline) && s.QueuedBytes() > 0 && s.liveConn() != nil {
		time.Sleep(500 * time.Microsecond)
	}
	s.connMu.Lock()
	c, raw := s.conn, s.raw
	s.conn, s.raw = nil, nil
	s.connMu.Unlock()
	var err error
	if c != nil {
		s.bytesOutBase.Add(c.BytesOut())
		_ = c.Send(&wire.Bye{}) // best effort; the close below is the real signal
		err = raw.Close()       // unblocks the control loop's Recv
	}
	s.wg.Wait()
	s.discardQueue()
	return err
}
