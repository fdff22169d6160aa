package uplink

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"brisk/internal/metrics"
	"brisk/internal/record"
	"brisk/internal/vclock"
	"brisk/internal/wire"
)

// mode is one of the two payload shapes the sender carries; every
// transport test runs once per mode.
type mode struct {
	name   string
	frame  wire.MsgType
	prefix int
}

var modes = []mode{
	{"plain", wire.MsgData, 0},
	{"node-prefixed", wire.MsgRelayData, nodePrefix},
}

func eachMode(t *testing.T, fn func(t *testing.T, m mode)) {
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) { fn(t, m) })
	}
}

// encode renders records as one payload in the mode's entry framing.
func (m mode) encode(t *testing.T, recs ...record.Record) []byte {
	t.Helper()
	var buf []byte
	var err error
	for i := range recs {
		if m.prefix > 0 {
			buf = append(buf, 0, 0, 0, 9)
		}
		if buf, err = recs[i].Append(buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// dataRecs returns n timestamped data records starting at ts.
func dataRecs(n int, ts int64) []record.Record {
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.New(1, record.TSVal(ts+int64(i)), record.I32Val(int32(i)))
	}
	return recs
}

func newCounters() Counters {
	c := func() *metrics.Counter { return new(metrics.Counter) }
	return Counters{Sent: c(), Batches: c(), Retransmits: c(), Reconnects: c(),
		Dropped: c(), CreditStalls: c(), Probes: c(), Adjusts: c()}
}

// offlineSender is a sender with no link at all, for exercising the queue
// bookkeeping directly. released accumulates the OnRelease reports.
func offlineSender(m mode, queueBytes int) (s *Sender, released *int) {
	released = new(int)
	cfg := Config{
		Frame:      m.frame,
		QueueBytes: queueBytes,
		Counters:   newCounters(),
		OnRelease:  func(n int) { *released += n },
	}
	return &Sender{cfg: cfg, prefix: m.prefix}, released
}

func quiet(string, ...any) {}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// gotBatch is one batch frame a fake manager received.
type gotBatch struct {
	conn    int // 1-based connection ordinal
	typ     wire.MsgType
	seq     uint64
	count   uint32
	payload []byte
}

// fakeMgr is a minimal manager: it completes the HELLO exchange (granting
// window, answering a resume with Resumed and the configured LastSeq),
// records every batch frame, and acknowledges them while acking is set.
type fakeMgr struct {
	ln      net.Listener
	window  uint32
	lastSeq uint64 // reported on resumes
	acking  atomic.Bool
	// mute makes connections from this ordinal on accept and then say
	// nothing — not even HELLO_ACK; deaf makes them complete the HELLO
	// exchange and then never read again. 0 disables either.
	mute, deaf atomic.Int32
	hold       chan struct{} // closed by Close; parks deaf connections

	mu      sync.Mutex
	raws    []net.Conn
	live    *wire.Conn // most recent handshaken connection
	hellos  []wire.Hello
	batches []gotBatch
	maxSeq  uint64
	wg      sync.WaitGroup

	closeOnce sync.Once
}

func newFakeMgr(t *testing.T, window uint32, acking bool) *fakeMgr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeMgr{ln: ln, window: window, hold: make(chan struct{})}
	f.acking.Store(acking)
	f.wg.Add(1)
	go f.acceptLoop()
	t.Cleanup(f.Close)
	return f
}

func (f *fakeMgr) addr() string { return f.ln.Addr().String() }

func (f *fakeMgr) acceptLoop() {
	defer f.wg.Done()
	for n := 1; ; n++ {
		raw, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		f.raws = append(f.raws, raw)
		f.mu.Unlock()
		f.wg.Add(1)
		go f.serve(n, raw)
	}
}

func (f *fakeMgr) serve(n int, raw net.Conn) {
	defer f.wg.Done()
	defer raw.Close()
	wc := wire.NewConn(raw)
	msg, err := wc.Recv()
	if err != nil {
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		return
	}
	f.mu.Lock()
	f.hellos = append(f.hellos, *hello)
	f.mu.Unlock()
	if m := f.mute.Load(); m > 0 && int32(n) >= m {
		wc.Recv() // hold the link open until the client gives up
		return
	}
	ack := &wire.HelloAck{Node: int32(n), Window: f.window, Version: wire.ProtocolVersion}
	if hello.Resume {
		ack.Resumed, ack.LastSeq = true, f.lastSeq
	}
	if wc.Send(ack) != nil {
		return
	}
	if d := f.deaf.Load(); d > 0 && int32(n) >= d {
		<-f.hold
		return
	}
	f.mu.Lock()
	f.live = wc
	f.mu.Unlock()
	for {
		msg, err := wc.Recv()
		if err != nil {
			return
		}
		var b gotBatch
		switch t := msg.(type) {
		case *wire.DataBatch:
			b = gotBatch{n, t.Type(), t.Seq, t.Count, append([]byte(nil), t.Payload...)}
		case *wire.RelayBatch:
			b = gotBatch{n, t.Type(), t.Seq, t.Count, append([]byte(nil), t.Payload...)}
		default:
			continue
		}
		f.mu.Lock()
		f.batches = append(f.batches, b)
		if b.seq > f.maxSeq {
			f.maxSeq = b.seq
		}
		f.mu.Unlock()
		if f.acking.Load() && wc.Send(&wire.DataAck{Seq: b.seq}) != nil {
			return
		}
	}
}

// received snapshots the batch frames seen so far.
func (f *fakeMgr) received() []gotBatch {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]gotBatch(nil), f.batches...)
}

func (f *fakeMgr) records() (n uint64) {
	for _, b := range f.received() {
		n += uint64(b.count)
	}
	return n
}

// send writes one control frame on the most recent connection.
func (f *fakeMgr) send(t *testing.T, m wire.Message) {
	t.Helper()
	f.mu.Lock()
	wc := f.live
	f.mu.Unlock()
	if wc == nil {
		t.Fatal("fake manager has no live connection")
	}
	if err := wc.Send(m); err != nil {
		t.Fatal(err)
	}
}

// releaseAll turns on per-batch acking (Window 0: flow control off) and
// acknowledges everything received so far.
func (f *fakeMgr) releaseAll(t *testing.T) {
	f.acking.Store(true)
	f.mu.Lock()
	seq := f.maxSeq
	f.mu.Unlock()
	f.send(t, &wire.DataAck{Seq: seq})
}

// cut severs every accepted connection; the listener stays up.
func (f *fakeMgr) cut() {
	f.mu.Lock()
	for _, c := range f.raws {
		c.Close()
	}
	f.mu.Unlock()
}

// Close severs everything: listener and all accepted connections.
func (f *fakeMgr) Close() {
	f.closeOnce.Do(func() { close(f.hold) })
	f.ln.Close()
	f.cut()
	f.wg.Wait()
}

// dialFake connects a sender to addr with fast test timings.
func dialFake(t *testing.T, addr string, m mode, mutate func(*Config)) *Sender {
	t.Helper()
	cfg := Config{
		Addr:          addr,
		Name:          "t",
		Tag:           "test",
		Peer:          "manager",
		Frame:         m.frame,
		Clock:         vclock.NewCorrected(vclock.NewManual(1000)),
		ReconnectBase: 2 * time.Millisecond,
		ReconnectMax:  10 * time.Millisecond,
		Logf:          quiet,
		Counters:      newCounters(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Dial(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(func() {}) })
	return s
}

// closeWithin runs Close on its own goroutine and fails the test if it
// has not returned by the limit.
func closeWithin(t *testing.T, s *Sender, limit time.Duration) {
	t.Helper()
	start := time.Now()
	closed := make(chan struct{})
	go func() { s.Close(func() {}); close(closed) }()
	select {
	case <-closed:
	case <-time.After(limit):
		t.Fatalf("Close still blocked after %v", time.Since(start))
	}
}

// TestBackoffDelaySchedule verifies the exponential schedule and its cap;
// rnd = 0.5 makes the jitter factor exactly 1.
func TestBackoffDelaySchedule(t *testing.T) {
	const base, max = 10 * time.Millisecond, 80 * time.Millisecond
	want := []time.Duration{base, 2 * base, 4 * base, max, max, max}
	for attempt, w := range want {
		if got := backoffDelay(attempt, base, max, 0.5); got != w {
			t.Errorf("attempt %d: delay = %v, want %v", attempt, got, w)
		}
	}
}

// TestBackoffDelayJitterBounds verifies the ±20% band holds at the
// extremes of the random source and in between, and that sub-millisecond
// results are clamped so a zero base cannot spin-dial.
func TestBackoffDelayJitterBounds(t *testing.T) {
	const base = 100 * time.Millisecond
	for _, c := range []struct {
		rnd  float64
		want time.Duration
	}{
		{0, 80 * time.Millisecond},
		{0.5, 100 * time.Millisecond},
		{1, 120 * time.Millisecond},
	} {
		if got := backoffDelay(0, base, time.Second, c.rnd); got != c.want {
			t.Errorf("rnd=%v: delay = %v, want %v", c.rnd, got, c.want)
		}
	}
	for _, rnd := range []float64{0.1, 0.25, 0.33, 0.7, 0.99} {
		got := backoffDelay(3, base, 10*time.Second, rnd)
		lo := time.Duration(float64(8*base) * (1 - reconnectJitter))
		hi := time.Duration(float64(8*base) * (1 + reconnectJitter))
		if got < lo || got > hi {
			t.Errorf("rnd=%v: delay %v outside [%v, %v]", rnd, got, lo, hi)
		}
	}
	if got := backoffDelay(0, 1, time.Second, 0); got < time.Millisecond {
		t.Fatalf("delay = %v, want the 1ms floor", got)
	}
}

// TestTallyFoldsNestedMarkers checks the eviction tally counts data
// records, folds nested loss markers in by their coverage instead of as
// single records, and spans the union of the timestamp ranges.
func TestTallyFoldsNestedMarkers(t *testing.T) {
	eachMode(t, func(t *testing.T, m mode) {
		payload := m.encode(t,
			record.New(1, record.TSVal(100), record.I32Val(1)),
			record.New(1, record.TSVal(700), record.I32Val(2)),
			record.NewLossMarker(5, 40, 90))
		count, first, last := tally(payload, m.prefix)
		if count != 7 {
			t.Fatalf("tally count %d, want 7 (2 data + 5 marker-covered)", count)
		}
		if first != 40 || last != 700 {
			t.Fatalf("tally range [%d,%d], want [40,700]", first, last)
		}
		if c, f, l := tally(nil, m.prefix); c != 0 || f != 0 || l != 0 {
			t.Fatalf("empty tally = (%d,%d,%d)", c, f, l)
		}
	})
}

// TestEnqueueDropOldestAccounting exercises the queue bound directly: the
// queue keeps the newest batches, evicts from the front, counts every
// dropped record, reports it released, and folds it into pending loss.
func TestEnqueueDropOldestAccounting(t *testing.T) {
	eachMode(t, func(t *testing.T, m mode) {
		payload := m.encode(t, dataRecs(3, 500)...)
		s, released := offlineSender(m, 2*len(payload)+1)
		for i := 0; i < 5; i++ {
			s.Enqueue(payload, 3)
		}
		if s.qBytes > s.cfg.QueueBytes {
			t.Fatalf("queue holds %d bytes, budget %d", s.qBytes, s.cfg.QueueBytes)
		}
		if n := len(s.queue); n != 2 || s.queue[0].seq != 4 || s.queue[1].seq != 5 {
			t.Fatalf("queue = %d entries, head seq %d; want the 2 newest (4..5)", n, s.queue[0].seq)
		}
		if got := s.cfg.Counters.Dropped.Value(); got != 9 { // 3 evicted batches × 3 records
			t.Fatalf("Dropped = %d, want 9", got)
		}
		if *released != 9 {
			t.Fatalf("OnRelease saw %d records, want 9", *released)
		}
		if !s.HasLoss() {
			t.Fatal("evictions left no pending loss")
		}
		if n, first, last := s.TakeLoss(); n != 9 || first != 500 || last != 502 {
			t.Fatalf("pending loss = %d over [%d,%d], want 9 over [500,502]", n, first, last)
		}
		if s.HasLoss() {
			t.Fatal("TakeLoss left loss pending")
		}
	})
}

// TestEnqueueKeepsOversizedBatch verifies a single batch larger than the
// whole budget is still retained (the bound drops oldest, never newest).
func TestEnqueueKeepsOversizedBatch(t *testing.T) {
	s, _ := offlineSender(modes[0], 10)
	s.Enqueue(make([]byte, 50), 2)
	if len(s.queue) != 1 || s.cfg.Counters.Dropped.Value() != 0 {
		t.Fatalf("oversized batch evicted: queue=%d dropped=%d", len(s.queue), s.cfg.Counters.Dropped.Value())
	}
}

// TestAckToReleasesPrefix verifies cumulative acknowledgement frees
// exactly the acked prefix and recycles its storage into later enqueues.
func TestAckToReleasesPrefix(t *testing.T) {
	s, released := offlineSender(modes[0], 1<<20)
	for i := 0; i < 4; i++ {
		s.Enqueue(make([]byte, 8), 1)
	}
	s.ackTo(2)
	if len(s.queue) != 2 || s.queue[0].seq != 3 {
		t.Fatalf("after ackTo(2): %d entries, head seq %d", len(s.queue), s.queue[0].seq)
	}
	if s.qBytes != 16 || *released != 2 {
		t.Fatalf("qBytes = %d (want 16), released = %d (want 2)", s.qBytes, *released)
	}
	if len(s.freeBufs) != 2 {
		t.Fatalf("free list holds %d buffers, want the 2 acked payloads", len(s.freeBufs))
	}
	s.Enqueue(make([]byte, 8), 1)
	if len(s.freeBufs) != 1 {
		t.Fatal("enqueue did not reuse a released payload")
	}
	s.ackTo(99)
	if s.queue != nil || s.qBytes != 0 {
		t.Fatalf("full ack left queue=%d qBytes=%d", len(s.queue), s.qBytes)
	}
}

// TestSendAckClose is the happy path: batches go out in the mode's frame
// with increasing sequence numbers, acks drain the queue, and Close waits
// for the tail's acknowledgement so nothing counts as dropped.
func TestSendAckClose(t *testing.T) {
	eachMode(t, func(t *testing.T, m mode) {
		f := newFakeMgr(t, 0, true)
		var firstSends atomic.Int64
		s := dialFake(t, f.addr(), m, func(c *Config) {
			c.OnFirstSend = func([]byte) { firstSends.Add(1) }
		})
		if s.Node() != 1 || s.Session() == 0 || !s.Online() || s.CreditWindow() != -1 {
			t.Fatalf("fresh sender: node %d session %d online %v window %d",
				s.Node(), s.Session(), s.Online(), s.CreditWindow())
		}
		payload := m.encode(t, dataRecs(4, 10)...)
		for i := 0; i < 3; i++ {
			s.Enqueue(payload, 4)
			s.Pump()
		}
		if err := s.Close(func() {}); err != nil {
			t.Fatal(err)
		}
		got := f.received()
		if len(got) != 3 {
			t.Fatalf("manager received %d batches, want 3", len(got))
		}
		for i, b := range got {
			if b.typ != m.frame || b.seq != uint64(i+1) || b.count != 4 || string(b.payload) != string(payload) {
				t.Fatalf("batch %d: type %v seq %d count %d", i, b.typ, b.seq, b.count)
			}
		}
		if d := s.cfg.Counters.Dropped.Value(); d != 0 {
			t.Fatalf("Close dropped %d acknowledged records", d)
		}
		if s.cfg.Counters.Sent.Value() != 12 || s.cfg.Counters.Batches.Value() != 3 || firstSends.Load() != 3 {
			t.Fatalf("sent %d batches %d first-sends %d", s.cfg.Counters.Sent.Value(), s.cfg.Counters.Batches.Value(), firstSends.Load())
		}
		if s.BytesOut() == 0 {
			t.Fatal("BytesOut lost the closed connection's bytes")
		}
	})
}

// TestControlLoopServesSync verifies probes are answered from the
// sender's clock, adjustments land in its correction, and pings pong.
func TestControlLoopServesSync(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	replies := make(chan wire.Message, 2) // the probe reply and the pong
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		defer raw.Close()
		wc := wire.NewConn(raw)
		if _, err := wc.Recv(); err != nil {
			return
		}
		wc.Send(&wire.HelloAck{Node: 1, Version: wire.ProtocolVersion})
		wc.Send(&wire.Adjust{DeltaMicros: 250, RatePPB: -1})
		wc.Send(&wire.Probe{Seq: 7, MasterSend: 42})
		wc.Send(&wire.Ping{Seq: 9})
		for i := 0; i < 2; i++ {
			msg, err := wc.Recv()
			if err != nil {
				return
			}
			replies <- msg
		}
	}()
	s := dialFake(t, ln.Addr().String(), modes[0], nil)
	for i := 0; i < 2; i++ {
		select {
		case msg := <-replies:
			switch r := msg.(type) {
			case *wire.ProbeReply:
				if r.Seq != 7 || r.MasterSend != 42 || r.SlaveTime != 1250 {
					t.Fatalf("probe reply %+v, want seq 7, echo 42, corrected clock 1250", r)
				}
			case *wire.Pong:
				if r.Seq != 9 {
					t.Fatalf("pong seq %d, want 9", r.Seq)
				}
			default:
				t.Fatalf("unexpected %v", msg.Type())
			}
		case <-time.After(5 * time.Second):
			t.Fatal("control loop never answered")
		}
	}
	if s.cfg.Counters.Probes.Value() != 1 || s.cfg.Counters.Adjusts.Value() != 1 || s.cfg.Clock.Correction() != 250 {
		t.Fatalf("probes %d adjusts %d correction %d", s.cfg.Counters.Probes.Value(), s.cfg.Counters.Adjusts.Value(), s.cfg.Clock.Correction())
	}
}

// TestCreditWindowStallsPump pins flow control: with a granted window of
// 10 and no acknowledgements coming back, the sender may put at most
// window + one batch on the wire (the first batch is always sendable — a
// halt must leave an ack in flight to carry the next grant), counts a
// stall, and resumes the moment an ack releases credit.
func TestCreditWindowStallsPump(t *testing.T) {
	eachMode(t, func(t *testing.T, m mode) {
		f := newFakeMgr(t, 10, false)
		s := dialFake(t, f.addr(), m, nil)
		if w := s.CreditWindow(); w != 10 {
			t.Fatalf("CreditWindow after HELLO = %d, want 10", w)
		}
		// The first batch alone exceeds the window and must still go.
		s.Enqueue(m.encode(t, dataRecs(12, 0)...), 12)
		s.Pump()
		waitFor(t, 5*time.Second, func() bool { return f.records() == 12 })
		small := m.encode(t, dataRecs(4, 100)...)
		const produced = 12 + 10*4
		for i := 0; i < 10; i++ {
			s.Enqueue(small, 4)
			s.Pump()
		}
		if !s.Stalled() || s.cfg.Counters.CreditStalls.Value() != 1 {
			t.Fatalf("stalled %v, CreditStalls %d; want one stall episode", s.Stalled(), s.cfg.Counters.CreditStalls.Value())
		}
		time.Sleep(20 * time.Millisecond)
		if got := f.records(); got != 12 {
			t.Fatalf("manager received %d records with the window exhausted, want 12", got)
		}

		f.releaseAll(t)
		waitFor(t, 5*time.Second, func() bool { return f.records() == produced })
		waitFor(t, 5*time.Second, func() bool { return s.QueuedBytes() == 0 })
		if s.Stalled() {
			t.Fatal("still stalled after credit returned")
		}
		if w := s.CreditWindow(); w != -1 {
			t.Fatalf("CreditWindow after a zero-window ack = %d, want -1 (disabled)", w)
		}
	})
}

// TestReconnectResumesTrimsAndRetransmits cuts the connection under three
// unacknowledged batches and has the manager report it already holds the
// first: the redial must carry the same session id with Resume set, the
// reported prefix must be released without being replayed, the rest must
// go out again under their original sequence numbers, and first-send
// accounting must not double count.
func TestReconnectResumesTrimsAndRetransmits(t *testing.T) {
	eachMode(t, func(t *testing.T, m mode) {
		f := newFakeMgr(t, 0, false) // never acks: everything stays queued
		f.lastSeq = 1
		s := dialFake(t, f.addr(), m, nil)
		payload := m.encode(t, dataRecs(2, 0)...)
		for i := 0; i < 3; i++ {
			s.Enqueue(payload, 2)
			s.Pump()
		}
		waitFor(t, 5*time.Second, func() bool { return len(f.received()) == 3 })

		f.cut()
		waitFor(t, 5*time.Second, func() bool {
			return s.Online() && s.cfg.Counters.Reconnects.Value() >= 1 && len(f.received()) >= 5
		})
		f.mu.Lock()
		hellos := append([]wire.Hello(nil), f.hellos...)
		f.mu.Unlock()
		if len(hellos) < 2 {
			t.Fatalf("hellos = %d, want 2", len(hellos))
		}
		if h0, h1 := hellos[0], hellos[1]; h0.Session == 0 || h0.Session != h1.Session || h0.Resume || !h1.Resume {
			t.Fatalf("hellos: first %+v, second %+v — session must match, only the second resumes", h0, h1)
		}
		var replayed []uint64
		for _, b := range f.received() {
			if b.conn > 1 {
				replayed = append(replayed, b.seq)
			}
		}
		if len(replayed) != 2 || replayed[0] != 2 || replayed[1] != 3 {
			t.Fatalf("replayed seqs %v, want [2 3] (seq 1 was trimmed by the resume point)", replayed)
		}
		if got := s.cfg.Counters.Retransmits.Value(); got != 2 {
			t.Fatalf("Retransmits = %d, want 2", got)
		}
		if got := s.cfg.Counters.Sent.Value(); got != 6 {
			t.Fatalf("Sent = %d after replay, want 6 (no double count)", got)
		}
		if s.Node() != 2 {
			t.Fatalf("node id %d, want the one the resumed HELLO_ACK assigned (2)", s.Node())
		}
		f.Close() // nothing will ack the tail; spare Close the wait for it
	})
}

// TestRetryCapGivesUp kills the manager for good and verifies the sender
// runs its capped schedule drawing jitter from the injected source, gives
// up, and counts the stranded queue as dropped.
func TestRetryCapGivesUp(t *testing.T) {
	f := newFakeMgr(t, 0, false)
	var draws atomic.Int64
	released := new(atomic.Int64)
	s := dialFake(t, f.addr(), modes[0], func(c *Config) {
		c.MaxReconnectAttempts = 2
		c.ReconnectRand = func() float64 { draws.Add(1); return 0.5 }
		c.OnRelease = func(n int) { released.Add(int64(n)) }
	})
	s.Enqueue(make([]byte, 8), 3)
	s.Pump()
	waitFor(t, 5*time.Second, func() bool { return len(f.received()) == 1 })
	if draws.Load() != 0 {
		t.Fatal("jitter drawn with the link up")
	}

	f.Close()
	waitFor(t, 10*time.Second, s.Dead)
	if s.Online() {
		t.Fatal("dead sender reports online")
	}
	if got := draws.Load(); got != 2 {
		t.Fatalf("outage drew %d jitter values from the injected source, want one per attempt (2)", got)
	}
	if s.cfg.Counters.Dropped.Value() != 3 || released.Load() != 3 || s.QueuedBytes() != 0 {
		t.Fatalf("stranded queue not accounted: dropped %d released %d queued %d",
			s.cfg.Counters.Dropped.Value(), released.Load(), s.QueuedBytes())
	}
}

// TestCloseDuringBackoffDoesNotBlock is the regression test for Close
// racing an active reconnect loop: with the manager gone and an hour-long
// backoff, Close (and equally a canceled lifetime context) must return
// promptly, and the stranded queue must be accounted for.
func TestCloseDuringBackoffDoesNotBlock(t *testing.T) {
	f := newFakeMgr(t, 0, false)
	s := dialFake(t, f.addr(), modes[0], func(c *Config) {
		c.MaxReconnectAttempts = -1
		c.ReconnectBase, c.ReconnectMax = time.Hour, time.Hour
	})
	s.Enqueue(make([]byte, 8), 1)
	s.Pump()
	waitFor(t, 5*time.Second, func() bool { return len(f.received()) == 1 })
	f.Close()
	waitFor(t, 5*time.Second, func() bool { return !s.Online() })
	closeWithin(t, s, 5*time.Second)
	if s.cfg.Counters.Dropped.Value() != 1 {
		t.Fatalf("unacked records not counted at close: dropped %d", s.cfg.Counters.Dropped.Value())
	}
}

// TestCloseAbortsSilentRedial covers the other half of a prompt Close: a
// redial that reached a peer which accepts and then says nothing. The
// HELLO exchange would otherwise sit out DialTimeout; shutdown must cut
// it short.
func TestCloseAbortsSilentRedial(t *testing.T) {
	f := newFakeMgr(t, 0, false)
	f.mute.Store(2)
	s := dialFake(t, f.addr(), modes[0], func(c *Config) {
		c.MaxReconnectAttempts = -1
		c.DialTimeout = time.Minute
	})
	f.cut()
	waitFor(t, 5*time.Second, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.hellos) >= 2 // the redial's HELLO arrived; no ack will
	})
	closeWithin(t, s, 5*time.Second)
}

// TestCloseAbortsReplayIntoDeafPeer closes a sender whose redial reached
// a peer that completes the HELLO exchange and then stops reading, with a
// backlog larger than the socket buffers: the replay pump blocks on a
// link that is not yet published (so Close's write deadline cannot reach
// it) while holding the queue lock. Shutdown must still close that socket.
func TestCloseAbortsReplayIntoDeafPeer(t *testing.T) {
	f := newFakeMgr(t, 0, false)
	f.deaf.Store(2)
	s := dialFake(t, f.addr(), modes[0], func(c *Config) {
		c.MaxReconnectAttempts = -1
		c.QueueBytes = 64 << 20
	})
	payload := make([]byte, 256<<10)
	for i := 0; i < 128; i++ { // 32 MiB, never acknowledged
		s.Enqueue(payload, 1)
	}
	s.Pump()
	waitFor(t, 10*time.Second, func() bool { return len(f.received()) == 128 })
	f.cut()
	waitFor(t, 5*time.Second, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.hellos) >= 2
	})
	time.Sleep(100 * time.Millisecond) // let the replay fill the socket and block
	closeWithin(t, s, 5*time.Second)
	if d := s.cfg.Counters.Dropped.Value(); d != 128 {
		t.Fatalf("dropped %d of 128 undeliverable records", d)
	}
}

// TestCloseBoundedAgainstStalledPeer fills the socket toward a manager
// that handshakes and then never reads again, so a pump is blocked in a
// write when Close is called: the write deadline Close arms must fail it
// within the grace period instead of wedging shutdown.
func TestCloseBoundedAgainstStalledPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		defer raw.Close()
		wc := wire.NewConn(raw)
		if _, err := wc.Recv(); err != nil {
			return
		}
		wc.Send(&wire.HelloAck{Node: 1, Version: wire.ProtocolVersion})
		<-hold // never read again
	}()
	s := dialFake(t, ln.Addr().String(), modes[0], func(c *Config) { c.QueueBytes = 64 << 20 })
	// Far more than the loopback socket buffers hold (the kernel
	// autotunes them to a few MiB): the pump blocks partway through.
	payload := make([]byte, 256<<10)
	for i := 0; i < 128; i++ {
		s.Enqueue(payload, 1)
	}
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		s.Pump()
	}()
	select {
	case <-pumped:
		t.Skip("socket buffers swallowed 32 MiB; cannot wedge the pump on this host")
	case <-time.After(200 * time.Millisecond):
	}
	closeWithin(t, s, closeGrace+3*time.Second)
	<-pumped
	if s.cfg.Counters.Dropped.Value() != 128 {
		t.Fatalf("dropped %d of 128 undeliverable records", s.cfg.Counters.Dropped.Value())
	}
}

// TestReplayAbortRetransmitsWrittenPrefix is the regression test for the
// silent-loss hole where a redial's replay pump dies mid-pass: batches it
// had already written into the doomed socket stayed flagged sent, the
// next replay skipped them, and the manager's cumulative ack for a later
// sequence (gaps are legal — eviction creates them) released them without
// delivery. The fake manager here never acks on the first connection,
// accepts the resume on the second and immediately resets it mid-replay,
// then behaves on the third — which must receive every sequence.
func TestReplayAbortRetransmitsWrittenPrefix(t *testing.T) {
	eachMode(t, testReplayAbort)
}

func testReplayAbort(t *testing.T, m mode) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Enough queued bytes that the second connection's replay overflows
	// the loopback socket buffers (the kernel autotunes the send buffer
	// up to ~4 MiB) and blocks mid-pass: 330 batches of 16 KiB ≈ 5.4 MiB.
	const conn1Batches = 330
	payload := make([]byte, 16<<10)

	reset := func(raw net.Conn) {
		if tc, ok := raw.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		raw.Close()
	}
	var mu sync.Mutex
	seqs := make(map[int][]uint64) // connection ordinal → batch seqs received
	conn1Done := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 1; ; n++ {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			wc := wire.NewConn(raw)
			msg, err := wc.Recv()
			if err != nil {
				raw.Close()
				continue
			}
			hello, ok := msg.(*wire.Hello)
			if !ok {
				raw.Close()
				continue
			}
			ack := &wire.HelloAck{Node: 1, Resumed: hello.Resume, Version: wire.ProtocolVersion}
			if wc.Send(ack) != nil {
				raw.Close()
				continue
			}
			if n == 2 {
				// Read nothing: the replay pump fills the socket buffers,
				// marks those batches sent, and blocks. Then reset the
				// link so the blocked write fails partway through the
				// replay pass.
				time.Sleep(50 * time.Millisecond)
				reset(raw)
				continue
			}
			conn := n
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer raw.Close()
				for {
					msg, err := wc.Recv()
					if err != nil {
						return
					}
					var seq uint64
					switch b := msg.(type) {
					case *wire.DataBatch:
						seq = b.Seq
					case *wire.RelayBatch:
						seq = b.Seq
					default:
						continue
					}
					mu.Lock()
					seqs[conn] = append(seqs[conn], seq)
					got := len(seqs[conn])
					mu.Unlock()
					if conn == 1 {
						// Never ack; once the queue holds well over a
						// socket buffer's worth of unacked batches, cut.
						if got == conn1Batches {
							reset(raw)
							close(conn1Done)
							return
						}
						continue
					}
					if wc.Send(&wire.DataAck{Seq: seq}) != nil {
						return
					}
				}
			}()
			if conn >= 3 {
				return // accept loop done; connection 3 is the keeper
			}
		}
	}()

	s := dialFake(t, ln.Addr().String(), m, func(c *Config) {
		c.QueueBytes = 16 << 20 // hold the whole backlog; no eviction
	})
	defer s.Close(func() {}) // ends connection 3's reader before wg.Wait
	for i := 0; i < conn1Batches; i++ {
		s.Enqueue(payload, 1)
		s.Pump()
	}
	<-conn1Done

	// The sender must reconnect (twice: the mid-replay reset, then the
	// good connection) and drain its whole queue.
	waitFor(t, 10*time.Second, func() bool { return s.Online() && s.QueuedBytes() == 0 })
	if d := s.cfg.Counters.Dropped.Value(); d != 0 {
		t.Fatalf("Dropped = %d, want 0", d)
	}
	mu.Lock()
	defer mu.Unlock()
	got := make(map[uint64]bool, len(seqs[3]))
	for _, q := range seqs[3] {
		got[q] = true
	}
	for q := uint64(1); q <= conn1Batches; q++ {
		if !got[q] {
			t.Errorf("seq %d never delivered on the surviving connection (conn3 saw %d batches)", q, len(seqs[3]))
		}
	}
}
