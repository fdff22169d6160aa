package ism

import (
	"io"
	"net"
	"testing"
	"time"

	"brisk/internal/exs"
	"brisk/internal/faultnet"
	"brisk/internal/sensor"
	"brisk/internal/shm"
	"brisk/internal/wire"
)

// waitUntil polls cond until it holds or the timeout passes.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestResumeExactlyOnceThroughFaultyLink is the flagship fault-injection
// test: an external sensor streams records through a faultnet proxy that
// severs the link mid-frame several times. The sensor must reconnect and
// resume its session, and the manager's output must contain every record
// exactly once — no gaps (retransmission works) and no duplicates
// (sequence dedupe works) — with the same node id throughout.
func TestResumeExactlyOnceThroughFaultyLink(t *testing.T) {
	m := newManager(t, Config{})
	proxy, err := faultnet.Listen(m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	region := shm.NewRegion()
	e, err := exs.Dial(exs.Config{
		ManagerAddr:          proxy.Addr(),
		NodeName:             "flaky",
		Region:               region,
		FlushInterval:        time.Millisecond,
		PollInterval:         200 * time.Microsecond,
		ReconnectBase:        2 * time.Millisecond,
		ReconnectMax:         10 * time.Millisecond,
		MaxReconnectAttempts: -1,
		Logf:                 quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	node := e.Node()
	s := sensor.New(region, "app", sensor.Options{})

	const rounds = 4
	const perRound = 200
	seq := int32(0)
	for r := 0; r < rounds; r++ {
		if r > 0 {
			// Sever deterministically mid-frame: 7 more upstream bytes
			// pass, then the link dies — a frame header is 5 bytes, so
			// this round's first DATA frame is truncated in its body.
			proxy.CutAfter(7)
		}
		for i := 0; i < perRound; i++ {
			for !s.Notice2i(1, seq, 0) {
				time.Sleep(time.Microsecond)
			}
			seq++
		}
		e.Flush()
		if r > 0 {
			waitUntil(t, 10*time.Second, "reconnect", func() bool {
				st := e.Stats()
				return st.Online && st.Reconnects >= uint64(r)
			})
		}
	}
	const total = rounds * perRound

	// Everything must land and be acknowledged: the sensor's retransmit
	// queue drains to zero only once the manager accepted every batch.
	waitUntil(t, 15*time.Second, "all records acknowledged", func() bool {
		st := e.Stats()
		return st.Online && st.QueuedBytes == 0 && st.Sent == total
	})
	waitUntil(t, 15*time.Second, "all records emitted", func() bool {
		return m.Stats().Emitted >= total
	})

	got := drainCursor(t, m, total, 15*time.Second)
	seen := make(map[int64]int)
	for _, r := range got {
		seen[r.Fields[1].Int()]++
		if r.Node != node {
			t.Fatalf("record attributed to node %d, want %d", r.Node, node)
		}
	}
	for i := int64(0); i < total; i++ {
		switch seen[i] {
		case 1:
		case 0:
			t.Fatalf("record %d lost across reconnects (gap)", i)
		default:
			t.Fatalf("record %d delivered %d times (duplicate)", i, seen[i])
		}
	}
	if len(got) != total {
		t.Fatalf("emitted %d records, want exactly %d", len(got), total)
	}

	st := m.Stats()
	if st.ResumedSessions < uint64(rounds-1) {
		t.Fatalf("ResumedSessions = %d, want >= %d", st.ResumedSessions, rounds-1)
	}
	if e.Node() != node {
		t.Fatalf("node id changed across resume: %d -> %d", node, e.Node())
	}
	// One logical node: one connection, one session, and therefore one
	// clock-sync slave entry when rounds run.
	if st.Connected != 1 || st.Sessions != 1 {
		t.Fatalf("Connected=%d Sessions=%d, want 1/1", st.Connected, st.Sessions)
	}
	if es := e.Stats(); es.Reconnects < uint64(rounds-1) || es.Retransmits == 0 {
		t.Fatalf("exs stats: %+v — expected reconnects and retransmits", es)
	}
}

// dialRaw opens a raw wire client and completes the HELLO exchange.
func dialRaw(t *testing.T, m *Manager, session uint64, resume bool) (*wire.Conn, *wire.HelloAck, func()) {
	t.Helper()
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(raw)
	if err := wc.Send(&wire.Hello{
		Version: wire.ProtocolVersion, Name: "raw", Session: session, Resume: resume,
	}); err != nil {
		t.Fatal(err)
	}
	msg, err := wc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := msg.(*wire.HelloAck)
	if !ok {
		t.Fatalf("expected HELLO_ACK, got %v", msg.Type())
	}
	return wc, ack, func() { raw.Close() }
}

// recvAck reads frames until a DATA_ACK arrives (skipping heartbeats).
func recvAck(t *testing.T, wc *wire.Conn) *wire.DataAck {
	t.Helper()
	for {
		msg, err := wc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if a, ok := msg.(*wire.DataAck); ok {
			return a
		}
	}
}

// TestSequenceDedupeAndResumeHandshake drives the session protocol with
// handcrafted frames: replayed sequence numbers are dropped and re-acked,
// and a resumed HELLO reports the node id and high-water mark.
func TestSequenceDedupeAndResumeHandshake(t *testing.T) {
	m := newManager(t, Config{HeartbeatInterval: -1})
	const session = 0xABCD
	payload := newRecordBytes(t)

	wc, ack, closeFn := dialRaw(t, m, session, false)
	if ack.Resumed || ack.LastSeq != 0 {
		t.Fatalf("fresh session acked as resumed: %+v", ack)
	}
	node := ack.Node

	if err := wc.Send(&wire.DataBatch{Seq: 1, Count: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if a := recvAck(t, wc); a.Seq != 1 {
		t.Fatalf("ack seq = %d, want 1", a.Seq)
	}
	// Replay the same batch: dropped, but re-acked so the sender drains.
	if err := wc.Send(&wire.DataBatch{Seq: 1, Count: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if a := recvAck(t, wc); a.Seq != 1 {
		t.Fatalf("replay re-ack seq = %d, want 1", a.Seq)
	}
	// Decode runs on the session's worker, so Received trails the ack.
	waitUntil(t, 5*time.Second, "replay dropped", func() bool {
		st := m.Stats()
		return st.DedupedBatches == 1 && st.Received == 1
	})
	closeFn()
	waitUntil(t, 5*time.Second, "detach", func() bool { return m.Stats().Connected == 0 })

	// Resume: same node id, high-water mark reported, replays still dropped.
	wc2, ack2, closeFn2 := dialRaw(t, m, session, true)
	defer closeFn2()
	if !ack2.Resumed || ack2.Node != node || ack2.LastSeq != 1 {
		t.Fatalf("resume ack = %+v, want Resumed node=%d lastSeq=1", ack2, node)
	}
	if err := wc2.Send(&wire.DataBatch{Seq: 1, Count: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if a := recvAck(t, wc2); a.Seq != 1 {
		t.Fatalf("post-resume re-ack seq = %d", a.Seq)
	}
	if err := wc2.Send(&wire.DataBatch{Seq: 2, Count: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if a := recvAck(t, wc2); a.Seq != 2 {
		t.Fatalf("new batch ack seq = %d, want 2", a.Seq)
	}
	waitUntil(t, 5*time.Second, "final stats", func() bool {
		st := m.Stats()
		return st.DedupedBatches == 2 && st.Received == 2 && st.ResumedSessions == 1
	})
}

// TestSessionRetentionExpiry verifies a detached session past the
// retention window loses its identity: a later resume gets a fresh node.
func TestSessionRetentionExpiry(t *testing.T) {
	m := newManager(t, Config{
		HeartbeatInterval: 5 * time.Millisecond, // drives the purge loop
		SessionRetention:  10 * time.Millisecond,
	})
	_, ack, closeFn := dialRaw(t, m, 99, false)
	closeFn()
	waitUntil(t, 5*time.Second, "session expiry", func() bool { return m.Stats().Sessions == 0 })

	_, ack2, closeFn2 := dialRaw(t, m, 99, true)
	defer closeFn2()
	if ack2.Resumed {
		t.Fatal("expired session resumed")
	}
	if ack2.Node == ack.Node {
		t.Fatalf("expired session kept node id %d", ack.Node)
	}
}

// TestHeartbeatReapsSilentPeer verifies a half-open connection — one that
// never answers pings — is detected and severed.
func TestHeartbeatReapsSilentPeer(t *testing.T) {
	m := newManager(t, Config{HeartbeatInterval: 10 * time.Millisecond})
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	wc := wire.NewConn(raw)
	if err := wc.Send(&wire.Hello{Version: wire.ProtocolVersion, Name: "mute"}); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Recv(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "attach", func() bool { return m.Stats().Connected == 1 })
	// Say nothing, answer nothing. The manager must reap us.
	waitUntil(t, 10*time.Second, "dead-peer reap", func() bool {
		st := m.Stats()
		return st.Connected == 0 && st.DeadPeers >= 1
	})
}

// TestResumeOverlapAcceptsBatchOnce: a reader evicted by a resume can
// still be inside acceptBatch, blocked on a full decode queue with a
// batch it has not yet recorded in lastSeq. The resumed sender replays
// that batch on the new connection. Exactly one of the two copies may
// reach the decode worker; the other must be deduped.
func TestResumeOverlapAcceptsBatchOnce(t *testing.T) {
	m := newManager(t, Config{})
	sess := &session{id: 1, node: 1, lastSeq: 4,
		work: make(chan pending, 1), free: make(chan []byte, 2), quit: make(chan struct{})}
	sess.work <- pending{} // the worker is behind: the queue is full
	link := func() *wire.Conn {
		a, b := net.Pipe()
		t.Cleanup(func() { a.Close(); b.Close() })
		go io.Copy(io.Discard, b) // the sender reading its acks
		return wire.NewConn(a)
	}
	accepted := make(chan bool, 2)
	accept := func(wc *wire.Conn) {
		payload := []byte{1}
		accepted <- m.acceptBatch(wc, sess, 5, 1, &payload, false)
	}
	go accept(link()) // the old connection's reader
	waitUntil(t, 5*time.Second, "old reader blocked on the queue", func() bool { return m.queueStalls.Value() == 1 })
	go accept(link()) // the resumed connection's reader, same batch replayed
	time.Sleep(20 * time.Millisecond)

	<-sess.work // the worker takes the filler
	queued, returned := 0, 0
	for returned < 2 {
		select {
		case <-sess.work:
			queued++
		case ok := <-accepted:
			if !ok {
				t.Fatal("acceptBatch dropped a live connection")
			}
			returned++
		case <-time.After(5 * time.Second):
			t.Fatalf("readers stuck: %d returned, %d batches queued", returned, queued)
		}
	}
	for len(sess.work) > 0 {
		<-sess.work
		queued++
	}
	if queued != 1 {
		t.Fatalf("batch 5 reached the decode worker %d times, want once", queued)
	}
	if sess.lastSeq != 5 {
		t.Fatalf("lastSeq = %d, want 5", sess.lastSeq)
	}
}
