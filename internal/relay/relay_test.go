package relay

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"brisk/internal/faultnet"
	"brisk/internal/ism"
	"brisk/internal/ols"
	"brisk/internal/record"
	"brisk/internal/wire"
)

func quietLog(string, ...any) {}

// newRoot builds a root manager for relay tests: tiny sorter window so
// system-clock records age out fast, heartbeats off for quiet links.
func newRoot(t *testing.T, mut func(*ism.Config)) *ism.Manager {
	t.Helper()
	cfg := ism.Config{
		Addr:              "127.0.0.1:0",
		Sorter:            ols.Config{InitialT: 2000},
		MergeInterval:     time.Millisecond,
		HeartbeatInterval: -1,
		Logf:              quietLog,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := ism.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	return m
}

// testISM is the downstream sub-config relay tests hand to New.
func testISM() ism.Config {
	return ism.Config{
		Sorter:            ols.Config{InitialT: 2000},
		MergeInterval:     time.Millisecond,
		HeartbeatInterval: -1,
		Logf:              quietLog,
	}
}

// rawLeaf is a hand-driven sensor session attached to a relay.
type rawLeaf struct {
	t    *testing.T
	raw  net.Conn
	conn *wire.Conn
	node int32
	seq  uint64
}

// dialLeaf opens a raw wire session against addr. Sessions dialed
// serially get deterministic node ids.
func dialLeaf(t *testing.T, addr string, session uint64) *rawLeaf {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(raw)
	if err := wc.Send(&wire.Hello{Version: wire.ProtocolVersion, Name: "leaf", Session: session}); err != nil {
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
	return &rawLeaf{t: t, raw: raw, conn: wc, node: ack.Node}
}

// send ships one batch of records and returns its sequence number.
func (l *rawLeaf) send(recs ...record.Record) uint64 {
	l.t.Helper()
	var payload []byte
	var err error
	for i := range recs {
		payload, err = recs[i].Append(payload)
		if err != nil {
			l.t.Fatal(err)
		}
	}
	l.seq++
	if err := l.conn.Send(&wire.DataBatch{Seq: l.seq, Count: uint32(len(recs)), Payload: payload}); err != nil {
		l.t.Fatal(err)
	}
	return l.seq
}

// waitAck blocks until a DataAck with Seq ≥ seq arrives. Sync-master
// probes are answered from the tests' pinned skew-free clock (time 1);
// any other frame is skipped.
func (l *rawLeaf) waitAck(seq uint64) {
	l.t.Helper()
	for {
		msg, err := l.conn.Recv()
		if err != nil {
			l.t.Fatalf("waiting for ack %d: %v", seq, err)
		}
		switch f := msg.(type) {
		case *wire.DataAck:
			if f.Seq >= seq {
				return
			}
		case *wire.Probe:
			reply := &wire.ProbeReply{Seq: f.Seq, MasterSend: f.MasterSend, SlaveTime: 1}
			if err := l.conn.Send(reply); err != nil {
				l.t.Fatal(err)
			}
		}
	}
}

func (l *rawLeaf) close() {
	l.conn.Send(&wire.Bye{})
	l.raw.Close()
}

// drained is one record pulled off the root's merged output.
type drained struct {
	rec    record.Record
	marker bool
}

// drainRoot consumes the root cursor until want records (markers
// included) have arrived or the deadline passes.
func drainRoot(t *testing.T, m *ism.Manager, want int, deadline time.Duration) []drained {
	t.Helper()
	cur := m.NewCursor()
	limit := time.Now().Add(deadline)
	var out []drained
	for len(out) < want {
		raw, lost, ok := cur.TryNext()
		if lost > 0 {
			t.Fatalf("root cursor lost %d records", lost)
		}
		if !ok {
			if !time.Now().Before(limit) {
				t.Fatalf("drained %d of %d records before deadline", len(out), want)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		rec, err := ism.DecodeBuffered(raw)
		if err != nil {
			t.Fatal(err)
		}
		rec.Detach()
		out = append(out, drained{rec: rec, marker: record.IsLossMarker(&rec)})
	}
	return out
}

// TestRelayForwardsAndRebases pushes two leaves' interleaved streams
// through one relay and checks the root sees every record exactly once,
// attributed to its NodeBase-rebased origin, in per-source FIFO order.
func TestRelayForwardsAndRebases(t *testing.T) {
	root := newRoot(t, nil)
	defer root.Close()
	rl, err := New(Config{
		Addr:          "127.0.0.1:0",
		Parent:        root.Addr(),
		NodeBase:      500,
		ISM:           testISM(),
		FlushInterval: time.Millisecond,
		Logf:          quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()

	leaves := []*rawLeaf{dialLeaf(t, rl.Addr(), 0xA1), dialLeaf(t, rl.Addr(), 0xA2)}
	if leaves[0].node != 1 || leaves[1].node != 2 {
		t.Fatalf("serial connects got node ids %d,%d; want 1,2", leaves[0].node, leaves[1].node)
	}
	const perLeaf = 120
	for i := 0; i < perLeaf; i++ {
		for li, l := range leaves {
			ts := time.Now().UnixMicro()
			seq := l.send(record.New(uint8(10+li), record.TSVal(ts), record.I32Val(int32(i))))
			l.waitAck(seq)
		}
	}
	for _, l := range leaves {
		l.close()
	}

	out := drainRoot(t, root, 2*perLeaf, 10*time.Second)
	lastSeq := map[int32]int32{501: -1, 502: -1}
	for _, d := range out {
		if d.marker {
			t.Fatal("unexpected loss marker in a lossless run")
		}
		prev, known := lastSeq[d.rec.Node]
		if !known {
			t.Fatalf("record attributed to unexpected node %d", d.rec.Node)
		}
		seq := d.rec.Fields[1].Int()
		if int32(seq) <= prev {
			t.Fatalf("node %d: seq %d after %d — per-source FIFO broken", d.rec.Node, seq, prev)
		}
		lastSeq[d.rec.Node] = int32(seq)
	}
	for node, last := range lastSeq {
		if last != perLeaf-1 {
			t.Fatalf("node %d: last seq %d, want %d", node, last, perLeaf-1)
		}
	}
	st := rl.Stats()
	if st.Forwarded != 2*perLeaf || st.Shipped != 2*perLeaf || st.Dropped != 0 {
		t.Fatalf("relay stats forwarded=%d shipped=%d dropped=%d, want %d/%d/0",
			st.Forwarded, st.Shipped, st.Dropped, 2*perLeaf, 2*perLeaf)
	}
	if got := root.Stats().RelayBatches; got == 0 {
		t.Error("root counted no relay batches")
	}
}

// TestRelayBackpressureComposes stalls the uplink and checks the halt
// propagates DOWN: the unacknowledged uplink backlog counts toward the
// relay's ack-gate occupancy, so the relay defers its leaves' acks while
// the parent withholds its own — the PR 4 contract composed across
// tiers. After the stall heals, everything drains exactly once.
func TestRelayBackpressureComposes(t *testing.T) {
	root := newRoot(t, nil)
	defer root.Close()
	proxy, err := faultnet.Listen(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	icfg := testISM()
	icfg.AckHighWater = 48
	icfg.AckLowWater = 24
	rl, err := New(Config{
		Addr:          "127.0.0.1:0",
		Parent:        proxy.Addr(),
		ISM:           icfg,
		FlushInterval: time.Millisecond,
		Logf:          quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()

	leaf := dialLeaf(t, rl.Addr(), 0xB1)
	acked := make(chan uint64, 1024)
	go func() {
		for {
			msg, err := leaf.conn.Recv()
			if err != nil {
				close(acked)
				return
			}
			if a, ok := msg.(*wire.DataAck); ok {
				acked <- a.Seq
			}
		}
	}()

	proxy.Stall(true)
	const batches, perBatch = 40, 5
	for b := 0; b < batches; b++ {
		recs := make([]record.Record, perBatch)
		for i := range recs {
			recs[i] = record.New(7, record.TSVal(time.Now().UnixMicro()),
				record.I32Val(int32(b*perBatch+i)))
		}
		leaf.send(recs...)
		time.Sleep(500 * time.Microsecond)
	}

	// The backlog (stalled uplink, no parent acks) must push the relay's
	// gate over AckHighWater and defer leaf acks.
	deadline := time.Now().Add(5 * time.Second)
	for rl.Stats().ISM.AckDeferred == 0 {
		if !time.Now().Before(deadline) {
			st := rl.Stats()
			t.Fatalf("relay never deferred leaf acks: backlog=%d ism=%+v", st.BacklogRecords, st.ISM)
		}
		time.Sleep(time.Millisecond)
	}
	if got := rl.Stats().BacklogRecords; got < 48 {
		t.Errorf("gate closed with backlog %d < high water 48", got)
	}

	proxy.Stall(false)
	var last uint64
	for seq := range acked {
		if seq > last {
			last = seq
		}
		if last == uint64(batches) {
			break
		}
	}
	if last != uint64(batches) {
		t.Fatalf("final leaf ack %d, want %d", last, batches)
	}
	leaf.close()

	out := drainRoot(t, root, batches*perBatch, 10*time.Second)
	seen := map[int64]bool{}
	for _, d := range out {
		if d.marker {
			t.Fatal("loss marker in a stall-only run (nothing may be dropped)")
		}
		k := d.rec.Fields[1].Int()
		if seen[k] {
			t.Fatalf("record %d emitted twice", k)
		}
		seen[k] = true
	}
	if st := rl.Stats(); st.CreditStalls+st.ISM.AckDeferred == 0 {
		t.Error("no backpressure observed at all")
	}
}

// TestRelayReconnectResume cuts the uplink mid-stream: the relay must
// redial, resume its session, and replay unacknowledged batches with the
// root deduplicating — every record exactly once, none lost.
func TestRelayReconnectResume(t *testing.T) {
	root := newRoot(t, nil)
	defer root.Close()
	proxy, err := faultnet.Listen(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	rl, err := New(Config{
		Addr:                 "127.0.0.1:0",
		Parent:               proxy.Addr(),
		ISM:                  testISM(),
		FlushInterval:        time.Millisecond,
		ReconnectBase:        2 * time.Millisecond,
		ReconnectMax:         20 * time.Millisecond,
		MaxReconnectAttempts: -1,
		Logf:                 quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()

	leaf := dialLeaf(t, rl.Addr(), 0xC1)
	const total = 400
	for i := 0; i < total; i++ {
		seq := leaf.send(record.New(9, record.TSVal(time.Now().UnixMicro()), record.I32Val(int32(i))))
		leaf.waitAck(seq)
		if i == total/3 {
			proxy.CutNow()
		}
		if i == 2*total/3 {
			proxy.CutNow()
		}
	}
	leaf.close()

	out := drainRoot(t, root, total, 15*time.Second)
	seen := map[int64]bool{}
	for _, d := range out {
		if d.marker {
			t.Fatal("loss marker after cut+resume (resume must be lossless)")
		}
		k := d.rec.Fields[1].Int()
		if seen[k] {
			t.Fatalf("record %d emitted twice after resume", k)
		}
		seen[k] = true
	}
	if st := rl.Stats(); st.Reconnects < 1 {
		t.Fatalf("relay never reconnected (stats %+v)", st)
	}
	if rs := root.Stats().ResumedSessions; rs < 1 {
		t.Error("root recorded no resumed sessions")
	}
}

// TestRelayCloseFlushesTail checks shutdown ordering: records still
// buffered in the relay's sorter at Close must flush downstream-first
// through the uplink before the link closes — nothing acked to a leaf
// may vanish.
func TestRelayCloseFlushesTail(t *testing.T) {
	root := newRoot(t, nil)
	defer root.Close()
	// A wide relay sorter window parks everything in the relay's sorter
	// so only Close's ordered flush can deliver it.
	icfg := testISM()
	icfg.Sorter = ols.Config{InitialT: 60_000_000}
	rl, err := New(Config{
		Addr:          "127.0.0.1:0",
		Parent:        root.Addr(),
		ISM:           icfg,
		FlushInterval: time.Millisecond,
		Logf:          quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}

	leaf := dialLeaf(t, rl.Addr(), 0xD1)
	const total = 64
	for i := 0; i < total; i++ {
		seq := leaf.send(record.New(3, record.TSVal(time.Now().UnixMicro()), record.I32Val(int32(i))))
		leaf.waitAck(seq)
	}
	leaf.close()
	if err := rl.Close(); err != nil {
		t.Fatalf("relay close: %v", err)
	}
	if st := rl.Stats(); st.Dropped != 0 || st.Forwarded != total {
		t.Fatalf("close dropped acked records: %+v", st)
	}
	out := drainRoot(t, root, total, 10*time.Second)
	for i, d := range out {
		if d.marker {
			t.Fatalf("record %d is a loss marker", i)
		}
	}
}

// TestRelayConfigValidation covers the constructor's error paths.
func TestRelayConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Addr: "127.0.0.1:0", Parent: "127.0.0.1:1",
		DialTimeout: 50 * time.Millisecond, ISM: testISM(), Logf: quietLog}); err == nil {
		t.Error("unreachable parent accepted")
	}
}

// Stats stringer smoke so failures print usefully.
func TestStatsSnapshot(t *testing.T) {
	root := newRoot(t, nil)
	defer root.Close()
	rl, err := New(Config{Addr: "127.0.0.1:0", Parent: root.Addr(), ISM: testISM(), Logf: quietLog})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	st := rl.Stats()
	if !st.Online || st.Session == 0 {
		t.Fatalf("fresh relay not online: %s", fmt.Sprintf("%+v", st))
	}
	if st.CreditWindow == 0 {
		t.Errorf("credit window %d: 0 is neither a grant nor the -1 no-flow-control marker", st.CreditWindow)
	}
}

// TestReconnectRandReachesLiveRelay verifies New wires Config's source
// into the running relay: an outage's backoff draws from it.
func TestReconnectRandReachesLiveRelay(t *testing.T) {
	root := newRoot(t, nil)
	defer root.Close()
	var calls atomic.Int64
	rl, err := New(Config{
		Addr:                 "127.0.0.1:0",
		Parent:               root.Addr(),
		ISM:                  testISM(),
		ReconnectBase:        2 * time.Millisecond,
		ReconnectMax:         10 * time.Millisecond,
		MaxReconnectAttempts: 2,
		ReconnectRand:        func() float64 { calls.Add(1); return 0.5 },
		Logf:                 quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	root.Close() // sever the parent: the uplink enters its retry schedule
	deadline := time.Now().Add(10 * time.Second)
	for calls.Load() == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("outage backoff never drew from the injected jitter source")
		}
		time.Sleep(time.Millisecond)
	}
}

// closeWithin runs rl.Close on its own goroutine and fails the test if it
// has not returned by the limit.
func closeWithin(t *testing.T, rl *Relay, limit time.Duration) {
	t.Helper()
	closed := make(chan struct{})
	go func() { rl.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(limit):
		t.Fatalf("Relay.Close still blocked after %v", limit)
	}
}

// TestRelayCloseBoundedAgainstStalledParent wedges the uplink the way a
// hung parent does — the link stays open but nothing is read, so the
// socket buffers fill and the uplink pump blocks mid-write — and checks
// Close still returns within the sender's grace period instead of waiting
// forever on that write. What the parent never took is counted dropped.
func TestRelayCloseBoundedAgainstStalledParent(t *testing.T) {
	root := newRoot(t, nil)
	defer root.Close()
	proxy, err := faultnet.Listen(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	rl, err := New(Config{
		Addr:          "127.0.0.1:0",
		Parent:        proxy.Addr(),
		ISM:           testISM(),
		FlushInterval: time.Millisecond,
		Logf:          quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy.Stall(true)

	// Flood far more than the loopback socket buffers between the relay
	// and the stalled proxy can hold (a few MiB each way once autotuned).
	// Once the uplink wedges, back-pressure reaches the leaf and its own
	// writes block, so the flood runs beside the test.
	leaf := dialLeaf(t, rl.Addr(), 0xE1)
	go func() { // keep the leaf's acks drained
		for {
			if _, err := leaf.conn.Recv(); err != nil {
				return
			}
		}
	}()
	var payload []byte
	for i := 0; i < 16; i++ {
		rec := record.New(5, record.TSVal(time.Now().UnixMicro()), record.StrVal(string(make([]byte, 4000))))
		if payload, err = rec.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	const batches = 512 // ≈ 32 MiB
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		for seq := uint64(1); seq <= batches; seq++ {
			if leaf.conn.Send(&wire.DataBatch{Seq: seq, Count: 16, Payload: payload}) != nil {
				return
			}
		}
	}()
	// The uplink pump is wedged once forwarding stops moving.
	last, stable := rl.forwarded.Value(), time.Now()
	for time.Since(stable) < 300*time.Millisecond {
		time.Sleep(10 * time.Millisecond)
		if now := rl.forwarded.Value(); now != last || now == 0 {
			last, stable = now, time.Now()
		}
	}
	if last == batches*16 {
		t.Skip("socket buffers swallowed the whole flood; cannot wedge the uplink on this host")
	}

	closeWithin(t, rl, 6*time.Second)
	leaf.raw.Close()
	<-flooded
	if st := rl.Stats(); st.Dropped == 0 || st.BacklogRecords != 0 {
		t.Fatalf("undeliverable tail not accounted: %+v", st)
	}
}

// TestRelayCloseAbortsSilentRedial closes a relay whose uplink is midway
// through a redial that reached a peer which accepts and then says
// nothing (a black-holed handshake). Close must cut the attempt short
// rather than sit out DialTimeout.
func TestRelayCloseAbortsSilentRedial(t *testing.T) {
	root := newRoot(t, nil)
	defer root.Close()
	proxy, err := faultnet.Listen(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	rl, err := New(Config{
		Addr:                 "127.0.0.1:0",
		Parent:               proxy.Addr(),
		ISM:                  testISM(),
		DialTimeout:          time.Minute,
		ReconnectBase:        2 * time.Millisecond,
		ReconnectMax:         10 * time.Millisecond,
		MaxReconnectAttempts: -1,
		Logf:                 quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy.Stall(true) // new links are accepted, then relay nothing
	proxy.CutNow()
	deadline := time.Now().Add(10 * time.Second)
	for proxy.Accepted() < 2 { // the redial is in: its HELLO will never be answered
		if !time.Now().Before(deadline) {
			t.Fatal("relay never redialed")
		}
		time.Sleep(time.Millisecond)
	}
	closeWithin(t, rl, 5*time.Second)
}

// TestForwardShiftsTimestampsIntoParentFrame: with a correction on the
// relay's clock, every forwarded timestamp — of a data record, which
// reaches the uplink as bytes, and of a loss marker the downstream
// manager synthesized from values — arrives at the root shifted by it,
// while the relay's own sinks keep the relay-frame time. (The shift used
// to edit only the record's header, which the value encoder never read.)
func TestForwardShiftsTimestampsIntoParentFrame(t *testing.T) {
	root := newRoot(t, nil)
	defer root.Close()
	rl, err := New(Config{
		Addr:          "127.0.0.1:0",
		Parent:        root.Addr(),
		ISM:           testISM(),
		FlushInterval: time.Millisecond,
		Logf:          quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	const corr = 250_000
	rl.Clock().Adjust(corr)

	ts := time.Now().UnixMicro()
	data := record.New(3, record.I32Val(1), record.TSVal(ts))
	marker := record.NewLossMarker(5, ts-10, ts+1)
	marker.Node = 9
	rl.forward(&marker) // what harvestLosses hands the Forward tap
	if marker.TS != ts+1 || marker.Fields[0] != record.TSVal(ts+1) {
		t.Fatalf("forward left the borrowed marker shifted: %+v", marker)
	}
	leaf := dialLeaf(t, rl.Addr(), 0xC0)
	leaf.waitAck(leaf.send(data))
	leaf.close()

	local := drainRoot(t, rl.mgr, 1, 10*time.Second)
	if got := local[0].rec.TS; got != ts {
		t.Fatalf("relay's own sink saw ts %d, want the relay-frame %d", got, ts)
	}
	for _, d := range drainRoot(t, root, 2, 10*time.Second) {
		want := ts + corr
		if d.marker {
			want = ts + 1 + corr
		}
		if d.rec.TS != want {
			t.Fatalf("root saw ts %d (marker=%v), want %d: the hop correction of %d was not applied",
				d.rec.TS, d.marker, want, corr)
		}
	}
}
