package ism

import (
	"net"
	"testing"

	"brisk/internal/clocksync"
	"brisk/internal/wire"
)

// TestHelloVersionNegotiation covers the manager's side of the HELLO
// version check: a current peer gets its version echoed, and any other
// version is refused at the handshake instead of aborting later
// mid-stream.
func TestHelloVersionNegotiation(t *testing.T) {
	m := newManager(t, Config{})

	dial := func(version uint32, name string) (*wire.Conn, func()) {
		t.Helper()
		raw, err := net.Dial("tcp", m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		wc := wire.NewConn(raw)
		if err := wc.Send(&wire.Hello{Version: version, Name: name}); err != nil {
			t.Fatal(err)
		}
		return wc, func() { raw.Close() }
	}

	// A current peer gets its version echoed.
	wc, closeFn := dial(wire.ProtocolVersion, "current")
	msg, err := wc.Recv()
	if err != nil {
		t.Fatalf("v%d hello refused: %v", wire.ProtocolVersion, err)
	}
	ack, ok := msg.(*wire.HelloAck)
	if !ok {
		t.Fatalf("got %v, want HELLO_ACK", msg.Type())
	}
	if ack.Version != wire.ProtocolVersion {
		t.Fatalf("ack Version = %d, want %d", ack.Version, wire.ProtocolVersion)
	}
	closeFn()

	// An older or newer peer is refused: the manager closes the
	// connection without an ack.
	for _, v := range []uint32{wire.ProtocolVersion - 1, wire.ProtocolVersion + 1} {
		wc, closeFn = dial(v, "timetraveler")
		if msg, err := wc.Recv(); err == nil {
			t.Fatalf("version %d accepted with %v", v, msg.Type())
		}
		closeFn()
	}
}

// TestSyncDriftGaugePruned verifies that brisk_sync_drift_ppm series of
// departed nodes are unregistered, so a long-lived manager with churning
// node ids does not accumulate gauges without bound.
func TestSyncDriftGaugePruned(t *testing.T) {
	m := newManager(t, Config{})
	rep := clocksync.RoundReport{
		DriftPPM:      []float64{1.5},
		UncertaintyUS: []float64{10},
	}
	m.publishSyncModel([]int32{1}, rep)
	m.publishSyncModel([]int32{2}, rep)
	// Node 1 is gone; once the gauge map outgrows the fleet it is pruned.
	m.publishSyncModel([]int32{2}, rep)
	if len(m.driftGauges) != 1 {
		t.Fatalf("driftGauges holds %d entries after churn, want 1", len(m.driftGauges))
	}
	for _, fam := range m.Metrics().Snapshot() {
		if fam.Name != "brisk_sync_drift_ppm" {
			continue
		}
		if len(fam.Series) != 1 {
			t.Fatalf("registry holds %d drift series, want 1", len(fam.Series))
		}
		s := fam.Series[0]
		if len(s.Labels) != 1 || s.Labels[0].Value != "2" {
			t.Fatalf("surviving drift series labels = %+v, want slave=2", s.Labels)
		}
		return
	}
	t.Fatal("brisk_sync_drift_ppm family missing from snapshot")
}
