package ism

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"brisk/internal/exs"
	"brisk/internal/faultnet"
	"brisk/internal/ols"
	"brisk/internal/record"
	"brisk/internal/sensor"
	"brisk/internal/shm"
	"brisk/internal/wire"
)

// TestCreditDisabledByDefault pins backward compatibility: without a
// sorter bound the manager runs without flow control, its acks carry a
// zero window, and the sensor reports credit as disabled.
func TestCreditDisabledByDefault(t *testing.T) {
	m := newManager(t, Config{})
	e, region := newNode(t, m, "n1", nil)
	s := sensor.New(region, "app", sensor.Options{})
	for i := 0; i < 50; i++ {
		s.Notice2i(1, int32(i), 0)
	}
	drainCursor(t, m, 50, 10*time.Second)
	waitUntil(t, 5*time.Second, "queue acked", func() bool {
		return e.Stats().QueuedBytes == 0
	})
	if st := e.Stats(); st.CreditWindow != -1 || st.CreditStalls != 0 {
		t.Fatalf("flow control engaged without a bound: %+v", st)
	}
	if st := m.Stats(); st.AckDeferred != 0 || st.CreditGateClosed {
		t.Fatalf("ack gate engaged without a bound: deferred=%d closed=%v",
			st.AckDeferred, st.CreditGateClosed)
	}
}

// TestCreditWindowGranted pins that a flow-controlled manager's acks
// carry a nonzero window, visible at the sensor.
func TestCreditWindowGranted(t *testing.T) {
	m := newManager(t, Config{
		Sorter: ols.Config{InitialT: 1000, MaxBuffered: 10_000},
	})
	e, region := newNode(t, m, "n1", nil)
	s := sensor.New(region, "app", sensor.Options{})
	for i := 0; i < 50; i++ {
		s.Notice2i(1, int32(i), 0)
	}
	drainCursor(t, m, 50, 10*time.Second)
	waitUntil(t, 5*time.Second, "credit grant arrived", func() bool {
		return e.Stats().CreditWindow > 0
	})
}

// TestCreditWindowCapped pins the per-grant cap: with a sorter bound whose
// headroom (75 000 records below the high watermark) dwarfs the cap, every
// HELLO_ACK and DATA_ACK a lone raw-wire sensor receives grants exactly
// 4096 records — never the whole headroom.
func TestCreditWindowCapped(t *testing.T) {
	const wantCap = 4096
	m := newManager(t, Config{
		Sorter:            ols.Config{InitialT: 1000, MaxBuffered: 100_000},
		HeartbeatInterval: -1,
	})
	wc, ack, closeFn := dialRaw(t, m, 0xCAFE, false)
	defer closeFn()
	if ack.Window != wantCap {
		t.Fatalf("HELLO_ACK window = %d, want %d", ack.Window, wantCap)
	}
	payload := newRecordBytes(t)
	for seq := uint64(1); seq <= 20; seq++ {
		if err := wc.Send(&wire.DataBatch{Seq: seq, Count: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		if a := recvAck(t, wc); a.Seq != seq || a.Window != wantCap {
			t.Fatalf("DATA_ACK = %+v, want seq %d window %d", a, seq, wantCap)
		}
	}
}

// TestAckGateClosesUnderBacklog is the deterministic gate test: with a
// bounded sorter whose records never age out (huge T, no decay), a
// sustained stream must close the ack gate at the high watermark, defer
// acknowledgements, stall the sensor's credit, and hold sorter occupancy
// at most MaxBuffered — instead of acking everything and dropping the
// overflow on the floor.
func TestAckGateClosesUnderBacklog(t *testing.T) {
	const maxBuffered = 100
	m := newManager(t, Config{
		Sorter: ols.Config{InitialT: 60_000_000, MaxBuffered: maxBuffered},
	})
	region := shm.NewRegion()
	// Tiny batches keep the always-send-one-batch allowance well inside
	// the gap between the high watermark (75) and the hard bound.
	e, err := exs.Dial(exs.Config{
		ManagerAddr:   m.Addr(),
		NodeName:      "backlog",
		Region:        region,
		BatchBytes:    256,
		FlushInterval: time.Millisecond,
		PollInterval:  200 * time.Microsecond,
		Logf:          quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	s := sensor.New(region, "app", sensor.Options{})

	// Offer far more than the sorter may hold. The sensor keeps draining
	// the ring into its spill queue while stalled, so production never
	// wedges; the credit gate is the only thing throttling admission.
	for i := 0; i < 10*maxBuffered; i++ {
		for !s.Notice2i(1, int32(i), 0) {
			time.Sleep(20 * time.Microsecond)
		}
	}

	waitUntil(t, 15*time.Second, "ack gate closed", func() bool {
		st := m.Stats()
		return st.CreditGateClosed && st.AckDeferred > 0
	})
	waitUntil(t, 15*time.Second, "sensor stalled on credit", func() bool {
		return e.Stats().CreditStalls > 0
	})
	if got := m.Stats().SorterBuffered; got > maxBuffered {
		t.Fatalf("sorter holds %d records, bound is %d", got, maxBuffered)
	}
	// Nothing ages out, so nothing may have been emitted or dropped: the
	// gate alone must be holding the line.
	if st := m.Stats(); st.Sorter.DroppedFull != 0 {
		t.Fatalf("sorter dropped %d records despite the ack gate", st.Sorter.DroppedFull)
	}
}

// TestOverloadSoakNoSilentLoss is the overload acceptance soak: four
// sessions push a sustained backlog through flapping faultnet links into
// a manager whose sorter is bounded far below the offered load. The run
// must end with every produced record accounted for — emitted exactly
// once, or covered by a loss-marker record in the merged stream — with
// sorter occupancy never exceeding MaxBuffered and the ack gate observed
// doing its job. Run under -race via `make test-race`.
func TestOverloadSoakNoSilentLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		sessions    = 4
		perNode     = 2500
		flapEvery   = 700 // records between link cuts, per flapping node
		maxBuffered = 2000
	)
	m := newManager(t, Config{
		BufferRecords: sessions * perNode * 2,
		// Records age out only after 150 ms: the sorter is a bottleneck
		// holding a deep standing backlog, so the gate cycles open/closed
		// for the whole run.
		Sorter: ols.Config{InitialT: 150_000, MaxBuffered: maxBuffered},
	})

	type node struct {
		e     *exs.EXS
		s     *sensor.Sensor
		proxy *faultnet.Proxy
	}
	nodes := make([]*node, sessions)
	for i := range nodes {
		proxy, err := faultnet.Listen(m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { proxy.Close() })
		region := shm.NewRegion()
		e, err := exs.Dial(exs.Config{
			ManagerAddr: proxy.Addr(),
			NodeName:    fmt.Sprintf("overload-%d", i),
			Region:      region,
			// A small batch and spill bound make overload bite: flap
			// outages overflow the spill queue, and the evictions must
			// surface as loss markers rather than vanish.
			BatchBytes:           1024,
			SpillBytes:           16 << 10,
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
		nodes[i] = &node{e: e, s: sensor.New(region, "app", sensor.Options{}), proxy: proxy}
	}

	// Watch the sorter bound for the whole run.
	var maxSeen atomic.Int64
	stopSampling := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
				if b := int64(m.Stats().SorterBuffered); b > maxSeen.Load() {
					maxSeen.Store(b)
				}
			}
		}
	}()

	// All sessions produce flat out (retrying ring-full rejections, so
	// the produced total is exact); odd nodes flap their links mid-run.
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			for seq := int32(0); seq < perNode; seq++ {
				if i%2 == 1 && seq > 0 && seq%flapEvery == 0 {
					n.proxy.CutNow()
				}
				for !n.s.Notice2i(1, seq, int32(i)) {
					time.Sleep(5 * time.Microsecond)
				}
			}
			n.e.Flush()
		}(i, n)
	}
	wg.Wait()

	// Let every sensor drain what it still holds, then close them so the
	// final batches — including any marker-only batch covering tail
	// drops — are shipped and acknowledged.
	for i, n := range nodes {
		waitUntil(t, 60*time.Second, fmt.Sprintf("node %d drained", i), func() bool {
			st := n.e.Stats()
			return st.Online && st.QueuedBytes == 0
		})
	}
	for _, n := range nodes {
		if err := n.e.Close(); err != nil {
			t.Fatalf("exs close: %v", err)
		}
	}

	// Drain the merged stream until every produced record is accounted
	// for: as a data record (exactly once) or inside a loss marker.
	const total = sessions * perNode
	type ident struct{ writer, seq int32 }
	seen := make(map[ident]int)
	var markerCovered uint64
	var markers int
	cur := m.NewCursor()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		raw, lost, ok := cur.TryNext()
		if lost > 0 {
			t.Fatalf("consumer lost %d records", lost)
		}
		if !ok {
			var refused uint64
			for _, n := range nodes {
				refused += n.e.Stats().RingDropped
			}
			if uint64(len(seen))+markerCovered >= total+refused {
				break
			}
			time.Sleep(time.Millisecond)
			continue
		}
		rec, err := DecodeBuffered(raw)
		if err != nil {
			t.Fatalf("DecodeBuffered: %v", err)
		}
		if record.IsLossMarker(&rec) {
			n, first, last, _ := record.LossInfo(&rec)
			if first > last {
				t.Fatalf("loss marker range inverted: [%d, %d]", first, last)
			}
			markerCovered += n
			markers++
			continue
		}
		id := ident{writer: int32(rec.Fields[2].Int()), seq: int32(rec.Fields[1].Int())}
		if seen[id]++; seen[id] > 1 {
			t.Fatalf("record %+v emitted %d times", id, seen[id])
		}
	}
	close(stopSampling)
	samplerWG.Wait()

	emitted := len(seen)
	// Every refused Notice attempt is counted by the ring as a drop and is
	// therefore marker-covered too (the successful retry is a distinct
	// notice), so the no-silent-loss bound must hold over produced records
	// AND refused attempts together. Marker coverage may legitimately
	// exceed that floor — a sent-but-unacknowledged batch evicted during an
	// outage is conservatively marked even though the manager may have
	// delivered it — but it must never fall below it.
	var ringRefused uint64
	for _, n := range nodes {
		ringRefused += n.e.Stats().RingDropped
	}
	accounted := uint64(emitted) + markerCovered
	if accounted < total+ringRefused {
		t.Fatalf("silent loss: %d produced + %d refused attempts, but %d emitted + %d marker-covered = %d accounted",
			total, ringRefused, emitted, markerCovered, accounted)
	}
	if emitted > total {
		t.Fatalf("emitted %d distinct records from %d produced", emitted, total)
	}
	// Loss markers are exempt from the sorter bound by design (dropping
	// one would erase the testimony of a loss), so occupancy may exceed
	// MaxBuffered by at most the markers that passed through.
	if got := maxSeen.Load(); got > int64(maxBuffered+markers) {
		t.Fatalf("sorter occupancy reached %d, bound is %d (+%d markers in flight)",
			got, maxBuffered, markers)
	}

	st := m.Stats()
	var stalls, exsMarkers uint64
	for _, n := range nodes {
		es := n.e.Stats()
		stalls += es.CreditStalls
		exsMarkers += es.LossMarkers
	}
	if st.AckDeferred == 0 {
		t.Fatal("overload never deferred an ack — the gate did not engage")
	}
	if stalls == 0 {
		t.Fatal("no sensor ever stalled on credit — the overload did not bite")
	}
	if st.ResumedSessions == 0 {
		t.Fatal("no session ever resumed — the flaps did not bite")
	}
	t.Logf("soak: %d/%d emitted, %d records covered by %d markers (%d shipped by sensors), "+
		"%d acks deferred, %d stalls, %d resumes, sorter peak %d/%d",
		emitted, total, markerCovered, markers, exsMarkers,
		st.AckDeferred, stalls, st.ResumedSessions, maxSeen.Load(), maxBuffered)
}
