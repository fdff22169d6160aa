package relay

import (
	"fmt"
	"testing"
	"time"

	"brisk/internal/exs"
	"brisk/internal/faultnet"
	"brisk/internal/ism"
	"brisk/internal/ols"
	"brisk/internal/record"
	"brisk/internal/sensor"
	"brisk/internal/shm"
	"brisk/internal/vclock"
	"brisk/internal/workload"
)

// TestLossMarkerAggregationAcrossTiers is the composed-loss property
// test: faultnet cuts overload BOTH tiers' bounded queues — the leaves'
// spill queues while their links are down, and the relay's uplink queue
// while the parent link is down — so loss markers are synthesized at
// both hops, relay-tier markers folding evicted batches that may
// themselves carry leaf markers. At the root, the aggregate must
// account for every acknowledged-but-dropped record: nothing emitted
// twice, nothing that disappears without marker coverage, and no
// coverage invented beyond what the tiers marked.
func TestLossMarkerAggregationAcrossTiers(t *testing.T) {
	testStart := time.Now().UnixMicro()
	root := newRoot(t, nil)
	defer root.Close()

	uplink, err := faultnet.Listen(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer uplink.Close()

	icfg := testISM()
	icfg.Sorter = ols.Config{InitialT: 5000}
	rl, err := New(Config{
		Addr:   "127.0.0.1:0",
		Parent: uplink.Addr(),
		ISM:    icfg,
		// A tiny uplink queue: a parent outage forces drop-oldest
		// evictions (and so relay-tier markers) almost immediately.
		QueueBytes:           4096,
		BatchRecords:         16,
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

	const nLeaves = 2
	type leaf struct {
		proxy  *faultnet.Proxy
		region *shm.Region
		exs    *exs.EXS
		sensor *sensor.Sensor
	}
	leaves := make([]*leaf, nLeaves)
	for i := range leaves {
		l := &leaf{}
		l.proxy, err = faultnet.Listen(rl.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer l.proxy.Close()
		l.region = shm.NewRegion()
		l.exs, err = exs.Dial(exs.Config{
			ManagerAddr:   l.proxy.Addr(),
			NodeName:      fmt.Sprintf("leaf%d", i),
			Region:        l.region,
			Clock:         vclock.NewCorrected(vclock.System{}),
			BatchBytes:    1024,
			FlushInterval: time.Millisecond,
			PollInterval:  200 * time.Microsecond,
			ReconnectBase: 2 * time.Millisecond,
			ReconnectMax:  20 * time.Millisecond,
			// Never give up: a dead sensor discards its loss accounting.
			MaxReconnectAttempts: -1,
			// A tiny spill queue: a link outage evicts into leaf markers.
			SpillBytes: 4096,
			Logf:       quietLog,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer l.exs.Close()
		l.sensor = sensor.New(l.region, "app", sensor.Options{RingBytes: 1 << 18})
		leaves[i] = l
	}

	// Each phase gets its own event classes: the looper numbers its
	// records from zero every run, and the surviving tails of both phases
	// can reach the root, so (node, event, seq) must tell them apart.
	const phaseEvents = 2500
	drive := func(phase int) {
		for i, l := range leaves {
			lp := &workload.Looper{Sensor: l.sensor, Event: uint8(10 + nLeaves*phase + i)}
			got := lp.Run(phaseEvents)
			if got != phaseEvents {
				t.Fatalf("phase %d leaf %d: ring accepted %d of %d (size the ring up)", phase, i, got, phaseEvents)
			}
		}
	}

	// Phase A — parent outage: leaves flow into the relay freely, the
	// relay's uplink queue overflows and evicts into relay-tier markers.
	uplink.SetAccepting(false)
	uplink.CutNow()
	drive(0)
	deadline := time.Now().Add(10 * time.Second)
	for rl.Stats().LossMarkers == 0 {
		if !time.Now().Before(deadline) {
			t.Fatalf("relay synthesized no uplink loss markers: %+v", rl.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	uplink.SetAccepting(true)

	// Phase B — leaf outages: the leaves' spill queues overflow and
	// evict into leaf-tier markers, which then transit the healed relay.
	for _, l := range leaves {
		l.proxy.SetAccepting(false)
		l.proxy.CutNow()
	}
	drive(1)
	for {
		var evicted uint64
		for _, l := range leaves {
			evicted += l.exs.Stats().Dropped
		}
		if evicted > 0 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("leaves evicted nothing despite the outage")
		}
		time.Sleep(time.Millisecond)
	}
	for _, l := range leaves {
		l.proxy.SetAccepting(true)
		l.exs.Flush()
	}

	// Drain: every leaf back online with an empty queue, then the relay's
	// uplink backlog gone.
	var produced, refused uint64
	produced = uint64(2 * nLeaves * phaseEvents)
	for _, l := range leaves {
		refused += l.sensor.Dropped()
	}
	for i, l := range leaves {
		for {
			st := l.exs.Stats()
			if st.Online && st.QueuedBytes == 0 {
				break
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("leaf %d never drained: %+v", i, st)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for rl.Stats().BacklogRecords > 0 {
		if !time.Now().Before(deadline) {
			t.Fatalf("relay uplink never drained: %+v", rl.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// Account every record at the root.
	cur := root.NewCursor()
	type key struct {
		node  int32
		event uint8
		seq   int64
	}
	seen := map[key]bool{}
	var emitted, markerCovered, markers uint64
	floor := produced + refused
	for {
		raw, lost, ok := cur.TryNext()
		if lost > 0 {
			t.Fatalf("root cursor lost %d records", lost)
		}
		if !ok {
			if emitted+markerCovered >= floor {
				break
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("drain stuck: emitted=%d covered=%d of %d", emitted, markerCovered, floor)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		rec, err := ism.DecodeBuffered(raw)
		if err != nil {
			t.Fatal(err)
		}
		if record.IsLossMarker(&rec) {
			cnt, first, last, _ := record.LossInfo(&rec)
			if first > last {
				t.Fatalf("marker range inverted: [%d, %d]", first, last)
			}
			now := time.Now().UnixMicro()
			if first < testStart-int64(time.Second/time.Microsecond) || last > now+int64(time.Second/time.Microsecond) {
				t.Fatalf("marker covers [%d, %d], outside the run's timestamp range [%d, %d]",
					first, last, testStart, now)
			}
			markerCovered += cnt
			markers++
			continue
		}
		k := key{node: rec.Node, event: rec.Event, seq: rec.Fields[1].Int()}
		if seen[k] {
			t.Fatalf("record %+v emitted twice", k)
		}
		seen[k] = true
		emitted++
	}

	// Marked totals across every tier.
	var exsMarked, exsEvicted uint64
	for _, l := range leaves {
		st := l.exs.Stats()
		exsMarked += st.MarkedLost
		exsEvicted += st.Dropped
	}
	rs := rl.Stats()
	rootStats := root.Stats()
	marked := exsMarked + rs.MarkedLost + rs.ISM.MarkedLost + rootStats.MarkedLost

	if rs.LossMarkers == 0 || rs.MarkedLost == 0 {
		t.Fatal("relay tier marked nothing — the two-tier property is vacuous")
	}
	if exsMarked == 0 || exsEvicted == 0 {
		t.Fatal("leaf tier marked nothing — the two-tier property is vacuous")
	}
	if markers == 0 {
		t.Fatal("no loss markers reached the root")
	}
	if emitted > produced {
		t.Fatalf("emitted %d > produced %d (records invented)", emitted, produced)
	}
	if emitted+markerCovered < floor {
		t.Fatalf("disappearance: emitted %d + covered %d < produced %d + refused %d",
			emitted, markerCovered, produced, refused)
	}
	// Evictions fold marker coverage back into the accumulator, so the
	// marked totals may legitimately over-count — but the output can
	// never cover more than the tiers marked.
	if markerCovered > marked {
		t.Fatalf("coverage invented: output covers %d, tiers marked %d (exs=%d relay=%d+%d root=%d)",
			markerCovered, marked, exsMarked, rs.MarkedLost, rs.ISM.MarkedLost, rootStats.MarkedLost)
	}
}
