package ism

import (
	"fmt"
	"testing"
	"time"

	"brisk/internal/ols"
	"brisk/internal/sensor"
	"brisk/internal/vclock"
)

// TestShardedPipelineEndToEnd runs the full pipeline — EXS nodes, wire
// transport, parallel decode workers pushing into sorter shards, k-way
// merge, sinks — with more sessions than shards and verifies nothing is
// lost, duplicated or reordered per source.
func TestShardedPipelineEndToEnd(t *testing.T) {
	// A 1 s window comfortably covers e2e delivery lateness, so the
	// merged emission must be globally monotone, not just per source.
	m := newManager(t, Config{OLSShards: 3, Sorter: ols.Config{InitialT: 1_000_000}})
	const nodes = 8
	const perNode = 300
	sensors := make([]*sensor.Sensor, nodes)
	for i := 0; i < nodes; i++ {
		_, region := newNode(t, m, "n", nil)
		sensors[i] = sensor.New(region, "app", sensor.Options{})
	}
	for i := 0; i < perNode; i++ {
		for n := 0; n < nodes; n++ {
			if !sensors[n].Notice6i(7, int32(i), int32(n), 3, 4, 5, 6) {
				t.Fatal("ring overflow")
			}
		}
	}
	got := drainCursor(t, m, nodes*perNode, 20*time.Second)
	if len(got) != nodes*perNode {
		t.Fatalf("received %d records, want %d (stats %+v)", len(got), nodes*perNode, m.Stats())
	}
	perSourceLastIdx := map[int32]int64{}
	var lastTS int64
	for i, r := range got {
		idx := r.Fields[1].Int()
		if last, ok := perSourceLastIdx[r.Node]; ok && idx != last+1 {
			t.Fatalf("source %d: index %d after %d (lost or reordered)", r.Node, idx, last)
		}
		perSourceLastIdx[r.Node] = idx
		if r.TS < lastTS {
			t.Fatalf("global order violated at %d: %d after %d", i, r.TS, lastTS)
		}
		lastTS = r.TS
	}
	st := m.Stats()
	if st.SorterShards != 3 {
		t.Fatalf("SorterShards = %d, want 3", st.SorterShards)
	}
	if st.Sorter.Pushed != uint64(nodes*perNode) {
		t.Fatalf("aggregate pushed %d, want %d", st.Sorter.Pushed, nodes*perNode)
	}
}

// TestShardBoundaryCREMatch is the regression test for causally-related
// pairs split across shards: with two shards, the reason lands on node
// 1's shard and the consequence on node 2's, and only the post-merge
// matcher can pair them — a naive per-shard CRE would miss the match.
// The consequence is also a tachyon (its source clock runs behind), so
// the repair path must see the reason first in merged order.
func TestShardBoundaryCREMatch(t *testing.T) {
	m := newManager(t, Config{OLSShards: 2, Sorter: ols.Config{InitialT: 1000}})
	_, regionA := newNode(t, m, "a", nil)
	behind := vclock.NewCorrected(vclock.NewDrift(vclock.System{}, -200_000, 0))
	_, regionB := newNode(t, m, "b", behind)

	sa := sensor.New(regionA, "app", sensor.Options{})
	sb := sensor.New(regionB, "app", sensor.Options{Clock: behind})

	sa.NoticeReason(1, 42, 0)
	time.Sleep(20 * time.Millisecond) // let the reason flow through
	sb.NoticeConseq(2, 42, 0)

	got := drainCursor(t, m, 2, 10*time.Second)
	if len(got) != 2 {
		t.Fatalf("got %d records (stats %+v)", len(got), m.Stats())
	}
	if got[0].Reason != 42 || got[1].Conseq != 42 {
		t.Fatalf("order wrong: %+v", got)
	}
	// Nodes 1 and 2 hash to different shards (1%2 vs 2%2) — the pair
	// crossed the shard boundary and still matched after the merge.
	if got[0].Node%2 == got[1].Node%2 {
		t.Fatalf("test premise broken: nodes %d and %d landed on the same shard", got[0].Node, got[1].Node)
	}
	if got[1].TS <= got[0].TS {
		t.Fatalf("tachyon not repaired across shards: conseq ts %d ≤ reason ts %d", got[1].TS, got[0].TS)
	}
	st := m.Stats()
	if st.CRE.Matched != 1 || st.CRE.Tachyons != 1 {
		t.Fatalf("CRE stats = %+v, want one matched tachyon", st.CRE)
	}
}

// TestShardedCloseDrainsEverything: the ordered shutdown (readers →
// decode workers → merger flush) must deliver every acked record. With
// one shard the decode workers run their merge events themselves, so
// drainWork merges what is still queued; with several they push into
// the shards and the merger's final flush extracts it.
func TestShardedCloseDrainsEverything(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Huge T: nothing ages out before Close's flush.
			m := newManager(t, Config{OLSShards: shards, Sorter: ols.Config{InitialT: 60_000_000}})
			const nodes = 5
			const perNode = 200
			for i := 0; i < nodes; i++ {
				_, region := newNode(t, m, "n", nil)
				s := sensor.New(region, "app", sensor.Options{})
				for j := 0; j < perNode; j++ {
					if !s.Notice6i(9, int32(j), 0, 0, 0, 0, 0) {
						t.Fatal("ring overflow")
					}
				}
				// Wait until the manager has accepted this node's records
				// before closing (accepted ⇒ must survive shutdown).
				deadline := time.Now().Add(10 * time.Second)
				for m.Stats().Received < uint64((i+1)*perNode) {
					if time.Now().After(deadline) {
						t.Fatalf("node %d never drained: %+v", i, m.Stats())
					}
					time.Sleep(time.Millisecond)
				}
			}
			cur := m.NewCursor()
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				raw, lost, ok := cur.TryNext()
				if lost > 0 {
					t.Fatalf("consumer lost %d records", lost)
				}
				if !ok {
					break
				}
				if _, err := DecodeBuffered(raw); err != nil {
					t.Fatal(err)
				}
				n++
			}
			if n != nodes*perNode {
				t.Fatalf("drained %d records after Close, want %d (stats %+v)", n, nodes*perNode, m.Stats())
			}
		})
	}
}
