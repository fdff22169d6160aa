// Command relay runs one intermediate tier of a federated BRISK
// deployment: a full instrumentation-system manager for a regional
// sensor fleet (local sort, correction, child-tier clock sync) whose
// merged output is forwarded upstream to a parent manager as a single
// high-rate session. Stack relays to build a hierarchy; the root ism
// re-merges the regional streams into the global order.
//
// Usage:
//
//	relay -addr :7412 -parent 127.0.0.1:7411 -name region-a -node-base 1000
//
// Statistics are reported on SIGINT before exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"brisk"
	"brisk/internal/ism"
	"brisk/internal/metrics"
	"brisk/internal/ols"
	"brisk/internal/relay"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7412", "TCP listen address for the regional fleet")
		parent   = flag.String("parent", "127.0.0.1:7411", "parent manager address the merged stream forwards to")
		name     = flag.String("name", hostnameOr("relay"), "node name announced upstream")
		nodeBase = flag.Int("node-base", 0, "added to forwarded origin node ids; give relay i a base of i×(fleet size)")

		syncPeriod = flag.Duration("sync", 5*time.Second, "child-tier clock-sync polling period (0 disables)")
		initialT   = flag.Int64("T", 1000, "regional sorter initial time frame (µs); widen the parent's by 2× plus slack")

		batch = flag.Int("batch", 0, "records per uplink batch (0 = default 256)")
		flush = flag.Duration("flush", 0, "partial uplink batch flush interval (0 = default 2ms)")
		queue = flag.Int("queue", 0, "bytes of unacknowledged uplink batches buffered across outages (0 = default 4MiB)")

		statsEvery = flag.Duration("stats", 0, "periodically print statistics (0 disables)")
		obsAddr    = flag.String("obs", "", "serve /metrics, /stats, /healthz and /debug/pprof on this address")
	)
	flag.Parse()

	rl, err := relay.New(relay.Config{
		Addr:     *addr,
		Parent:   *parent,
		Name:     *name,
		NodeBase: int32(*nodeBase),
		ISM: ism.Config{
			SyncPeriod: *syncPeriod,
			Sorter:     ols.Config{InitialT: *initialT},
		},
		BatchRecords:  *batch,
		FlushInterval: *flush,
		QueueBytes:    *queue,
		// A relay rides out any parent outage: it never stops redialing.
		MaxReconnectAttempts: -1,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "relay: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("relay: node %d (%s) listening on %s, forwarding to %s\n",
		rl.Node(), *name, rl.Addr(), *parent)

	if *obsAddr != "" {
		obs, err := brisk.ServeObservability(*obsAddr, rl.Metrics(), nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "relay: obs: %v\n", err)
			os.Exit(1)
		}
		defer obs.Close()
		obs.Handle("/stats", metrics.StatsHandler(func() any { return rl.Stats() }))
		fmt.Printf("relay: metrics at http://%s/metrics\n", obs.Addr())
		fmt.Printf("relay: statistics at http://%s/stats\n", obs.Addr())
	}
	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := rl.Stats()
				fmt.Printf("relay: online=%v fleet=%d received=%d forwarded=%d shipped=%d backlog=%d queued=%dB reconnects=%d markedLost=%d corr=%dµs\n",
					st.Online, st.ISM.Connected, st.ISM.Received, st.Forwarded,
					st.Shipped, st.BacklogRecords, st.QueuedBytes,
					st.Reconnects, st.MarkedLost+st.ISM.MarkedLost, st.Correction)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := rl.Stats()
	if err := rl.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "relay: close: %v\n", err)
	}
	fmt.Printf("relay: final stats: fleet=%d received=%d forwarded=%d shipped=%d batches=%d retransmits=%d reconnects=%d dropped=%d markedLost=%d corr=%dµs\n",
		st.ISM.Connected, st.ISM.Received, st.Forwarded, st.Shipped,
		st.Batches, st.Retransmits, st.Reconnects, st.Dropped,
		st.MarkedLost+st.ISM.MarkedLost, st.Correction)
}

func hostnameOr(fallback string) string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return fallback
}
