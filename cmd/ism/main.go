// Command ism runs the BRISK instrumentation-system manager: it listens
// for external sensors, merges and sorts their record streams, runs the
// clock-synchronization master, and writes the sorted stream to its sinks.
//
// Usage:
//
//	ism -addr :7411 -sync 5s -picl trace.picl -print
//
// With -print the sorted stream is echoed to stdout (one line per record)
// as a built-in consumer tool. Statistics are reported on SIGINT before
// exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"brisk"
	"brisk/internal/metrics"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7411", "TCP listen address")
		syncPeriod = flag.Duration("sync", 5*time.Second, "clock-sync polling period (0 disables)")
		syncBound  = flag.Int64("sync-uncertainty", 0, "model-based probe scheduling: probe a slave only when its predicted offset uncertainty (µs) crosses this bound (0 = fixed cadence)")
		initialT   = flag.Int64("T", 1000, "initial sorter time frame (µs)")
		policy     = flag.String("grow", "lateness", "time-frame growth policy: lateness|double|fixed")
		piclPath   = flag.String("picl", "", "write a PICL ASCII trace to this file")
		visAddr    = flag.String("visual", "", "attach the remote visual object \"view\" at host:port")
		print      = flag.Bool("print", false, "echo the sorted stream to stdout")
		statsEvery = flag.Duration("stats", 0, "periodically print statistics (0 disables)")
		obsAddr    = flag.String("obs", "", "serve /metrics, /stats, /healthz and /debug/pprof on this address")
		subOn      = flag.Bool("subscribe", false, "enable the subscription engine; /subscribe, /query and /topk mount on the -obs server")
		traceEvery = flag.Int("trace-sample", 0, "pipeline trace sampling period (0 = default 64, <0 disables)")
		maxBuf     = flag.Int("maxbuffered", 0, "sorter record bound, arms credit flow control (0 = unbounded)")
		olsShards  = flag.Int("ols-shards", 0, "parallel sorter shards (0 or 1 = single sorter, -1 = one per CPU)")
	)
	flag.Parse()

	opts := brisk.ManagerOptions{
		Addr:             *addr,
		Sorter:           brisk.SorterOptions{InitialT: *initialT, MaxBuffered: *maxBuf},
		Sync:             brisk.SyncOptions{Period: *syncPeriod, UncertaintyBound: *syncBound},
		TraceSampleEvery: *traceEvery,
		OLSShards:        *olsShards,
	}
	if *subOn {
		opts.Subscribe = &brisk.SubscribeOptions{}
	}
	switch *policy {
	case "lateness":
		opts.Sorter.Policy = brisk.TimeFrameLateness
	case "double":
		opts.Sorter.Policy = brisk.TimeFrameDouble
	case "fixed":
		opts.Sorter.Policy = brisk.TimeFrameFixed
	default:
		fmt.Fprintf(os.Stderr, "ism: unknown growth policy %q\n", *policy)
		os.Exit(2)
	}
	if *piclPath != "" {
		f, err := os.Create(*piclPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ism: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		opts.PICL = &brisk.PICLOptions{W: f}
	}

	mgr, err := brisk.StartManager(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ism: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ism: listening on %s\n", mgr.Addr())

	if *visAddr != "" {
		if err := mgr.AttachVisual(*visAddr, "view", 4096); err != nil {
			fmt.Fprintf(os.Stderr, "ism: visual: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("ism: dispatching to visual object \"view\" at %s\n", *visAddr)
	}

	if *print {
		go func() {
			c := mgr.Consume()
			for {
				rec, ok := c.Next()
				if !ok {
					return
				}
				fmt.Println(rec.String())
			}
		}()
	}
	if *obsAddr != "" {
		obs, err := brisk.ServeObservability(*obsAddr, mgr.Metrics(), nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ism: obs: %v\n", err)
			os.Exit(1)
		}
		defer obs.Close()
		obs.Handle("/stats", metrics.StatsHandler(func() any { return mgr.Stats() }))
		fmt.Printf("ism: metrics at http://%s/metrics\n", obs.Addr())
		fmt.Printf("ism: statistics at http://%s/stats\n", obs.Addr())
		if mgr.MountSubscribe(obs) {
			fmt.Printf("ism: subscribe API at http://%s/subscribe\n", obs.Addr())
		}
	}
	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := mgr.Stats()
				fmt.Printf("ism: nodes=%d sessions=%d received=%d emitted=%d buffered=%d T=%dµs inversions=%d tachyons=%d syncs=%d resumed=%d deduped=%d deadPeers=%d deferred=%d gate=%v markedLost=%d\n",
					st.Connected, st.Sessions, st.Received, st.Emitted, st.SorterBuffered,
					st.Sorter.GrownTo, st.Sorter.Inversions, st.CRE.Tachyons, st.SyncRounds,
					st.ResumedSessions, st.DedupedBatches, st.DeadPeers,
					st.AckDeferred, st.CreditGateClosed, st.MarkedLost)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := mgr.Stats()
	if err := mgr.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "ism: close: %v\n", err)
	}
	fmt.Printf("ism: final stats: nodes=%d received=%d emitted=%d batches=%d inversions=%d tachyons=%d syncRounds=%d resumed=%d deduped=%d deadPeers=%d\n",
		st.Connected, st.Received, st.Emitted, st.Batches,
		st.Sorter.Inversions, st.CRE.Tachyons, st.SyncRounds,
		st.ResumedSessions, st.DedupedBatches, st.DeadPeers)
}
