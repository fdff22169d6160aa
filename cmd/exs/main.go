// Command exs runs one BRISK node: the external sensor connected to the
// manager, plus (optionally) the paper's looping demo application writing
// six-int-field notices into the node's shared-memory rings.
//
// In the original system the external sensor is a separate OS process
// reading SysV shared memory written by instrumented applications. In this
// reproduction a node is one process whose application goroutines and
// external sensor share the ring buffers — the same data path with the
// process boundary folded into the runtime.
//
// Usage:
//
//	exs -manager 127.0.0.1:7411 -name node1 -rate 10000 -count 100000
//	exs -manager 127.0.0.1:7411 -skew -50ms    # simulated skewed clock
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"brisk"
	"brisk/internal/vclock"
	"brisk/internal/workload"
)

func main() {
	var (
		manager      = flag.String("manager", "127.0.0.1:7411", "manager TCP address")
		name         = flag.String("name", hostnameOr("node"), "node name")
		rate         = flag.Int("rate", 1000, "events per second (0 = unpaced)")
		count        = flag.Int("count", 0, "events to send (0 = run until SIGINT)")
		skew         = flag.Duration("skew", 0, "initial clock offset (simulated, e.g. -50ms)")
		reconnectCap = flag.Int("reconnect-attempts", -1, "failed reconnect attempts before giving up (-1 = retry forever)")
		obsAddr      = flag.String("obs", "", "serve /metrics, /healthz and /debug/pprof on this address")
		traceEvery   = flag.Int("trace-sample", 0, "pipeline trace sampling period (0 = default 64, <0 disables)")
	)
	flag.Parse()

	var raw brisk.Clock = vclock.System{}
	if *skew != 0 {
		raw = vclock.NewDrift(vclock.System{}, skew.Microseconds(), 0)
	}
	node, err := brisk.ConnectNode(brisk.NodeOptions{
		ManagerAddr:          *manager,
		Name:                 *name,
		RawClock:             raw,
		MaxReconnectAttempts: *reconnectCap,
		TraceSampleEvery:     *traceEvery,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "exs: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("exs: node %d (%s) connected to %s\n", node.ID(), *name, *manager)

	if *obsAddr != "" {
		obs, err := brisk.ServeObservability(*obsAddr, node.Metrics(), nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "exs: obs: %v\n", err)
			os.Exit(1)
		}
		defer obs.Close()
		fmt.Printf("exs: metrics at http://%s/metrics\n", obs.Addr())
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		l := &workload.Looper{Sensor: node.NewSensor("app-0"), Event: 1, Rate: *rate}
		if *count > 0 {
			l.Run(*count)
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
				l.Run(1000)
			}
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		close(stop)
		<-done
	case <-done:
	}
	// Close ships the final batch and waits for its acknowledgement, so
	// the counters read after it are final.
	if err := node.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "exs: close: %v\n", err)
	}
	st := node.Stats()
	fmt.Printf("exs: sent=%d batches=%d bytes=%d ringDropped=%d probes=%d correction=%dµs\n",
		st.Sent, st.Batches, st.BytesOut, st.RingDropped, st.Probes, st.Correction)
	if st.Reconnects > 0 || st.Dropped > 0 || st.LostOffline > 0 {
		fmt.Printf("exs: reconnects=%d retransmits=%d spilled=%d dropped=%d lostOffline=%d\n",
			st.Reconnects, st.Retransmits, st.Spilled, st.Dropped, st.LostOffline)
	}
	if st.CreditStalls > 0 || st.LossMarkers > 0 {
		fmt.Printf("exs: creditStalls=%d lossMarkers=%d markedLost=%d\n",
			st.CreditStalls, st.LossMarkers, st.MarkedLost)
	}
}

func hostnameOr(def string) string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return def
}
