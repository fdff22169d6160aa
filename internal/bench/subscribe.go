package bench

import (
	"context"
	"fmt"
	"sync"

	"brisk/internal/subscribe"
)

// RunSubscribeIngest reruns the ingest benchmark with the subscription
// engine tapped into the sink flush and `subscribers` idle readers
// attached. The readers' filters match nothing the workload emits, so
// the measured cost is the tap itself: the per-record Publish into the
// hot window plus the per-flush wake scan over the subscriber list.
// Compare against subscribers=0 — the acceptance bar is that 1024 idle
// readers price in under a few percent of ingest throughput.
func RunSubscribeIngest(subscribers, perSession, batchRecords int) (IngestResult, error) {
	if subscribers < 0 {
		subscribers = 0
	}
	eng := subscribe.New(subscribe.Config{WindowBytes: 8 << 20})
	defer eng.Close()

	m, err := floodSink(eng)
	if err != nil {
		return IngestResult{}, err
	}
	defer m.Close()

	// The workload emits event class 1 only; the idle readers subscribe
	// to class 200, so wake suppression keeps every one of them parked.
	var readers sync.WaitGroup
	defer readers.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < subscribers; i++ {
		f, err := subscribe.ParseFilter("event=200")
		if err != nil {
			return IngestResult{}, err
		}
		sub, err := eng.Subscribe(f, false)
		if err != nil {
			return IngestResult{}, err
		}
		readers.Add(1)
		go func(sub *subscribe.Subscription) {
			defer readers.Done()
			defer sub.Close()
			for {
				if _, err := sub.Next(ctx); err != nil {
					return
				}
			}
		}(sub)
	}

	return newFlood(perSession, batchRecords).run(
		fmt.Sprintf("subscribe/subscribers=%d", subscribers), subscribers, 1, m.Addr(), m)
}

// RunSubscribeSuite runs the tapped-ingest benchmark at each subscriber
// count. This row is informational, not gated: CompareBench only
// enforces names present in the committed baseline.
func RunSubscribeSuite(subCounts []int, perSession, batchRecords int) ([]IngestResult, error) {
	if len(subCounts) == 0 {
		subCounts = []int{0, 64, 1024}
	}
	var out []IngestResult
	for _, n := range subCounts {
		r, err := RunSubscribeIngest(n, perSession, batchRecords)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// SubscribeTable renders the suite; the subscribers=0 row is the
// tap-attached baseline the others are read against.
func SubscribeTable(rows []IngestResult) *Table {
	return floodTable("subscribe: ingest capacity vs idle subscriber count (tap attached)", "subscribers", rows)
}
