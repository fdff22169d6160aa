package brisk

import (
	"context"
	"time"

	"brisk/internal/exs"
	"brisk/internal/ism"
	"brisk/internal/record"
	"brisk/internal/sensor"
	"brisk/internal/shm"
	"brisk/internal/vclock"
)

// NodeOptions configures ConnectNode.
type NodeOptions struct {
	// ManagerAddr is the manager's TCP address (required).
	ManagerAddr string
	// Name identifies the node to the manager (optional).
	Name string
	// RawClock is the node's uncorrected local clock; nil means the
	// system clock. Simulated deployments inject skewed clocks here.
	RawClock Clock
	// BatchBytes triggers a batch send at this size (default 16384).
	BatchBytes int
	// FlushInterval bounds how long a partial batch waits (default 5 ms)
	// — the node-side latency knob. While the manager withholds credit
	// under overload the sensor widens it up to 8 × FlushInterval.
	FlushInterval time.Duration
	// PollInterval is the external sensor's ring-scan period while idle
	// (default 500 µs).
	PollInterval time.Duration
	// MaxReconnectAttempts caps failed reconnect attempts per outage
	// before the node degrades to drain-and-discard. 0 means the default
	// cap; negative retries forever. Reconnects back off from 50 ms,
	// doubling per failed attempt up to 5 s, each delay with ±20% jitter
	// so a fleet does not redial in lockstep. Across an outage the node
	// keeps up to 4 MiB of unacknowledged records; beyond that the
	// oldest batches are dropped and counted.
	MaxReconnectAttempts int
	// Logf receives diagnostics (default: standard log package).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, is the registry the node's external sensor
	// registers its series in; nil gives the node a private registry,
	// readable via Node.Metrics.
	Metrics *Metrics
	// TraceSampleEvery is the pipeline stage tracer's sampling period
	// (every Nth record's age is measured per stage). 0 means the
	// default (64); negative disables tracing.
	TraceSampleEvery int
}

// SensorOptions tunes one internal sensor.
type SensorOptions struct {
	// RingBytes is the sensor's ring capacity (default 65536).
	RingBytes int
}

// NodeStats snapshots the node's external-sensor counters.
type NodeStats = exs.Stats

// Node is one node of the target system: its shared-memory region, its
// corrected clock, and its external sensor connected to the manager.
type Node struct {
	region *shm.Region
	clock  *vclock.Corrected
	raw    Clock
	ext    *exs.EXS
}

// ConnectNode creates a node's local instrumentation server and connects
// its external sensor to the manager.
func ConnectNode(opts NodeOptions) (*Node, error) {
	return ConnectNodeContext(context.Background(), opts)
}

// ConnectNodeContext is ConnectNode with a lifetime context: canceling
// ctx aborts any in-flight dial or reconnect backoff permanently (the
// node keeps running in drain-and-discard mode until Close).
func ConnectNodeContext(ctx context.Context, opts NodeOptions) (*Node, error) {
	raw := opts.RawClock
	if raw == nil {
		raw = vclock.System{}
	}
	region := shm.NewRegion()
	clock := vclock.NewCorrected(raw)
	e, err := exs.DialContext(ctx, exs.Config{
		ManagerAddr:          opts.ManagerAddr,
		NodeName:             opts.Name,
		Region:               region,
		Clock:                clock,
		BatchBytes:           opts.BatchBytes,
		FlushInterval:        opts.FlushInterval,
		PollInterval:         opts.PollInterval,
		MaxReconnectAttempts: opts.MaxReconnectAttempts,
		Logf:                 opts.Logf,
		Metrics:              opts.Metrics,
		TraceSampleEvery:     opts.TraceSampleEvery,
	})
	if err != nil {
		return nil, err
	}
	return &Node{region: region, clock: clock, raw: raw, ext: e}, nil
}

// ID returns the manager-assigned node id stamped on this node's records.
func (n *Node) ID() int32 { return n.ext.Node() }

// NewSensor attaches an internal sensor for one application goroutine.
// Sensors write raw local timestamps; the external sensor adds the
// node's clock correction when shipping.
func (n *Node) NewSensor(name string, opts ...SensorOptions) *Sensor {
	var o SensorOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return sensor.New(n.region, name, sensor.Options{
		RingBytes: o.RingBytes,
		Clock:     n.raw,
	})
}

// Correction returns the node's current clock-correction value in µs, as
// maintained by the synchronization slave.
func (n *Node) Correction() int64 { return n.clock.Correction() }

// Flush ships any buffered records to the manager immediately.
func (n *Node) Flush() { n.ext.Flush() }

// Stats snapshots the node's counters.
func (n *Node) Stats() NodeStats { return n.ext.Stats() }

// Metrics returns the registry holding the node's series — the one passed
// in NodeOptions.Metrics, or the node's private registry. Serve it with
// ServeObservability.
func (n *Node) Metrics() *Metrics { return n.ext.Metrics() }

// Close ships buffered records and disconnects from the manager.
func (n *Node) Close() error { return n.ext.Close() }

// Consumer iterates the manager's sorted output stream.
//
// It reads the memory buffer a run at a time: one lock copies a few dozen
// entries (up to 2 KiB) into storage the consumer reuses, and Next and
// TryNext decode from that run, reading the buffer again only when it is
// used up. An entry already in the run can no longer be lapped, so Lost
// counts exactly the records the buffer dropped before this consumer
// copied them.
//
// Every record it returns owns its Fields: a later Next or TryNext never
// writes them, and appending to them reallocates. The consumer cuts them
// out of 512-value (16 KiB) chunks it allocates as it goes and never
// reuses, so a record kept alive keeps at most its whole chunk alive.
type Consumer struct {
	cur   *shm.Cursor
	run   shm.Run        // entries copied out of the buffer, recycled across reads
	at    int            // index in run.Ends of the next entry to decode
	chunk []record.Value // the unused tail of the current Fields chunk
	// Lost accumulates records skipped because this consumer fell behind
	// the memory buffer (the manager's event dropping for slow readers).
	Lost uint64
}

// consumerChunk is the number of field values a Consumer allocates at a
// time: 16 KiB, under the runtime's small-object size limit.
const consumerChunk = 512

// Next blocks for the next record; ok is false once the manager has
// closed and the stream is drained.
func (c *Consumer) Next() (Record, bool) { return c.next(c.cur.NextRun) }

// TryNext is the non-blocking variant; ok is false when no record is
// currently available.
func (c *Consumer) TryNext() (Record, bool) { return c.next(c.cur.TryNextRun) }

// next returns the run's next entry that decodes, refilling the run from
// the buffer whenever it is used up (the decoded record copies what it
// keeps, so the run is free to be overwritten). The record's fields land in the
// chunk's tail, which then gives them up.
func (c *Consumer) next(read func(*shm.Run) (uint64, bool)) (rec Record, ok bool) {
	for {
		if c.at == len(c.run.Ends) {
			lost, ok := read(&c.run)
			c.Lost += lost
			c.at = 0
			if !ok {
				return Record{}, false
			}
		}
		var from uint32
		if c.at > 0 {
			from = c.run.Ends[c.at-1]
		}
		raw := c.run.Data[from:c.run.Ends[c.at]]
		c.at++
		if len(c.chunk) < record.MaxFields {
			c.chunk = make([]record.Value, consumerChunk)
		}
		rec.Fields = c.chunk[:0]
		if ism.DecodeBufferedInto(&rec, raw) != nil {
			rec = Record{}
			continue // skip corrupt entry rather than wedge the consumer
		}
		n := len(rec.Fields)
		rec.Fields = c.chunk[:n:n]
		c.chunk = c.chunk[n:]
		return rec, true
	}
}
