package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"brisk"
	"brisk/internal/wire"
)

// session is one wire-protocol client of the manager, speaking what an
// external sensor (or a relay) speaks: HELLO with a session id, numbered
// batches, and a reader that consumes acks and answers heartbeats.
type session struct {
	raw    net.Conn
	wc     *wire.Conn
	acks   atomic.Uint64 // DATA_ACK frames received
	acked  atomic.Uint64 // highest batch sequence acknowledged
	credit chan struct{} // poked on every ack
	done   chan struct{}
}

func dialSession(addr, name string, id uint64) (*session, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &session{raw: raw, wc: wire.NewConn(raw), credit: make(chan struct{}, 1), done: make(chan struct{})}
	if err := s.wc.Send(&wire.Hello{Version: wire.ProtocolVersion, Name: name, Session: id}); err != nil {
		raw.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	msg, err := s.wc.Recv()
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("hello ack: %w", err)
	}
	if _, ok := msg.(*wire.HelloAck); !ok {
		raw.Close()
		return nil, fmt.Errorf("hello ack: got %v", msg.Type())
	}
	go s.readLoop()
	return s, nil
}

// readLoop drains what the manager sends until the connection closes.
func (s *session) readLoop() {
	defer close(s.done)
	for {
		msg, err := s.wc.RecvReuse()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *wire.DataAck:
			s.acks.Add(1)
			s.acked.Store(m.Seq)
			select {
			case s.credit <- struct{}{}:
			default:
			}
		case *wire.Ping:
			if s.wc.Send(&wire.Pong{Seq: m.Seq}) != nil {
				return
			}
		}
	}
}

// awaitAcked blocks until the manager has acknowledged every batch up to
// seq; it gives up when stop closes or the connection ends.
func (s *session) awaitAcked(seq uint64, stop <-chan struct{}) bool {
	for s.acked.Load() < seq {
		select {
		case <-s.credit:
		case <-stop:
			return false
		case <-s.done:
			return false
		}
	}
	return true
}

// close waits (up to 10 s) until the manager has acknowledged every
// batch up to seq — an acknowledged batch is the manager's to deliver, an
// unacknowledged one may still sit in a socket buffer that closing would
// discard — then says goodbye, closes the connection and waits for the
// reader.
func (s *session) close(seq uint64) {
	giveUp := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(giveUp) })
	s.awaitAcked(seq, giveUp)
	timer.Stop()
	_ = s.wc.Send(&wire.Bye{}) // the close below ends the session either way
	s.raw.Close()
	<-s.done
}

// relayFirstNode is the first origin id of relay-forwarded records; it
// keeps origins clear of the node ids the manager assigns to sessions.
const relayFirstNode = 101

// stamper patches a session's batch payload before each send: every
// record gets its source's next sequence number in field a, the send (or
// due) stamp in field b, and a timestamp. With a disorder model the
// timestamp is "now − delay", clamped so each source's stamps never
// decrease; otherwise it is the fixed stamp.
type stamper struct {
	tmpl  *template
	buf   []byte
	seq   []uint32 // per source
	fixed int64
	dis   *disorder // nil for fixed stamps
	lag   []int64   // per source, what is left of its stall, µs
	prev  []int64   // per source, last stamp
}

func newStamper(t *template, fixed int64, dis *disorder) *stamper {
	return &stamper{tmpl: t, buf: t.clone(), seq: make([]uint32, t.sources),
		fixed: fixed, dis: dis, lag: make([]int64, t.sources), prev: make([]int64, t.sources)}
}

// stamp prepares the payload for one send. nowUnix is the wall clock in
// µs, stampMicros the meter-clock stamp latency is measured from.
func (s *stamper) stamp(nowUnix, stampMicros int64) []byte {
	for i, off := range s.tmpl.tsOff {
		src := s.tmpl.origin[i]
		s.seq[src]++
		ts := s.fixed
		if s.dis != nil {
			if s.seq[src]%s.dis.stallEvery[src] == 0 {
				s.lag[src] = stallMicros
			} else if s.lag[src] > 0 {
				s.lag[src] -= stallDrain
			}
			row := s.dis.jitter[src]
			ts = nowUnix - int64(row[int(s.seq[src])%len(row)]) - s.lag[src]
			if ts < s.prev[src] {
				ts = s.prev[src]
			}
			s.prev[src] = ts
		}
		binary.BigEndian.PutUint64(s.buf[off:], uint64(ts))
		binary.BigEndian.PutUint32(s.buf[off+offA:], s.seq[src])
		binary.BigEndian.PutUint32(s.buf[off+offB:], uint32(stampMicros))
	}
	return s.buf
}

// ackWindow is how many batches a flood session may have sent and not
// yet seen acknowledged. The manager acknowledges a batch once its decode
// worker has taken it, so this bounds what queues ahead of the sorter —
// and with it the transit time that the sorter would otherwise have to
// absorb as lateness.
const ackWindow = 2

// floodSpec parameterises the two closed-loop wire floods.
type floodSpec struct {
	sessions int
	relay    int // origin nodes per session (0: plain DATA batches)
	shards   int
	// window bounds the batches between the senders and the consumer,
	// all sessions together: a sender takes a token per batch and the
	// consumer hands one back per batch's worth delivered. It keeps the
	// memory buffer from lapping a consumer slower than ingest.
	window   int
	sorter   brisk.SorterOptions
	disorder bool
}

// floodRig is a manager flooded by pre-encoded batches over a closed
// loop: a session sends its next batch only with both credits above.
type floodRig struct {
	spec     floodSpec
	mgr      *brisk.Manager
	m        meter
	sessions []*session
	stampers []*stamper
	sha      [32]byte

	tokens chan struct{}
	stop   chan struct{}
	gens   sync.WaitGroup
	seqs   []uint64 // last batch sequence per session
	errs   chan error

	first        *firstSignal
	consumerDone chan struct{}
	chk          *checker
	lat          hist
	consumerLost uint64
}

func setupFlood(spec floodSpec) func(cfg liveConfig) (rig, error) {
	return func(cfg liveConfig) (rig, error) {
		r := &floodRig{spec: spec, first: newFirstSignal(),
			stop: make(chan struct{}), consumerDone: make(chan struct{}),
			tokens: make(chan struct{}, spec.window), seqs: make([]uint64, spec.sessions),
			errs: make(chan error, spec.sessions)}
		r.m.t0 = time.Now()
		r.chk = newChecker(&r.m)

		// Input generation: one template per session, and for the
		// disorder flood a lateness model of its origins.
		gen := rng(cfg.seed)
		h := newInputHash()
		fixed := time.Now().UnixMicro() - 10_000_000
		for s := 0; s < spec.sessions; s++ {
			t, err := newTemplate(&gen, spec.relay, relayFirstNode+int32(s*spec.relay))
			if err != nil {
				return nil, err
			}
			h.bytes(t.payload)
			var dis *disorder
			if spec.disorder {
				dis = newDisorder(&gen, t.sources)
				for s, row := range dis.jitter {
					h.int32s(row)
					h.int32s([]int32{int32(dis.stallEvery[s])})
				}
			}
			r.stampers = append(r.stampers, newStamper(t, fixed, dis))
		}
		r.sha = h.sum()

		mgr, err := brisk.StartManager(brisk.ManagerOptions{
			OLSShards:        spec.shards,
			Sorter:           spec.sorter,
			BufferRecords:    1 << 17,
			Logf:             quietLog,
			TraceSampleEvery: cfg.traceSampleEvery(),
		})
		if err != nil {
			return nil, err
		}
		r.mgr = mgr
		go r.consume(mgr.Consume())
		for s := 0; s < spec.sessions; s++ {
			sess, err := dialSession(mgr.Addr(), fmt.Sprintf("flood-%d", s), cfg.seed<<8|uint64(s+1))
			if err != nil {
				r.teardown()
				return nil, err
			}
			r.sessions = append(r.sessions, sess)
		}
		for i := 0; i < spec.window; i++ {
			r.tokens <- struct{}{}
		}
		if err := r.send(0); err != nil {
			r.teardown()
			return nil, err
		}
		if err := r.first.wait(); err != nil {
			r.teardown()
			return nil, err
		}
		return r, nil
	}
}

// send stamps and sends one batch on session s.
func (r *floodRig) send(s int) error {
	r.seqs[s]++
	payload := r.stampers[s].stamp(time.Now().UnixMicro(), r.m.sinceMicros())
	var msg wire.Message
	if r.spec.relay > 0 {
		msg = &wire.RelayBatch{Seq: r.seqs[s], Count: batchRecords, Payload: payload}
	} else {
		msg = &wire.DataBatch{Seq: r.seqs[s], Count: batchRecords, Payload: payload}
	}
	if err := r.sessions[s].wc.Send(msg); err != nil {
		return err
	}
	r.m.offered.Add(batchRecords)
	return nil
}

func (r *floodRig) start() {
	for s := range r.sessions {
		r.gens.Add(1)
		go func(s int) {
			defer r.gens.Done()
			for {
				// Credit: at most ackWindow batches the manager has not yet
				// taken, and a send token (see floodSpec.window).
				if seq := r.seqs[s]; seq >= ackWindow && !r.sessions[s].awaitAcked(seq-ackWindow+1, r.stop) {
					return
				}
				select {
				case <-r.stop:
					return
				case <-r.tokens:
				}
				if err := r.send(s); err != nil {
					r.errs <- err
					return
				}
			}
		}(s)
	}
}

// consume is the workload's consumer: it checks every record, samples
// latency, and hands a send token back per batch's worth delivered.
func (r *floodRig) consume(c *brisk.Consumer) {
	defer close(r.consumerDone)
	n := 0
	for {
		rec, ok := c.Next()
		if !ok {
			r.consumerLost = c.Lost
			return
		}
		_, b := r.chk.observe(&rec)
		r.m.delivered.Add(1)
		r.first.fire()
		n++
		if n%16 == 0 {
			if r.m.measuring.Load() {
				r.lat.add(r.m.sinceMicros() - int64(uint32(b)))
			}
		}
		if n%batchRecords == 0 {
			select {
			case r.tokens <- struct{}{}:
			default:
			}
		}
	}
}

func (r *floodRig) meter() *meter { return &r.m }

func (r *floodRig) backlog() int64 { return managerBacklog(r.mgr) }

// teardown stops senders, closes sessions and the manager, and waits for
// the consumer to reach end of stream.
func (r *floodRig) teardown() {
	close(r.stop)
	r.gens.Wait()
	for i, s := range r.sessions {
		s.close(r.seqs[i])
	}
	r.mgr.Close()
	<-r.consumerDone
}

func (r *floodRig) finish() (*liveResult, error) {
	res := &liveResult{layer: map[string]float64{}, inputSHA: r.sha}
	managerLayer(res.layer, r.mgr)
	stageAges(res.layer, r.mgr.Metrics())
	r.teardown()
	select {
	case err := <-r.errs:
		return nil, fmt.Errorf("send: %w", err)
	default:
	}
	res.attempted = r.m.offered.Load()
	res.delivered = r.chk.delivered
	res.lat = &r.lat
	res.checks = []check{
		conservation(res.attempted, res.delivered, r.chk.markerCovered, 0),
		zeroCheck("per-source FIFO", r.chk.fifoBroken, "records behind their source's sequence"),
		zeroCheck("only generated records", r.chk.foreign, "records no generator produced"),
		zeroCheck("consumer kept up", r.consumerLost, "records the memory buffer overwrote unread"),
	}
	res.inversions = r.chk.inversions
	var acks uint64
	for _, s := range r.sessions {
		acks += s.acks.Load()
	}
	res.layer["ism.acks"] = float64(acks)
	return res, nil
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
