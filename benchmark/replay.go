package main

// The staged replay behind the per-layer busy times. A workload's own
// generated input is pushed, in this process and on one goroutine, stage
// by stage through the same public entry points the live pipeline calls
// — sensor, ring, wire, decode, sorter, matcher, sinks, consumer — with a
// span around each call batch. Time is virtual (the replay never waits),
// so a span's duration is busy time and nothing else.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"time"

	"brisk"
	"brisk/internal/bench"
	"brisk/internal/cre"
	"brisk/internal/ism"
	"brisk/internal/ols"
	"brisk/internal/picl"
	"brisk/internal/record"
	"brisk/internal/sensor"
	"brisk/internal/shm"
	"brisk/internal/subscribe"
	"brisk/internal/vclock"
	"brisk/internal/wire"
)

// replaySpec says which stages a workload's replay has.
type replaySpec struct {
	notices     bool // input is notices through sensor and ring (else pre-encoded batches)
	relay       int  // origins per RELAY_DATA batch (0: DATA batches)
	disorder    bool
	shards      int
	sorter      brisk.SorterOptions
	picl        bool
	subscribe   bool
	batchMicros int64 // virtual time one batch stands for
}

func olsConfig(o brisk.SorterOptions) ols.Config {
	// Policy is left at its zero value by every workload: grow to lateness.
	return ols.Config{InitialT: o.InitialT, MinT: o.MinT, MaxT: o.MaxT, HalfLife: o.HalfLife, Core: o.Core}
}

// stages is the manager-and-consumer half of the replay, shared by every
// workload: what happens to a batch once it is on the wire.
type stages struct {
	tr   *tracer
	pipe bytes.Buffer
	conn *wire.Conn

	decoded []record.Record
	sorter  *ols.Sharded
	matcher *cre.Matcher
	staged  []record.Record
	out     []record.Record
	bufs    [][]byte
	buffer  *shm.Buffer
	cursor  *shm.Cursor
	piclW   *picl.Writer
	eng     *subscribe.Engine
	sub     *subscribe.Subscription
	flushes int
	// last is the most recent batch payload as received, kept for the
	// allocation count.
	last      []byte
	lastRelay bool

	batches, records, consumed, events, queries int
	maxBuffered                                 int
}

func newStages(tr *tracer, spec replaySpec) (*stages, error) {
	st := &stages{tr: tr, sorter: ols.NewSharded(olsConfig(spec.sorter), max(spec.shards, 1)),
		matcher: cre.New(cre.Config{}), buffer: shm.NewBuffer(1 << 17)}
	st.conn = wire.NewConn(&st.pipe)
	st.cursor = st.buffer.NewCursor()
	if spec.picl {
		st.piclW = picl.NewWriter(io.Discard, picl.TimeUTC, 0)
	}
	if spec.subscribe {
		st.eng = subscribe.New(subscribe.Config{WindowBytes: 8 << 20})
		sub, err := st.eng.Subscribe(nil, false)
		if err != nil {
			return nil, err
		}
		st.sub = sub
	}
	return st, nil
}

// ingest takes one batch from the sender's side of the wire into the
// sorter: send, receive, decode, push.
func (st *stages) ingest(root int, node int32, relay bool, payload []byte, count int, now int64) error {
	tr := st.tr
	st.batches++
	var msg wire.Message = &wire.DataBatch{Seq: uint64(st.batches), Count: uint32(count), Payload: payload}
	if relay {
		msg = &wire.RelayBatch{Seq: uint64(st.batches), Count: uint32(count), Payload: payload}
	}
	sp := tr.begin("wire.send", root)
	err := st.conn.Send(msg)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("wire.recv", root)
	got, err := st.conn.RecvReuse()
	tr.end(sp)
	if err != nil {
		return err
	}
	var received []byte
	switch m := got.(type) {
	case *wire.DataBatch:
		received = m.Payload
	case *wire.RelayBatch:
		received = m.Payload
	}
	sp = tr.begin("record.decode", root)
	if relay {
		st.decoded, err = record.DecodeNodeAppend(st.decoded[:0], received)
	} else {
		st.decoded, err = record.DecodeAppend(st.decoded[:0], received)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	st.last, st.lastRelay = append(st.last[:0], received...), relay
	if len(st.decoded) != count {
		return fmt.Errorf("replay: decoded %d of %d records", len(st.decoded), count)
	}
	st.records += count
	sp = tr.begin("ols.push", root)
	if relay {
		st.sorter.PushMixed(st.decoded, now)
	} else {
		st.sorter.PushBatch(node, st.decoded, now)
	}
	tr.end(sp)
	if b := st.sorter.Buffered(); b > st.maxBuffered {
		st.maxBuffered = b
	}
	return nil
}

// deliver runs one merger pass and the consumer behind it: extract what
// has aged (everything, with flush set), match causal pairs, encode and
// publish to the memory buffer and the optional sinks, then read it all
// back the way a Consumer does.
func (st *stages) deliver(root int, now int64, flush bool) error {
	tr := st.tr
	st.staged = st.staged[:0]
	stage := func(r record.Record) { st.staged = append(st.staged, r) }
	sp := tr.begin("ols.extract", root)
	if flush {
		st.sorter.Flush(stage)
	} else {
		st.sorter.Extract(now, stage)
	}
	tr.end(sp)

	st.out = st.out[:0]
	collect := func(r record.Record) { st.out = append(st.out, r) }
	sp = tr.begin("cre.process", root)
	for i := range st.staged {
		st.matcher.Process(st.staged[i], now, collect)
	}
	if flush {
		st.matcher.Flush(collect)
	}
	tr.end(sp)
	if len(st.out) == 0 {
		return nil
	}

	sp = tr.begin("record.encode", root)
	for len(st.bufs) < len(st.out) {
		st.bufs = append(st.bufs, nil)
	}
	for i := range st.out {
		buf := binary.BigEndian.AppendUint32(st.bufs[i][:0], uint32(st.out[i].Node))
		var err error
		if st.bufs[i], err = st.out[i].Append(buf); err != nil {
			return err
		}
	}
	tr.end(sp)

	sp = tr.begin("shm.buffer_publish", root)
	st.buffer.PublishBatch(st.bufs[:len(st.out)])
	tr.end(sp)

	if st.piclW != nil {
		sp = tr.begin("picl.write", root)
		for i := range st.out {
			if err := st.piclW.WriteRecord(&st.out[i]); err != nil {
				return err
			}
		}
		tr.end(sp)
	}
	if st.eng != nil {
		sp = tr.begin("subscribe.publish", root)
		for i := range st.out {
			st.eng.Publish(&st.out[i], st.bufs[i], now)
		}
		st.eng.EndFlush()
		tr.end(sp)

		// A context that is already over makes Next return what is there
		// and never wait.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		sp = tr.begin("subscribe.next", root)
		for {
			evs, err := st.sub.Next(ctx)
			if err != nil {
				break
			}
			st.events += len(evs)
		}
		tr.end(sp)
		if st.flushes++; st.flushes%40 == 0 {
			sp = tr.begin("subscribe.query", root)
			n := len(st.eng.Query(nil, 1000))
			tr.end(sp)
			if n == 0 {
				return fmt.Errorf("replay: query returned nothing")
			}
			st.queries++
		}
	}

	// What brisk.Consumer.TryNext does per record (a Consumer itself
	// cannot be had without a running Manager).
	sp = tr.begin("consumer.next", root)
	defer tr.end(sp)
	for {
		raw, _, ok := st.cursor.TryNext()
		if !ok {
			return nil
		}
		if _, err := ism.DecodeBuffered(raw); err != nil {
			return err
		}
		st.consumed++
	}
}

// runReplay replays `batches` batches of the workload's input and turns
// the spans into the per-layer busy-time metrics.
func runReplay(w *workload, seed uint64, batches int, tr *tracer) (map[string]float64, error) {
	spec := w.replay
	st, err := newStages(tr, spec)
	if err != nil {
		return nil, err
	}
	gen := rng(seed)
	var notices, dynNotices, ringWrites int
	if spec.notices {
		notices, dynNotices, ringWrites, err = replayNotices(st, &gen, batches, spec)
	} else {
		err = replayBatches(st, &gen, batches, spec)
	}
	if err != nil {
		return nil, err
	}
	root := tr.begin("replay.flush", -1)
	err = st.deliver(root, 0, true)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	if st.consumed != st.records {
		return nil, fmt.Errorf("replay: consumed %d of %d records", st.consumed, st.records)
	}

	ops := tr.opTotals()
	per := func(op string, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(ops[op]) / float64(n)
	}
	m := map[string]float64{
		"sensor.notice6i_ns":            per("sensor.notice6i", notices),
		"sensor.notice_dyn_ns":          per("sensor.notice_dyn", dynNotices),
		"shm.ring_write_ns":             per("shm.ring_write", ringWrites),
		"shm.ring_drain_ns_per_rec":     per("shm.ring_drain", notices),
		"shm.buffer_publish_ns_per_rec": per("shm.buffer_publish", st.records),
		"consumer.next_ns_per_rec":      per("consumer.next", st.records),
		"record.encode_ns_per_rec":      per("record.encode", st.records),
		"record.decode_ns_per_rec":      per("record.decode", st.records),
		"wire.send_ns_per_batch":        per("wire.send", st.batches),
		"wire.recv_ns_per_batch":        per("wire.recv", st.batches),
		"wire.bytes_per_rec":            float64(st.conn.BytesOut()) / float64(st.records),
		"ols.push_ns_per_rec":           per("ols.push", st.records),
		"ols.extract_ns_per_rec":        per("ols.extract", st.records),
		"ols.max_buffered":              float64(st.maxBuffered),
		"cre.process_ns_per_rec":        per("cre.process", st.records),
		"picl.write_ns_per_rec":         per("picl.write", st.records),
		"subscribe.publish_ns_per_rec":  per("subscribe.publish", st.records),
		"subscribe.next_ns_per_event":   per("subscribe.next", st.events),
		"subscribe.query_ns":            per("subscribe.query", st.queries),
		"record.allocs_per_krec":        decodeAllocsPerKrec(st),
	}

	// Shares of self time. The dynamic-notice twin is off the path; the
	// ring-write twin stands for the ring writes made inside Notice6i, so
	// it is moved from the sensor's time to shm's.
	self := tr.layerSelf()
	self["sensor"] -= ops["sensor.notice_dyn"] + ops["shm.ring_write"]
	var total time.Duration
	for _, layer := range shareLayers {
		total += self[layer]
	}
	for _, layer := range shareLayers {
		m[layer+".share"] = float64(self[layer]) / float64(total)
	}
	return m, nil
}

// shareLayers are the data-path layers whose self times add up to 1.
var shareLayers = []string{"sensor", "shm", "record", "wire", "ols", "cre", "picl", "subscribe", "consumer"}

// decodeAllocsPerKrec decodes the last received batch repeatedly into a
// recycled slice and counts heap allocations per thousand records.
func decodeAllocsPerKrec(st *stages) float64 {
	const rounds = 200
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < rounds; i++ {
		if st.lastRelay {
			st.decoded, _ = record.DecodeNodeAppend(st.decoded[:0], st.last)
		} else {
			st.decoded, _ = record.DecodeAppend(st.decoded[:0], st.last)
		}
	}
	runtime.ReadMemStats(&ms1)
	if len(st.decoded) == 0 {
		return 0
	}
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(rounds*len(st.decoded)) * 1000
}

// replayBatches drives the pre-encoded batch workloads: the sender's
// stamper output goes straight onto the wire.
func replayBatches(st *stages, gen *rng, batches int, spec replaySpec) error {
	const sessions = 2
	var stampers []*stamper
	vnow := time.Now().UnixMicro()
	n := sessions
	if spec.subscribe {
		n = 1
	}
	for s := 0; s < n; s++ {
		t, err := newTemplate(gen, spec.relay, relayFirstNode+int32(s*spec.relay))
		if err != nil {
			return err
		}
		var dis *disorder
		if spec.disorder {
			dis = newDisorder(gen, t.sources)
		}
		stampers = append(stampers, newStamper(t, vnow-10_000_000, dis))
	}
	// The live merger extracts once per MergeInterval (5 ms by default),
	// so the replayed sorter is drained that often in virtual time too
	// and holds between passes what the live one holds.
	every := int(max(1, 5000/spec.batchMicros))
	for b := 0; b < batches; b++ {
		s := b % len(stampers)
		vnow += spec.batchMicros
		if spec.subscribe {
			stampers[s].fixed = vnow
		}
		root := st.tr.begin("replay.batch", -1)
		payload := stampers[s].stamp(vnow, 0)
		if err := st.ingest(root, int32(s+1), spec.relay > 0, payload, batchRecords, vnow); err != nil {
			return err
		}
		var err error
		if (b+1)%every == 0 {
			err = st.deliver(root, vnow, false)
		}
		st.tr.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayNotices drives the notice workload: blocks of notices into each
// node's ring on a virtual schedule, a ring drain every four blocks (what
// fits one default-sized batch), then the shared stages. Beside the path
// it times two twins on rings of their own: the same notices through the
// dynamically typed Notice call, and the bare ring write of an encoded
// notice.
func replayNotices(st *stages, gen *rng, batches int, spec replaySpec) (notices, dynNotices, ringWrites int, err error) {
	table := newNoticeTable(gen)
	clock := vclock.NewManual(time.Now().UnixMicro())
	var sensors [noticeNodes]*sensor.Sensor
	for n := range sensors {
		sensors[n] = sensor.New(shm.NewRegion(), "app", sensor.Options{RingBytes: 1 << 20, Clock: clock})
	}
	dyn := sensor.New(shm.NewRegion(), "dyn", sensor.Options{RingBytes: 1 << 20, Clock: clock})
	twin := shm.NewRing(1 << 20)
	plain := record.New(floodEvent, record.TSVal(0), record.I32Val(0), record.I32Val(0),
		record.I32Val(0), record.I32Val(0), record.I32Val(0), record.I32Val(0))
	encoded, err := plain.Append(nil)
	if err != nil {
		return 0, 0, 0, err
	}
	var payload, scratch []byte
	var seq [noticeNodes]int32
	var owed [noticeNodes][]uint64 // reasons each node has yet to answer
	tr := st.tr
	const blocksPerBatch = 4
	for b := 0; b < batches; b++ {
		n := b % noticeNodes
		root := tr.begin("replay.batch", -1)
		for k := 0; k < blocksPerBatch; k++ {
			clock.Advance(noticePeriod.Microseconds() / noticeNodes)
			block := b*blocksPerBatch + k
			sp := tr.begin("sensor.notice6i", root)
			for _, id := range owed[n] {
				seq[n]++
				sensors[n].NoticeConseq(eventConseq, id, seq[n])
			}
			for slot := 0; slot < noticeBlock; slot++ {
				seq[n]++
				v := &table[slot]
				if slot == 0 && block%3 != 2 {
					id := causalID(n, uint64(block+1))
					sensors[n].NoticeReason(eventReason, id, seq[n])
					owed[1-n] = append(owed[1-n], id)
					continue
				}
				sensors[n].Notice6i(floodEvent, seq[n], int32(block), v[0], v[1], v[2], v[3])
			}
			tr.end(sp)
			notices += noticeBlock + len(owed[n])
			owed[n] = owed[n][:0]

			sp = tr.begin("sensor.notice_dyn", root)
			for slot := 0; slot < noticeBlock; slot++ {
				v := &table[slot]
				dyn.Notice(floodEvent, record.I32Val(seq[n]), record.I32Val(int32(block)),
					record.I32Val(v[0]), record.I32Val(v[1]), record.I32Val(v[2]), record.I32Val(v[3]))
			}
			tr.end(sp)
			dynNotices += noticeBlock
			scratch, _ = dyn.Ring().DrainAppend(scratch[:0], 0)

			sp = tr.begin("shm.ring_write", root)
			for slot := 0; slot < noticeBlock; slot++ {
				twin.Write(encoded)
			}
			tr.end(sp)
			ringWrites += noticeBlock
			scratch, _ = twin.DrainAppend(scratch[:0], 0)
		}
		sp := tr.begin("shm.ring_drain", root)
		var count int
		payload, count = sensors[n].Ring().DrainAppend(payload[:0], 0)
		tr.end(sp)
		if err := st.ingest(root, int32(n+1), false, payload, count, clock.NowMicros()); err != nil {
			return 0, 0, 0, err
		}
		err := st.deliver(root, clock.NowMicros(), false)
		tr.end(root)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return notices, dynNotices, ringWrites, nil
}

// syncSim runs the model-scheduled clock synchronization on the simulated
// disturbed LAN (8 nodes, 120 rounds of 5 s) twice and reports the run;
// identical reports whether both runs gave the same numbers.
func syncSim(seed uint64, tr *tracer) (m map[string]float64, identical bool) {
	sc := bench.SyncEfficiencyScenarios(seed)[1]
	sc.Sync = bench.ModelSyncConfig()
	sp := tr.begin("clocksync.sim", -1)
	res := bench.RunSync(sc)
	tr.end(sp)
	again := bench.RunSync(sc)
	m = map[string]float64{
		"clocksync.rounds":          float64(sc.Rounds),
		"clocksync.probe_rtts":      float64(res.Probes),
		"clocksync.model_fallbacks": float64(res.Fallbacks),
		"clocksync.skew_p95_us":     res.SteadyP95Micros,
		"clocksync.round_ns":        float64(tr.spans[sp].End-tr.spans[sp].Start) / float64(sc.Rounds),
	}
	identical = res.Probes == again.Probes && res.Fallbacks == again.Fallbacks &&
		res.SteadyP95Micros == again.SteadyP95Micros && res.SteadyMaxMicros == again.SteadyMaxMicros
	return m, identical
}
