package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"brisk"
	"brisk/internal/wire"
)

const (
	tailRate = 100_000 // records per second on the one session
	// tailPeriod is the pacing step: one batch every batchRecords / rate.
	tailPeriod      = time.Second * batchRecords / tailRate
	tailParked      = 256
	tailQueryPeriod = 100 * time.Millisecond
	// tailSelective accepts the records whose field c (f3: the timestamp
	// is f0) is below 5 — template.matched of every batch.
	tailSelective = "f3<5"
)

// tailRig reads beside writes: one wire session offers batches on a fixed
// schedule into a manager whose sink is tapped by the subscription
// engine. The workload's consumer is an HTTP /subscribe NDJSON tail that
// matches everything; beside it run an in-process selective subscriber,
// parked subscribers that match nothing, and a /query + /topk ticker.
type tailRig struct {
	mgr     *brisk.Manager
	obs     *brisk.ObservabilityServer
	m       meter
	sess    *session
	stamper *stamper
	sha     [32]byte
	batches uint64
	client  *http.Client

	stop chan struct{}
	gens sync.WaitGroup
	lag  hist
	err  error // generator's send error, read after gens.Wait

	first    *firstSignal
	tailDone chan struct{} // nil until the tail is attached
	tailErr  error
	lat      hist
	chk      tailChecker

	selDone    chan struct{} // nil until the subscriber is attached
	selMatched uint64        // events the selective subscriber received
	selWrong   uint64        // of which its filter should have rejected
	selDropped uint64

	queries   hist // µs per /query round trip
	queryErrs uint64
}

// tailChecker is the checker's counterpart for NDJSON lines.
type tailChecker struct {
	lastSeq       uint32
	maxTS         int64
	delivered     uint64
	markerCovered uint64
	fifoBroken    uint64
	inversions    uint64 // inside the measured window
	measuring     *atomic.Bool
	foreign       uint64
}

func setupTail(cfg liveConfig) (rig, error) {
	r := &tailRig{first: newFirstSignal(), stop: make(chan struct{}), client: &http.Client{}}
	r.m.t0 = time.Now()
	r.chk.measuring = &r.m.measuring

	gen := rng(cfg.seed)
	t, err := newTemplate(&gen, 0, 0)
	if err != nil {
		return nil, err
	}
	h := newInputHash()
	h.bytes(t.payload)
	r.sha = h.sum()
	r.stamper = newStamper(t, 0, nil)

	mgr, err := brisk.StartManager(brisk.ManagerOptions{
		Subscribe:        &brisk.SubscribeOptions{WindowBytes: 8 << 20},
		Logf:             quietLog,
		TraceSampleEvery: cfg.traceSampleEvery(),
	})
	if err != nil {
		return nil, err
	}
	r.mgr = mgr
	obs, err := brisk.ServeObservability("127.0.0.1:0", mgr.Metrics(), nil)
	if err != nil {
		mgr.Close()
		return nil, err
	}
	r.obs = obs
	mgr.MountSubscribe(obs)

	fail := func(err error) (rig, error) {
		r.teardown()
		return nil, err
	}
	eng := mgr.Subscriptions()
	parked, err := brisk.ParseSubscribeFilter("event=200")
	if err != nil {
		return fail(err)
	}
	for i := 0; i < tailParked; i++ {
		if _, err := eng.Subscribe(parked, false); err != nil {
			return fail(err)
		}
	}
	selective, err := brisk.ParseSubscribeFilter(tailSelective)
	if err != nil {
		return fail(err)
	}
	sub, err := eng.Subscribe(selective, false)
	if err != nil {
		return fail(err)
	}
	r.selDone = make(chan struct{})
	go r.selectiveLoop(sub)

	resp, err := r.client.Get("http://" + obs.Addr() + "/subscribe")
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fail(fmt.Errorf("/subscribe: %s", resp.Status))
	}
	r.tailDone = make(chan struct{})
	go r.tailLoop(resp.Body)

	if r.sess, err = dialSession(mgr.Addr(), "tail", cfg.seed<<8|1); err != nil {
		return fail(err)
	}
	if err := r.send(r.m.sinceMicros()); err != nil {
		return fail(err)
	}
	if err := r.first.wait(); err != nil {
		return fail(err)
	}
	return r, nil
}

// send stamps one batch with the wall clock and the given due stamp.
func (r *tailRig) send(dueMicros int64) error {
	now := time.Now().UnixMicro()
	r.stamper.fixed = now
	r.batches++
	return r.sess.wc.Send(&wire.DataBatch{Seq: r.batches, Count: batchRecords,
		Payload: r.stamper.stamp(now, dueMicros)})
}

func (r *tailRig) start() {
	begin := time.Now().Add(tailPeriod)
	r.gens.Add(2)
	go r.generate(begin)
	go r.queryLoop()
}

// generate is the open-loop sender: batch k is due at begin + k·period.
func (r *tailRig) generate(begin time.Time) {
	defer r.gens.Done()
	for k := 0; ; k++ {
		due := begin.Add(time.Duration(k) * tailPeriod)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-r.stop:
			return
		default:
		}
		r.lag.add(int64(time.Since(due) / time.Microsecond))
		if r.err = r.send(int64(due.Sub(r.m.t0) / time.Microsecond)); r.err != nil {
			return
		}
		r.m.offered.Add(batchRecords)
	}
}

// queryLoop is the dashboard beside the tail: every tailQueryPeriod one
// /query (timed) and one /topk.
func (r *tailRig) queryLoop() {
	defer r.gens.Done()
	tick := time.NewTicker(tailQueryPeriod)
	defer tick.Stop()
	base := "http://" + r.obs.Addr()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		t := time.Now()
		if !r.get(base+"/query?limit=1000", '[') {
			r.queryErrs++
		} else if r.m.measuring.Load() {
			r.queries.add(int64(time.Since(t) / time.Microsecond))
		}
		if !r.get(base+"/topk?by=source&k=3", '{') {
			r.queryErrs++
		}
	}
}

// get fetches url and reports whether it answered 200 with a body that
// opens with the given JSON delimiter.
func (r *tailRig) get(url string, open byte) bool {
	resp, err := r.client.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK && len(body) > 0 && body[0] == open
}

// tailLoop is the workload's consumer: it reads the NDJSON stream line
// by line until the manager ends it.
func (r *tailRig) tailLoop(body io.ReadCloser) {
	defer close(r.tailDone)
	defer body.Close()
	br := bufio.NewReaderSize(body, 256<<10)
	n := 0
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if err != io.EOF {
				r.tailErr = err
			}
			return
		}
		b, ok := r.chk.observe(line)
		if !ok {
			continue
		}
		r.m.delivered.Add(1)
		r.first.fire()
		n++
		if n%4 == 0 {
			if r.m.measuring.Load() {
				r.lat.add(r.m.sinceMicros() - b)
			}
		}
	}
}

// jsonInt returns the integer following key in line, searching from
// offset from, and the offset just past it; ok is false when key is
// absent.
func jsonInt(line []byte, key string, from int) (v int64, next int, ok bool) {
	i := bytes.Index(line[from:], []byte(key))
	if i < 0 {
		return 0, from, false
	}
	i += from + len(key)
	j := i
	for j < len(line) && (line[j] == '-' || line[j] >= '0' && line[j] <= '9') {
		j++
	}
	v, err := strconv.ParseInt(string(line[i:j]), 10, 64)
	return v, j, err == nil
}

// observe checks one NDJSON line and returns the due stamp it carries;
// ok is false for loss markers and for lines that are not data records.
func (c *tailChecker) observe(line []byte) (due int64, ok bool) {
	if count, _, isLoss := jsonInt(line, `"loss":{"count":`, 0); isLoss {
		c.markerCovered += uint64(count)
		return 0, false
	}
	ts, at, ok1 := jsonInt(line, `"ts":`, 0)
	seq, at, ok2 := jsonInt(line, `"int":`, at)
	due, _, ok3 := jsonInt(line, `"int":`, at)
	if !ok1 || !ok2 || !ok3 {
		c.foreign++
		return 0, false
	}
	c.delivered++
	if uint32(seq) <= c.lastSeq {
		c.fifoBroken++
	} else {
		c.lastSeq = uint32(seq)
	}
	if ts < c.maxTS {
		if c.measuring.Load() {
			c.inversions++
		}
	} else {
		c.maxTS = ts
	}
	return due, true
}

// selectiveLoop drains the in-process selective subscriber and checks
// that it is handed only records its filter accepts.
func (r *tailRig) selectiveLoop(sub *brisk.Subscription) {
	defer close(r.selDone)
	for {
		evs, err := sub.Next(context.Background())
		if err != nil {
			_, r.selDropped = sub.Stats()
			return
		}
		for i := range evs {
			rec := &evs[i].Record
			if rec.Event != floodEvent {
				continue // a read-side loss marker
			}
			r.selMatched++
			if len(rec.Fields) != 7 || rec.Fields[3].Int() >= 5 {
				r.selWrong++
			}
		}
	}
}

func (r *tailRig) meter() *meter { return &r.m }

func (r *tailRig) backlog() int64 { return managerBacklog(r.mgr) }

// teardown stops the sender and the ticker, closes the session, and
// closes the manager, which ends the HTTP tail and every subscription
// cleanly once they have drained.
func (r *tailRig) teardown() {
	close(r.stop)
	r.gens.Wait()
	if r.sess != nil {
		r.sess.close(r.batches)
	}
	r.mgr.Close()
	if r.selDone != nil {
		<-r.selDone
	}
	if r.tailDone != nil {
		<-r.tailDone
	}
	r.obs.Close()
	r.client.CloseIdleConnections()
}

func (r *tailRig) finish() (*liveResult, error) {
	res := &liveResult{layer: map[string]float64{}, inputSHA: r.sha}
	managerLayer(res.layer, r.mgr)
	reg := r.mgr.Metrics()
	r.teardown()
	if r.err != nil {
		return nil, fmt.Errorf("send: %w", r.err)
	}
	if r.tailErr != nil {
		return nil, fmt.Errorf("/subscribe tail: %w", r.tailErr)
	}
	stageAges(res.layer, reg)
	res.attempted = r.batches * batchRecords
	res.delivered = r.chk.delivered
	res.lat = &r.lat
	wantMatched := r.batches * uint64(r.stamper.tmpl.matched)
	selCount := check{Name: "selective subscriber complete", OK: r.selMatched+r.selDropped >= wantMatched && r.selMatched <= wantMatched}
	if !selCount.OK {
		selCount.Detail = fmt.Sprintf("received %d of %d matching records (%d marker-covered)",
			r.selMatched, wantMatched, r.selDropped)
	}
	res.checks = []check{
		conservation(res.attempted, res.delivered, r.chk.markerCovered, 0),
		zeroCheck("per-source FIFO", r.chk.fifoBroken, "records behind their source's sequence"),
		zeroCheck("only generated records", r.chk.foreign, "lines that are not generated records"),
		zeroCheck("selective subscriber filter", r.selWrong, "records its filter rejects"),
		selCount,
		zeroCheck("queries answered", r.queryErrs, "failed /query or /topk requests"),
	}
	res.inversions = r.chk.inversions
	res.layer["subscribe.delivered"] = seriesSum(reg, "brisk_sub_delivered_total")
	res.layer["subscribe.dropped"] = seriesSum(reg, "brisk_sub_dropped_total")
	res.layer["subscribe.read_markers"] = seriesSum(reg, "brisk_sub_loss_markers_total")
	res.layer["subscribe.query_p50_us"] = r.queries.quantile(0.5)
	res.layer["gen.lag_p99_us"] = r.lag.quantile(0.99)
	return res, nil
}
