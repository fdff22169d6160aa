package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"brisk"
	"brisk/internal/picl"
)

const (
	noticeNodes = 2
	noticeRate  = 50_000 // notices per second, all nodes together
	// noticePeriod is one node's pacing step: a block of noticeBlock
	// notices every noticeBlock / (rate per node) seconds.
	noticePeriod = time.Second * noticeBlock * noticeNodes / noticeRate

	eventReason = 2
	eventConseq = 3
)

// noticeRig is the paper's instrumented application in miniature, built
// from the public brisk API only: two nodes with one sensor each issue
// six-int notices in blocks on a fixed schedule; on two blocks in three a
// node also issues a causal reason, which its peer answers with the
// consequence. The manager (defaults) sinks to a PICL file and to the
// memory buffer a Consumer reads.
type noticeRig struct {
	mgr     *brisk.Manager
	m       meter
	nodes   [noticeNodes]*brisk.Node
	sensors [noticeNodes]*brisk.Sensor
	table   *noticeTable
	sha     [32]byte

	piclPath string
	piclFile *os.File

	stop    chan struct{}
	gens    sync.WaitGroup
	seq     [noticeNodes]uint32        // per node, last sequence number issued
	reasons [noticeNodes]atomic.Uint64 // reasons each node has issued
	replied [noticeNodes]uint64        // peer's reasons each node has answered
	lag     [noticeNodes]hist          // µs behind schedule, per generator
	cost    [noticeNodes]hist          // ns per block of noticeBlock notices

	first        *firstSignal
	consumerDone chan struct{}
	chk          *checker
	lat          hist
	consumerLost uint64
}

var piclSerial atomic.Uint64

func setupNotice(cfg liveConfig) (rig, error) {
	r := &noticeRig{first: newFirstSignal(),
		stop: make(chan struct{}), consumerDone: make(chan struct{})}
	r.m.t0 = time.Now()
	r.chk = newChecker(&r.m)

	gen := rng(cfg.seed)
	r.table = newNoticeTable(&gen)
	h := newInputHash()
	for i := range r.table {
		h.int32s(r.table[i][:])
	}
	r.sha = h.sum()

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	r.piclPath = filepath.Join(cfg.outDir, fmt.Sprintf("picl-%d-%d.trace", os.Getpid(), piclSerial.Add(1)))
	f, err := os.Create(r.piclPath)
	if err != nil {
		return nil, err
	}
	r.piclFile = f
	mgr, err := brisk.StartManager(brisk.ManagerOptions{
		PICL: &brisk.PICLOptions{W: f},
		// The manager's defaults but for one: the time frame decays (the
		// library default never shrinks it, so one scheduling hiccup
		// would set the latency of the rest of the run and the medians
		// of two runs would differ by a third).
		Sorter:           brisk.SorterOptions{HalfLife: 500_000},
		Logf:             quietLog,
		TraceSampleEvery: cfg.traceSampleEvery(),
	})
	if err != nil {
		f.Close()
		os.Remove(r.piclPath)
		return nil, err
	}
	r.mgr = mgr
	go r.consume(mgr.Consume())
	for i := range r.nodes {
		n, err := brisk.ConnectNode(brisk.NodeOptions{
			ManagerAddr:      mgr.Addr(),
			Name:             fmt.Sprintf("node-%d", i),
			Logf:             quietLog,
			TraceSampleEvery: cfg.traceSampleEvery(),
		})
		if err != nil {
			r.teardown()
			return nil, err
		}
		r.nodes[i] = n
		// A ring large enough that a descheduled external sensor never
		// costs a notice: the workload is chosen so no operation fails.
		r.sensors[i] = n.NewSensor("app", brisk.SensorOptions{RingBytes: 1 << 20})
	}
	r.notice6i(0, 0, r.m.sinceMicros())
	if err := r.first.wait(); err != nil {
		r.teardown()
		return nil, err
	}
	return r, nil
}

// notice6i issues node n's next six-int notice: sequence number, due
// stamp, and the table's four values for the block slot.
func (r *noticeRig) notice6i(n, slot int, dueMicros int64) {
	r.seq[n]++
	v := &r.table[slot]
	r.sensors[n].Notice6i(floodEvent, int32(r.seq[n]), int32(dueMicros), v[0], v[1], v[2], v[3])
}

func causalID(node int, k uint64) uint64 { return uint64(node+1)<<32 | k }

// answer issues node n's consequences for every reason its peer has
// issued since the last call.
func (r *noticeRig) answer(n int) {
	peer := 1 - n
	for issued := r.reasons[peer].Load(); r.replied[n] < issued; {
		r.replied[n]++
		r.seq[n]++
		r.sensors[n].NoticeConseq(eventConseq, causalID(peer, r.replied[n]), int32(r.seq[n]))
	}
}

func (r *noticeRig) start() {
	begin := time.Now().Add(noticePeriod)
	for n := range r.nodes {
		r.gens.Add(1)
		go r.generate(n, begin)
	}
}

// generate is node n's open-loop generator: block k is due at
// begin + k·noticePeriod whether or not the previous one ran on time.
func (r *noticeRig) generate(n int, begin time.Time) {
	defer r.gens.Done()
	for k := 0; ; k++ {
		due := begin.Add(time.Duration(k) * noticePeriod)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-r.stop:
			return
		default:
		}
		r.lag[n].add(int64(time.Since(due) / time.Microsecond))
		dueMicros := int64(due.Sub(r.m.t0) / time.Microsecond)
		before := r.sensors[n].Notices()
		t := time.Now()
		for slot := 0; slot < noticeBlock; slot++ {
			if slot == 0 && k%3 != 2 {
				r.seq[n]++
				r.sensors[n].NoticeReason(eventReason, causalID(n, r.reasons[n].Load()+1), int32(r.seq[n]))
				r.reasons[n].Add(1)
				continue
			}
			r.notice6i(n, slot, dueMicros)
		}
		r.cost[n].add(int64(time.Since(t)))
		r.answer(n)
		r.m.offered.Add(r.sensors[n].Notices() - before)
	}
}

func (r *noticeRig) consume(c *brisk.Consumer) {
	defer close(r.consumerDone)
	for {
		rec, ok := c.Next()
		if !ok {
			r.consumerLost = c.Lost
			return
		}
		_, b := r.chk.observe(&rec)
		r.m.delivered.Add(1)
		r.first.fire()
		if rec.Event == floodEvent {
			if r.m.measuring.Load() {
				r.lat.add(r.m.sinceMicros() - int64(b))
			}
		}
	}
}

func (r *noticeRig) meter() *meter { return &r.m }

func (r *noticeRig) backlog() int64 { return managerBacklog(r.mgr) }

// teardown stops the generators, answers the last reasons, ships what
// the nodes still hold, and closes the manager so the consumer drains to
// end of stream.
func (r *noticeRig) teardown() {
	close(r.stop)
	r.gens.Wait()
	for n, node := range r.nodes {
		if node == nil {
			continue
		}
		r.answer(n)
		node.Close()
	}
	r.mgr.Close()
	<-r.consumerDone
	r.piclFile.Close()
}

func (r *noticeRig) finish() (*liveResult, error) {
	res := &liveResult{layer: map[string]float64{}, inputSHA: r.sha}
	managerLayer(res.layer, r.mgr)
	r.teardown()
	defer os.Remove(r.piclPath)
	stageAges(res.layer, r.mgr.Metrics(), r.nodes[0].Metrics(), r.nodes[1].Metrics())

	var ringDropped, batches, sent, stalls, retransmits uint64
	var lag, cost hist
	for n, node := range r.nodes {
		res.attempted += r.sensors[n].Notices()
		st := node.Stats()
		ringDropped += st.RingDropped
		batches += st.Batches
		sent += st.Sent
		stalls += st.CreditStalls
		retransmits += st.Retransmits
		lag.merge(&r.lag[n])
		cost.merge(&r.cost[n])
	}
	res.delivered = r.chk.delivered
	res.lat = &r.lat
	lines, err := countPICL(r.piclPath)
	piclCheck := check{Name: "PICL file re-read", OK: err == nil && lines == r.chk.delivered+r.chk.markers}
	if !piclCheck.OK {
		piclCheck.Detail = fmt.Sprintf("%d parseable lines for %d delivered records (err %v)",
			lines, r.chk.delivered+r.chk.markers, err)
	}
	res.checks = []check{
		conservation(res.attempted, res.delivered, r.chk.markerCovered, ringDropped),
		zeroCheck("per-source FIFO", r.chk.fifoBroken, "records behind their source's sequence"),
		zeroCheck("reason before consequence", r.chk.causalBroken, "consequences delivered before their reason"),
		zeroCheck("only generated records", r.chk.foreign, "records no generator produced"),
		zeroCheck("consumer kept up", r.consumerLost, "records the memory buffer overwrote unread"),
		piclCheck,
	}
	res.layer["exs.batches"] = float64(batches)
	res.layer["exs.recs_per_batch"] = frac(sent, batches)
	res.layer["exs.credit_stalls"] = float64(stalls)
	res.layer["exs.ring_dropped"] = float64(ringDropped)
	res.layer["exs.retransmits"] = float64(retransmits)
	res.inversions = r.chk.inversions
	res.layer["sensor.notice_ns"] = cost.quantile(0.5) / noticeBlock
	res.layer["gen.lag_p99_us"] = lag.quantile(0.99)
	return res, nil
}

// countPICL re-reads a trace file with the PICL reader and counts the
// lines it parses.
func countPICL(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rd := picl.NewReader(f)
	var n uint64
	for {
		if _, err := rd.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		n++
	}
}
