package scenario

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"brisk/internal/clocksync"
	"brisk/internal/des"
	"brisk/internal/exs"
	"brisk/internal/faultnet"
	"brisk/internal/ism"
	"brisk/internal/ols"
	"brisk/internal/record"
	"brisk/internal/relay"
	"brisk/internal/sensor"
	"brisk/internal/shm"
	"brisk/internal/vclock"
	"brisk/internal/workload"
)

// Event-class bytes the drivers stamp, one base per shape so a record's
// provenance is readable in traces. Multi-sensor shapes add the sensor
// index to the base.
const (
	evSteady  = 10
	evBursty  = 30
	evDiurnal = 50
	evHotSkew = 70
	evDelayed = 80
	evReason  = 90 // causal consequence uses evReason+1
)

// Contract names reported per cell.
const (
	ContractConservation = "conservation" // multiset conservation per source
	ContractMonotone     = "monotone"     // monotone TS emission (markers exempt)
	ContractLoss         = "loss"         // acked ⇒ emitted or loss-marker
	ContractFIFO         = "fifo"         // per-source order preserved
	ContractProbeBudget  = "probe-budget" // sync probe RTTs within the cell's budget
)

// RunOptions configures a matrix run.
type RunOptions struct {
	Filter Filter
	// Timeout overrides every cell's timeout when nonzero.
	Timeout time.Duration
	// Logf receives one progress line per cell; nil means silent.
	Logf func(format string, args ...any)
}

// RunMatrices expands, filters and runs every cell of the given matrices,
// in order, and collects the results into a Report.
func RunMatrices(ms []*Matrix, opt RunOptions) *Report {
	rep := NewReport()
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for _, m := range ms {
		if !opt.Filter.MatchMatrix(m) {
			continue
		}
		for _, cell := range m.Expand() {
			cell := cell
			if !opt.Filter.MatchCell(&cell) {
				continue
			}
			res := RunCell(&cell, opt.Timeout)
			rep.Add(res)
			status := "ok"
			if len(res.Failures) > 0 {
				status = "FAIL: " + res.Failures[0]
			}
			logf("%-60s %8.0f rec/s  p99=%6.0fµs  markers=%d  %s",
				res.Cell, res.RecordsPerSec, res.EmitLatencyP99Micros, res.Markers, status)
		}
	}
	return rep
}

// ident names one produced record uniquely within a cell.
type ident struct {
	node int32
	key  uint64
}

// cellNode is one simulated node's wiring.
type cellNode struct {
	proxy     *faultnet.Proxy
	region    *shm.Region
	exs       *exs.EXS
	sensors   []*sensor.Sensor
	drift     *vclock.Drift  // nil when the regime has no offset/drift
	manual    *vclock.Manual // delayed shape only
	corrected *vclock.Corrected
	produced  uint64 // notices accepted into rings
	attempted uint64 // notices offered (accepted + refused)
}

// RunCell runs one cell end to end and returns its result. It never
// panics on pipeline trouble; failures are reported in the result.
func RunCell(c *Cell, timeoutOverride time.Duration) (res CellResult) {
	params := c.Params()
	timeout := time.Duration(params.TimeoutS) * time.Second
	if timeoutOverride > 0 {
		timeout = timeoutOverride
	}
	res = CellResult{
		Cell:     c.Name(),
		Matrix:   c.Matrix.Name,
		Workload: c.Workload.Name,
		Topology: c.Topology.Name,
		Clock:    c.Clock.Name,
		Fault:    c.Fault.Name,
		Seed:     c.Seed(),
		Contracts: map[string]bool{
			ContractConservation: false,
			ContractMonotone:     false,
			ContractLoss:         false,
			ContractFIFO:         false,
		},
	}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	quiet := func(f string, a ...any) {
		if DebugEnabled() {
			fmt.Fprintf(os.Stderr, f+"\n", a...)
		}
	}

	events := c.Workload.Events
	if events == 0 {
		events = 1000
	}
	sensorsPerNode := c.Topology.SensorsPerNode
	if sensorsPerNode == 0 {
		sensorsPerNode = 1
	}
	switch c.Workload.Shape {
	case ShapeCausal:
		sensorsPerNode = 2
	case ShapeDelayed:
		sensorsPerNode = 1
	}
	// Upper bound on data records a cell can emit, for buffer sizing.
	expect := events * c.Topology.Nodes * sensorsPerNode
	if c.Workload.Shape == ShapeCausal {
		expect = 2 * events * c.Topology.Nodes
	}

	// Composed sorter window: a relayed record dwells in its relay's
	// sorter for up to that tier's window before it is forwarded, so the
	// root must tolerate that much extra lateness on top of the leaf
	// lateness the base window covers — otherwise the interleave of two
	// relays' (individually monotone) streams inverts. One relay hop
	// therefore doubles the root window, plus shipping slack.
	rootInitialT := params.SorterInitialTMicros
	if c.Topology.Relays > 0 {
		rootInitialT = 2*params.SorterInitialTMicros +
			int64(4*(params.MergeIntervalMS+params.FlushIntervalMS)+10)*1000
	}

	// Synchronization configuration shared by the root and relay masters:
	// fixed-cadence rounds by default; model-based probe scheduling when
	// the regime sets an uncertainty bound.
	syncCfg := clocksync.Config{
		UncertaintyBound: c.Clock.SyncUncertaintyUS,
		MinProbeInterval: int64(c.Clock.SyncMinProbeMS) * 1000,
		MaxProbeInterval: int64(c.Clock.SyncMaxProbeMS) * 1000,
	}

	mgr, err := ism.New(ism.Config{
		Addr: "127.0.0.1:0",
		Sorter: ols.Config{
			InitialT:    rootInitialT,
			MaxBuffered: params.SorterMaxBuffered,
			SourceQuota: params.SorterSourceQuota,
		},
		MergeInterval:     time.Duration(params.MergeIntervalMS) * time.Millisecond,
		BufferRecords:     2*expect + 8192,
		HeartbeatInterval: 250 * time.Millisecond,
		SyncPeriod:        time.Duration(c.Clock.SyncPeriodMS) * time.Millisecond,
		Sync:              syncCfg,
		Logf:              quiet,
	})
	if err != nil {
		fail("manager: %v", err)
		return res
	}
	mgr.Start()
	defer mgr.Close()

	rng := des.NewRNG(c.Seed())

	// Federation tier: Relays intermediate managers, each owning the
	// nodes round-robin-assigned to it and forwarding its merged stream
	// to the root. Relay clocks draw from the same regime stream as node
	// clocks, so a relayed cell exercises two hops of skew. NodeBase
	// spacing keeps forwarded origin ids globally unique across relays.
	relays := c.Topology.Relays
	relayTier := make([]*relay.Relay, 0, relays)
	relayDrift := make([]*vclock.Drift, relays)
	for r := 0; r < relays; r++ {
		offset := rng.Int63n(2*c.Clock.OffsetSpreadMicros+1) - c.Clock.OffsetSpreadMicros
		driftPPM := (rng.Float64()*2 - 1) * c.Clock.DriftSpreadPPM
		var raw vclock.Clock = vclock.System{}
		if c.Clock.OffsetSpreadMicros > 0 || c.Clock.DriftSpreadPPM > 0 {
			relayDrift[r] = vclock.NewDrift(vclock.System{}, offset, driftPPM)
			raw = relayDrift[r]
		}
		rl, err := relay.New(relay.Config{
			Addr:     "127.0.0.1:0",
			Parent:   mgr.Addr(),
			Name:     fmt.Sprintf("%s/relay%d", c.Name(), r),
			NodeBase: int32(r * 1000),
			Clock:    raw,
			ISM: ism.Config{
				Sorter: ols.Config{
					InitialT:    params.SorterInitialTMicros,
					MaxBuffered: params.SorterMaxBuffered,
					SourceQuota: params.SorterSourceQuota,
				},
				MergeInterval:     time.Duration(params.MergeIntervalMS) * time.Millisecond,
				BufferRecords:     2*expect + 8192,
				HeartbeatInterval: 250 * time.Millisecond,
				SyncPeriod:        time.Duration(c.Clock.SyncPeriodMS) * time.Millisecond,
				Sync:              syncCfg,
				Logf:              quiet,
			},
			FlushInterval: time.Duration(params.FlushIntervalMS) * time.Millisecond,
			// Reuse the spill bound so overload cells evict (and mark) at
			// the relay tier too. Never give up on the parent: a dead
			// relay discards its loss accounting by design.
			QueueBytes:           params.SpillBytes,
			MaxReconnectAttempts: -1,
			Logf:                 quiet,
		})
		if err != nil {
			fail("relay %d: %v", r, err)
			return res
		}
		defer rl.Close()
		relayTier = append(relayTier, rl)
	}
	attachAddr := func(i int) string {
		if relays > 0 {
			return relayTier[i%relays].Addr()
		}
		return mgr.Addr()
	}

	nodes := make([]*cellNode, c.Topology.Nodes)
	for i := range nodes {
		n := &cellNode{}
		// Draw the node's clock regime from the cell stream. The draws
		// happen for every node in every regime so cells with the same
		// seed and topology assign identical per-node streams regardless
		// of regime.
		offset := rng.Int63n(2*c.Clock.OffsetSpreadMicros+1) - c.Clock.OffsetSpreadMicros
		driftPPM := (rng.Float64()*2 - 1) * c.Clock.DriftSpreadPPM
		if i < len(c.Clock.NodeDriftPPM) {
			// Pinned drift: the draw above still happens so the regime's
			// stream stays aligned with unpinned cells of the same seed.
			driftPPM = c.Clock.NodeDriftPPM[i]
		}
		noiseSeed := rng.Uint64()
		var raw vclock.Clock = vclock.System{}
		if c.Workload.Shape == ShapeDelayed {
			n.manual = vclock.NewManual(time.Now().UnixMicro())
			raw = n.manual
		} else if c.Clock.OffsetSpreadMicros > 0 || c.Clock.DriftSpreadPPM > 0 {
			n.drift = vclock.NewDrift(vclock.System{}, offset, driftPPM)
			raw = n.drift
		}
		if c.Clock.NoiseMeanMicros > 0 && c.Workload.Shape != ShapeDelayed {
			raw = vclock.NewNoisy(raw, c.Clock.NoiseMeanMicros, noiseSeed)
		}
		n.corrected = vclock.NewCorrected(raw)

		proxy, err := faultnet.Listen(attachAddr(i))
		if err != nil {
			fail("node %d proxy: %v", i, err)
			return res
		}
		n.proxy = proxy
		defer proxy.Close()

		n.region = shm.NewRegion()
		e, err := exs.Dial(exs.Config{
			ManagerAddr:   proxy.Addr(),
			NodeName:      fmt.Sprintf("%s/n%d", c.Name(), i),
			Region:        n.region,
			Clock:         n.corrected,
			BatchBytes:    params.BatchBytes,
			FlushInterval: time.Duration(params.FlushIntervalMS) * time.Millisecond,
			PollInterval:  200 * time.Microsecond,
			ReconnectBase: 2 * time.Millisecond,
			ReconnectMax:  20 * time.Millisecond,
			// Never give up: a dead sensor discards its pending loss
			// accounting, which would break the loss contract by design.
			MaxReconnectAttempts: -1,
			SpillBytes:           params.SpillBytes,
			Logf:                 quiet,
		})
		if err != nil {
			fail("node %d exs: %v", i, err)
			return res
		}
		n.exs = e
		defer e.Close()

		for s := 0; s < sensorsPerNode; s++ {
			n.sensors = append(n.sensors, sensor.New(n.region, fmt.Sprintf("app%d", s), sensor.Options{
				RingBytes: params.RingBytes,
				Clock:     raw,
			}))
		}
		nodes[i] = n
	}

	// Fault script: steps fire relative to driver start, on their own
	// goroutine. After the script and the drivers finish, every link is
	// healed so the pipeline can drain.
	steps := append([]FaultStep(nil), c.Fault.Script...)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].AtMS < steps[j].AtMS })
	start := time.Now()
	scriptDone := make(chan struct{})
	go func() {
		defer close(scriptDone)
		for _, st := range steps {
			if d := time.Until(start.Add(time.Duration(st.AtMS) * time.Millisecond)); d > 0 {
				time.Sleep(d)
			}
			targets := st.Nodes
			if len(targets) == 0 {
				targets = make([]int, len(nodes))
				for i := range targets {
					targets[i] = i
				}
			}
			for _, idx := range targets {
				if idx >= len(nodes) {
					continue
				}
				p := nodes[idx].proxy
				switch st.Op {
				case OpCut:
					p.CutNow()
				case OpStall:
					p.Stall(true)
				case OpResume:
					p.Stall(false)
				case OpRefuse:
					p.SetAccepting(false)
				case OpAccept:
					p.SetAccepting(true)
				case OpLatency:
					p.SetLatency(time.Duration(st.MS) * time.Millisecond)
				}
			}
		}
	}()

	// Drivers: one goroutine per node. They never retry a refused notice
	// — a refusal is a counted ring drop the EXS folds into loss markers,
	// and a retry would double-count it against conservation.
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *cellNode) {
			defer wg.Done()
			runDriver(c, n, i, events)
		}(i, n)
	}
	wg.Wait()
	<-scriptDone
	elapsedLoad := time.Since(start)

	// Heal every link and flush so the tail (including marker-only
	// batches) can ship.
	for _, n := range nodes {
		n.proxy.SetAccepting(true)
		n.proxy.Stall(false)
		n.proxy.SetLatency(0)
		n.exs.Flush()
	}

	deadline := start.Add(timeout)
	var produced, refused uint64
	for _, n := range nodes {
		produced += n.produced
		for _, s := range n.sensors {
			refused += s.Dropped()
		}
	}

	// Wait for every sensor to drain its queue (manager acked everything
	// it will ever ack), then close them so final batches ship.
	for i, n := range nodes {
		// Judge the snapshot that ended the wait: a fresh one can catch a
		// late batch (a quiescent loss marker, say) in flight again.
		st := n.exs.Stats()
		for (!st.Online || st.QueuedBytes != 0) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			st = n.exs.Stats()
		}
		if !st.Online || st.QueuedBytes != 0 {
			fail("node %d never drained: online=%v queued=%d reconnects=%d", i, st.Online, st.QueuedBytes, st.Reconnects)
		}
	}
	var exsMarked, evicted, creditStalls, reconnects uint64
	var maxSkew int64
	for i, n := range nodes {
		if err := n.exs.Close(); err != nil {
			fail("exs close: %v", err)
		}
		st := n.exs.Stats()
		exsMarked += st.MarkedLost
		evicted += st.Dropped
		creditStalls += st.CreditStalls
		reconnects += st.Reconnects
		if n.drift != nil {
			// Multi-hop composition: a leaf record reaches the root with
			// the leaf's correction (into the relay frame) plus the owning
			// relay's correction (into the root frame) applied on top of
			// its raw skew, so the residual is their sum.
			resid := n.drift.SkewAgainstRef() + n.corrected.Correction()
			if relays > 0 {
				resid += relayTier[i%relays].Clock().Correction()
			}
			if skew := abs64(resid); skew > maxSkew {
				maxSkew = skew
			}
		}
	}
	for r, rl := range relayTier {
		if relayDrift[r] != nil {
			if skew := abs64(relayDrift[r].SkewAgainstRef() + rl.Clock().Correction()); skew > maxSkew {
				maxSkew = skew
			}
		}
	}

	// Drain the merged output, accounting every record.
	extract := identExtractor(c.Workload.Shape)
	seen := make(map[ident]int, expect)
	lastSeq := make(map[ident]uint64) // per (node, stream) FIFO cursor
	var emitted, markerCovered, markers, dup, fifoViolations, orderViolations uint64
	var lastTS int64
	consumed := uint64(0)
	cur := mgr.NewCursor()
	floor := produced + refused
	timedOut := false
	for {
		raw, lost, ok := cur.TryNext()
		if lost > 0 {
			fail("memory-buffer consumer lost %d records", lost)
			break
		}
		if !ok {
			st := mgr.Stats()
			if emitted+markerCovered >= floor && st.SorterBuffered == 0 && consumed == st.Emitted {
				break
			}
			if !time.Now().Before(deadline) {
				timedOut = true
				relayState := ""
				for r, rl := range relayTier {
					relayState += fmt.Sprintf(" relay%d %+v;", r, rl.Stats())
				}
				for i, n := range nodes {
					ns := n.exs.Stats()
					relayState += fmt.Sprintf(" node%d produced=%d sent=%d dropped=%d marked=%d lostOffline=%d ringDropped=%d;",
						i, n.produced, ns.Sent, ns.Dropped, ns.MarkedLost, ns.LostOffline, ns.RingDropped)
				}
				fail("timeout draining: %d emitted + %d marker-covered of %d produced + %d refused (manager %+v;%s)",
					emitted, markerCovered, produced, refused, st, relayState)
				break
			}
			time.Sleep(time.Millisecond)
			continue
		}
		consumed++
		rec, err := ism.DecodeBuffered(raw)
		if err != nil {
			fail("DecodeBuffered: %v", err)
			break
		}
		if record.IsLossMarker(&rec) {
			cnt, first, last, _ := record.LossInfo(&rec)
			if first > last {
				fail("loss marker range inverted: [%d, %d]", first, last)
			}
			markerCovered += cnt
			markers++
			continue
		}
		if rec.TS < lastTS {
			orderViolations++
		} else {
			lastTS = rec.TS
		}
		id, stream, seq, okID := extract(&rec)
		if !okID {
			fail("unrecognized record in output: event=%d node=%d", rec.Event, rec.Node)
			continue
		}
		id.node = rec.Node
		if seen[id]++; seen[id] > 1 {
			dup++
		}
		emitted++
		sk := ident{node: rec.Node, key: stream}
		if prev, ok := lastSeq[sk]; ok && seq <= prev {
			fifoViolations++
		}
		lastSeq[sk] = seq
	}

	// Relay-tier accounting: markers synthesized by a relay's own sorter
	// (ISM.MarkedLost) and by its uplink queue evictions (MarkedLost)
	// both surface as marker records at the root.
	var relayMarked, relayEvicted, relayReconnects uint64
	for _, rl := range relayTier {
		rs := rl.Stats()
		relayMarked += rs.MarkedLost + rs.ISM.MarkedLost
		relayEvicted += rs.Dropped
		relayReconnects += rs.Reconnects
	}

	st := mgr.Stats()
	res.ElapsedMicros = time.Since(start).Microseconds()
	res.LoadMicros = elapsedLoad.Microseconds()
	res.Produced = produced
	res.Refused = refused
	res.Emitted = emitted
	res.MarkerCovered = markerCovered
	res.Markers = markers
	if res.ElapsedMicros > 0 {
		res.RecordsPerSec = float64(emitted) / (float64(res.ElapsedMicros) / 1e6)
	}
	res.EmitLatencyMeanMicros = st.EmitLatencyMeanMicros
	res.EmitLatencyP99Micros = st.EmitLatencyP99Micros
	res.AckDeferred = st.AckDeferred
	res.CreditStalls = creditStalls
	res.Resumes = st.ResumedSessions
	res.DedupedBatches = st.DedupedBatches
	res.Inversions = st.Sorter.Inversions
	res.MaxAbsSkewMicros = maxSkew
	res.SyncProbes = st.SyncProbes
	res.SyncFallbacks = st.SyncFallbacks
	res.Relays = relays
	res.RelayMarkedLost = relayMarked
	res.RelayReconnects = relayReconnects

	if timedOut {
		return res
	}

	// Contract 1 — multiset conservation per source: nothing invented
	// (emitted ≤ produced, no duplicates) and nothing silently lost
	// (every produced or refused record is emitted or marker-covered).
	conserved := dup == 0 && emitted <= produced && emitted+markerCovered >= produced+refused
	res.Contracts[ContractConservation] = conserved
	if !conserved {
		fail("conservation: produced=%d refused=%d emitted=%d dup=%d marker-covered=%d",
			produced, refused, emitted, dup, markerCovered)
	}

	// Contract 2 — monotone emission: data records leave the pipeline in
	// nondecreasing corrected-timestamp order (markers exempt). The
	// shipped regimes keep clock spread + fault lateness inside the
	// sorter window, so this is exact, not statistical — except in
	// deliberate overload cells (bounded sorter): there the ack gate
	// halts sensor drains for as long as the manager stays saturated, so
	// ring dwell (and hence arrival lateness) is unbounded by design and
	// no finite window can keep the guarantee. Those cells report the
	// violation count but are not failed on it.
	res.OrderViolations = orderViolations
	if c.Params().SorterMaxBuffered == 0 {
		res.Contracts[ContractMonotone] = orderViolations == 0
		if orderViolations > 0 {
			fail("monotone: %d order violations (sorter saw %d inversions)", orderViolations, st.Sorter.Inversions)
		}
	} else {
		// Advisory only (see above): drop the preset entry so the cell
		// is judged on the contracts that apply to it.
		delete(res.Contracts, ContractMonotone)
	}

	// Contract 3 — acked ⇒ emitted or loss-marker, composed across tiers:
	// the marker coverage in the output matches what the sensors, the
	// relay tier (its sorters and its uplink queues) and the root manager
	// say they marked. Exact equality — except when spill or uplink
	// evictions occurred: an evicted batch may itself have carried a
	// marker record, whose coverage folds back into the pending-loss
	// accumulator and so is marked a second time; the marked totals then
	// legitimately over-count what can surface. The output can never
	// cover MORE than was marked (markers are a subset of shipped ones),
	// and conservation pins the floor — so markers aggregate across hops
	// but never disappear.
	marked := exsMarked + relayMarked + st.MarkedLost
	lossOK := markerCovered == marked
	if evicted > 0 || relayEvicted > 0 {
		lossOK = markerCovered <= marked
	}
	res.Contracts[ContractLoss] = lossOK
	if !lossOK {
		fail("loss accounting: output markers cover %d, sensors marked %d + relays marked %d + manager marked %d (evicted %d+%d)",
			markerCovered, exsMarked, relayMarked, st.MarkedLost, evicted, relayEvicted)
	}

	// Auxiliary — per-source FIFO: each source's emitted subsequence
	// keeps its issue order (holes from drops allowed).
	res.Contracts[ContractFIFO] = fifoViolations == 0
	if fifoViolations > 0 {
		fail("fifo: %d per-source order violations", fifoViolations)
	}

	// Probe-budget contract (only in cells that declare one): the root
	// master's probe RTTs stay within the per-node budget — the cell-level
	// assertion that model-based scheduling actually pays for itself.
	if budget := c.Clock.MaxProbesPerNode; budget > 0 {
		limit := uint64(budget) * uint64(c.Topology.Nodes)
		ok := st.SyncProbes <= limit
		res.Contracts[ContractProbeBudget] = ok
		if !ok {
			fail("probe budget: %d probe RTTs > %d (%d per node × %d nodes)",
				st.SyncProbes, limit, budget, c.Topology.Nodes)
		}
	}
	return res
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// runDriver issues node i's workload, recording produced/attempted counts.
func runDriver(c *Cell, n *cellNode, i int, events int) {
	seed := c.Seed() ^ (uint64(i+1) * 0x9E3779B97F4A7C15)
	switch c.Workload.Shape {
	case ShapeSteady:
		for si, s := range n.sensors {
			lp := &workload.Looper{Sensor: s, Event: uint8(evSteady + si), Rate: c.Workload.Rate}
			n.produced += uint64(lp.Run(events))
			n.attempted += uint64(events)
		}
	case ShapeBursty:
		burstLen := c.Workload.BurstLen
		if burstLen == 0 {
			burstLen = 64
		}
		gap := time.Duration(c.Workload.GapMS) * time.Millisecond
		if c.Workload.GapMS == 0 {
			gap = time.Millisecond
		}
		bursts := events / burstLen
		if bursts < 1 {
			bursts = 1
		}
		for si, s := range n.sensors {
			b := &workload.Bursty{Sensor: s, Event: uint8(evBursty + si), BurstLen: burstLen, Gap: gap,
				Seed: seed + uint64(si)}
			n.produced += uint64(b.Run(bursts))
			n.attempted += uint64(b.Issued)
		}
	case ShapeDiurnal:
		period := time.Duration(c.Workload.PeriodMS) * time.Millisecond
		if c.Workload.PeriodMS == 0 {
			period = 200 * time.Millisecond
		}
		for si, s := range n.sensors {
			d := &workload.Diurnal{Sensor: s, Event: uint8(evDiurnal + si),
				FloorRate: c.Workload.Rate, PeakRate: c.Workload.PeakRate, Period: period}
			n.produced += uint64(d.Run(events))
			n.attempted += uint64(events)
		}
	case ShapeHotSkew:
		share := c.Workload.HotShare
		if share == 0 {
			share = 0.7
		}
		h := &workload.HotSkew{Sensors: n.sensors, Event: evHotSkew, HotShare: share, Seed: seed}
		n.produced += uint64(h.Run(events))
		n.attempted += uint64(events)
	case ShapeDelayed:
		meanGap := c.Workload.MeanGapMicros
		if meanGap == 0 {
			meanGap = 200
		}
		evs := workload.GenDelayedStreams([]workload.StreamSpec{{
			Source:  1,
			MeanGap: meanGap,
			Delay: workload.DelayParams{
				Base:       c.Workload.DelayBaseMicros,
				JitterMean: c.Workload.DelayJitterMicros,
				SpikeProb:  c.Workload.SpikeProb,
				SpikeMean:  c.Workload.SpikeMeanMicros,
			},
		}}, events, seed)
		epoch := n.manual.NowMicros()
		wall := time.Now()
		s := n.sensors[0]
		for j, ev := range evs {
			// Pace by arrival, stamp by creation: the record reaches the
			// manager later than its timestamp suggests — E7's
			// artificially delayed streams.
			if d := time.Until(wall.Add(time.Duration(ev.Arrival) * time.Microsecond)); d > 0 {
				time.Sleep(d)
			}
			n.manual.Set(epoch + ev.TS)
			n.attempted++
			if s.Notice2i(evDelayed, int32(j), 0) {
				n.produced++
			}
		}
		// Park the clock past every stamp so nothing else (the EXS's
		// correction layer reads it too) observes time running backwards.
		n.manual.Set(epoch + evs[len(evs)-1].Arrival + 1)
	case ShapeCausal:
		cp := &workload.CausalPair{
			Reasoner:   n.sensors[0],
			Consequent: n.sensors[1],
			Event:      evReason,
			Think:      time.Duration(c.Workload.ThinkMicros) * time.Microsecond,
		}
		for j := 0; j < events; j++ {
			cp.Fire()
		}
		n.produced += cp.Accepted
		n.attempted += uint64(2 * events)
	}
}

// identExtractor returns the per-shape record identity function: a unique
// key per produced record, plus a (stream, seq) pair for the per-source
// FIFO check. ok is false for records no driver of this shape produced.
func identExtractor(shape string) func(*record.Record) (id ident, stream, seq uint64, ok bool) {
	fieldKey := func(r *record.Record, idx int) (uint64, bool) {
		// Fields[0] is the auto-embedded TS; payload starts at 1.
		if idx >= len(r.Fields) {
			return 0, false
		}
		return uint64(r.Fields[idx].Int()), true
	}
	switch shape {
	case ShapeSteady, ShapeDiurnal, ShapeDelayed:
		return func(r *record.Record) (ident, uint64, uint64, bool) {
			seq, ok := fieldKey(r, 1)
			if !ok {
				return ident{}, 0, 0, false
			}
			stream := uint64(r.Event)
			return ident{key: stream<<40 | seq}, stream, seq, true
		}
	case ShapeBursty:
		return func(r *record.Record) (ident, uint64, uint64, bool) {
			k, ok1 := fieldKey(r, 1)
			i, ok2 := fieldKey(r, 2)
			if !ok1 || !ok2 {
				return ident{}, 0, 0, false
			}
			stream := uint64(r.Event)
			seq := k<<20 | i
			return ident{key: stream<<44 | seq}, stream, seq, true
		}
	case ShapeHotSkew:
		return func(r *record.Record) (ident, uint64, uint64, bool) {
			seq, ok1 := fieldKey(r, 1)
			idx, ok2 := fieldKey(r, 2)
			if !ok1 || !ok2 {
				return ident{}, 0, 0, false
			}
			return ident{key: idx<<40 | seq}, idx, seq, true
		}
	case ShapeCausal:
		return func(r *record.Record) (ident, uint64, uint64, bool) {
			switch {
			case r.Reason != 0:
				return ident{key: r.Reason}, 0, r.Reason, true
			case r.Conseq != 0:
				return ident{key: 1<<62 | r.Conseq}, 1, r.Conseq, true
			}
			return ident{}, 0, 0, false
		}
	default:
		return func(r *record.Record) (ident, uint64, uint64, bool) {
			return ident{}, 0, 0, false
		}
	}
}
