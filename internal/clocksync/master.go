package clocksync

import (
	"fmt"
	"math"

	"brisk/internal/vclock"
)

// SlaveConn abstracts the master's view of one slave: a synchronous probe
// exchange and an asynchronous clock adjustment. The real implementation
// speaks the wire protocol over the EXS's TCP connection; the simulated
// one advances virtual time across sampled network latencies.
type SlaveConn interface {
	// Exchange performs one probe round trip and returns the slave's
	// clock reading taken while servicing the probe.
	Exchange() (slaveTime int64, err error)
	// Adjust tells the slave to add delta microseconds to its clock
	// correction.
	Adjust(delta int64) error
}

// RateConn is the optional extension a slave connection implements when
// its slave can extrapolate between adjustments: AdjustRate sets the
// slave's correction-growth rate (µs per second, never negative). The
// model-based master uses it to cancel estimated drift against the
// round's reference clock, so skew stops growing linearly over a probe
// gap. Connections without it still work — they just get step
// corrections only.
type RateConn interface {
	AdjustRate(ppm float64) error
}

// RoundReport records everything the master learned and did in one
// synchronization round.
type RoundReport struct {
	// Round is the 1-based round number.
	Round uint64
	// Offsets[i] is slave i's estimated slave-minus-master offset (µs).
	// Under model-based scheduling an unprobed slave's entry is the
	// model's extrapolation, not a measurement (see Probed).
	Offsets []int64
	// Valid[i] marks slaves that yielded a usable estimate.
	Valid []bool
	// Probed[i] marks slaves that were actually probed this round (in
	// fixed-cadence mode, every slave).
	Probed []bool
	// MeanRTT is the mean probe round-trip time across all samples (µs).
	MeanRTT float64
	// Corrections is the computed update.
	Corrections Corrections
	// Adjusted counts slaves actually told to step their clocks;
	// AdjustFailed counts slaves whose adjustment send errored (repaired
	// by a later round; a persistent streak resets the slave's model
	// state so it is re-learned from scratch when it returns).
	Adjusted     int
	AdjustFailed int
	// Failed counts slaves that yielded no usable estimate this round
	// (all probes lost or filtered) — a dead-peer signal for the caller.
	Failed int
	// Probes counts probe round trips issued this round; Predicted
	// counts slaves whose offset came from the model instead.
	Probes    int
	Predicted int
	// Fallbacks counts model-divergence events this round (an innovation
	// outlier streak reset an estimator and forced full rounds).
	Fallbacks int
	// DriftPPM[i] and UncertaintyUS[i] expose slave i's model state at
	// the end of the round: the drift estimate (ppm) and the predicted
	// one-σ offset uncertainty (µs). NaN where the model is cold or
	// model-based scheduling is off.
	DriftPPM      []float64
	UncertaintyUS []float64
}

// slaveModel is the master's persistent per-slave state: the estimator,
// probe bookkeeping, and the commanded extrapolation rate.
type slaveModel struct {
	est        Estimator
	lastProbe  int64   // master time of the last probe; 0 = never
	ratePPM    float64 // last rate successfully commanded to the slave
	adjustErrs int     // consecutive failed Adjust sends
}

// adjustErrLimit is how many consecutive failed adjustment sends reset a
// slave's model state: a slave that cannot be steered cannot be trusted
// to match its model when it reappears.
const adjustErrLimit = 3

// fallbackRounds is how many rounds after a model divergence every slave
// is probed (the full AlgBRISK rule) while the estimators relearn.
const fallbackRounds = 2

// Master drives synchronization rounds against a set of slaves, per the
// paper "a master polls the slaves, determines differences between its
// clock and the slaves' clocks, and updates the slave clocks" — except
// that under AlgBRISK the updates align the slaves with the most-ahead
// slave rather than with the master. With Config.UncertaintyBound set,
// the master keeps a drift + offset model per slave and probes a slave
// only when the model's predicted uncertainty demands it (see model.go);
// the Master is then stateful and must be reused across rounds (see
// SetSlaves for a changing fleet).
type Master struct {
	clock  vclock.Clock
	cfg    Config
	slaves []SlaveConn
	keys   []uint64
	models []*slaveModel
	rounds uint64

	fallbackUntil uint64 // rounds ≤ this force full probing
	probesTotal   uint64
	fallbacks     uint64
}

// NewMaster returns a master reading its own time from clock.
func NewMaster(clock vclock.Clock, cfg Config, slaves []SlaveConn) *Master {
	m := &Master{clock: clock, cfg: cfg.withDefaults()}
	m.SetSlaves(slaves, nil)
	return m
}

// SetSlaves replaces the slave set. keys, when non-nil, are stable
// per-slave identities (node ids): a slave that reappears under the same
// key keeps its learned model across the change, new keys start cold,
// and models of departed keys are dropped. A nil keys slice matches
// models positionally (only safe when the set is static).
func (m *Master) SetSlaves(slaves []SlaveConn, keys []uint64) {
	if keys != nil && len(keys) != len(slaves) {
		panic(fmt.Sprintf("clocksync: %d slaves but %d keys", len(slaves), len(keys)))
	}
	models := make([]*slaveModel, len(slaves))
	if keys == nil {
		copy(models, m.models)
	} else {
		byKey := make(map[uint64]*slaveModel, len(m.keys))
		for i, k := range m.keys {
			if i < len(m.models) {
				byKey[k] = m.models[i]
			}
		}
		for i, k := range keys {
			models[i] = byKey[k]
		}
	}
	for i := range models {
		if models[i] == nil {
			models[i] = &slaveModel{}
		}
	}
	m.slaves = slaves
	m.keys = keys
	m.models = models
}

// Rounds returns how many rounds have completed.
func (m *Master) Rounds() uint64 { return m.rounds }

// ProbeRTTs returns the total probe round trips issued over the master's
// lifetime — the sync traffic the model-based scheduler exists to shrink.
func (m *Master) ProbeRTTs() uint64 { return m.probesTotal }

// ModelFallbacks returns how many model-divergence events have forced
// full-round fallbacks.
func (m *Master) ModelFallbacks() uint64 { return m.fallbacks }

// probeSlave issues ProbesPerSlave probe exchanges against one slave and
// reduces them to a single offset estimate.
func (m *Master) probeSlave(conn SlaveConn, rep *RoundReport, rttSum *int64, rttN *int) (int64, bool) {
	samples := make([]Sample, 0, m.cfg.ProbesPerSlave)
	for p := 0; p < m.cfg.ProbesPerSlave; p++ {
		t0 := m.clock.NowMicros()
		rep.Probes++
		m.probesTotal++
		st, err := conn.Exchange()
		if err != nil {
			continue
		}
		t1 := m.clock.NowMicros()
		rtt := t1 - t0
		if rtt < 0 {
			continue
		}
		samples = append(samples, Sample{RTT: rtt, Offset: st - (t0 + rtt/2)})
		*rttSum += rtt
		*rttN += 1
	}
	return EstimateOffset(samples, m.cfg.Filter, m.cfg.MaxRTT)
}

// Round performs one synchronization round. In fixed-cadence mode (the
// default) it probes every slave ProbesPerSlave times, reduces to offset
// estimates, computes corrections under the configured algorithm, and
// issues the adjustments. In model-based mode it probes only the slaves
// whose predicted uncertainty exceeds the bound (or whose probe bracket
// expired), extrapolates the rest from their estimators, and additionally
// commands extrapolation rates that cancel estimated drift. A slave whose
// probes all fail is skipped this round (its Valid flag is false); Round
// only returns an error when the round as a whole is unusable.
func (m *Master) Round() (RoundReport, error) {
	m.rounds++
	n := len(m.slaves)
	rep := RoundReport{
		Round:         m.rounds,
		Offsets:       make([]int64, n),
		Valid:         make([]bool, n),
		Probed:        make([]bool, n),
		DriftPPM:      make([]float64, n),
		UncertaintyUS: make([]float64, n),
	}
	for i := range rep.DriftPPM {
		rep.DriftPPM[i] = math.NaN()
		rep.UncertaintyUS[i] = math.NaN()
	}
	model := m.cfg.ModelEnabled()

	var rttSum int64
	var rttN int
	for i, conn := range m.slaves {
		sm := m.models[i]
		// Read the clock per slave: the serial probe exchanges of earlier
		// slaves advance time by their cumulative RTTs, so a hoisted
		// timestamp would understate gaps and predicted uncertainty for
		// the slaves late in a large fleet.
		now := m.clock.NowMicros()
		if model && !m.slaveDue(sm, now) {
			// Trust the model: extrapolate the offset to now.
			off, sd := sm.est.PredictAt(now)
			rep.Offsets[i] = int64(off)
			rep.Valid[i] = true
			rep.Predicted++
			rep.DriftPPM[i] = sm.est.DriftPPM()
			rep.UncertaintyUS[i] = sd
			continue
		}
		est, ok := m.probeSlave(conn, &rep, &rttSum, &rttN)
		if !ok {
			rep.Failed++
			continue
		}
		rep.Probed[i] = true
		rep.Offsets[i] = est
		rep.Valid[i] = true
		if model {
			t := m.clock.NowMicros()
			sm.lastProbe = t
			res := sm.est.Observe(t, est, m.cfg)
			if res.Diverged {
				// Innovation outlier streak: the constant-drift model no
				// longer describes this clock (a step, a thermal event).
				// The estimator re-seeded itself; force the conservative
				// full-round rule while the fleet relearns.
				rep.Fallbacks++
				m.fallbacks++
				m.fallbackUntil = m.rounds + fallbackRounds
				sm.ratePPM = 0
				if rc, okRate := conn.(RateConn); okRate {
					// Freeze extrapolation until the model re-warms; an
					// error here is repaired with the model itself.
					_ = rc.AdjustRate(0)
				}
			}
			_, sd := sm.est.PredictAt(t)
			rep.DriftPPM[i] = sm.est.DriftPPM()
			rep.UncertaintyUS[i] = sd
		}
	}
	if rttN > 0 {
		rep.MeanRTT = float64(rttSum) / float64(rttN)
	}

	corr, err := Compute(rep.Offsets, rep.Valid, m.cfg)
	rep.Corrections = corr
	if err != nil {
		return rep, fmt.Errorf("round %d: %w", m.rounds, err)
	}
	for i, adv := range corr.Advance {
		if adv == 0 || !rep.Valid[i] {
			continue
		}
		sm := m.models[i]
		if err := m.slaves[i].Adjust(adv); err != nil {
			// A failed adjustment is repaired by the next round; record
			// the slave as unadjusted rather than failing the round. A
			// persistent streak means the slave's clock has departed
			// from anything the model predicted — drop the model.
			rep.AdjustFailed++
			sm.adjustErrs++
			if sm.adjustErrs >= adjustErrLimit {
				sm.est.Reset()
				sm.ratePPM = 0
				sm.lastProbe = 0
			}
			continue
		}
		sm.adjustErrs = 0
		rep.Adjusted++
		if model {
			sm.est.ShiftOffset(adv)
		}
	}
	if model {
		m.commandRates(corr, rep.Valid)
	}
	return rep, nil
}

// slaveDue decides whether a slave must be probed this round.
func (m *Master) slaveDue(sm *slaveModel, now int64) bool {
	if m.rounds <= m.fallbackUntil || !sm.est.Warm() || sm.lastProbe == 0 {
		return true
	}
	gap := now - sm.lastProbe
	if gap >= m.cfg.MaxProbeInterval {
		return true
	}
	if gap < m.cfg.MinProbeInterval {
		return false
	}
	_, sd := sm.est.PredictAt(now)
	return sd > float64(m.cfg.UncertaintyBound)
}

// commandRates steers each warm slave's extrapolation rate so its
// corrected clock tracks the round's reference rate: the residual drift
// the estimator observes (which already includes any previously commanded
// rate) is cancelled against the reference slave's. Rates are clamped at
// zero — extrapolation, like step corrections, only ever advances a
// clock — and only re-sent when they move materially.
func (m *Master) commandRates(corr Corrections, valid []bool) {
	ref := corr.Ref
	if ref < 0 || !m.models[ref].est.Warm() {
		return
	}
	refDrift := m.models[ref].est.DriftPPM()
	const minDelta = 0.01 // ppm; below this, re-sending is pure traffic
	for i, conn := range m.slaves {
		if i == ref || !valid[i] {
			continue
		}
		sm := m.models[i]
		if !sm.est.Warm() {
			continue
		}
		rc, ok := conn.(RateConn)
		if !ok {
			continue
		}
		target := sm.ratePPM + (refDrift - sm.est.DriftPPM())
		if target < 0 {
			target = 0
		}
		if math.Abs(target-sm.ratePPM) < minDelta {
			continue
		}
		if err := rc.AdjustRate(target); err != nil {
			continue
		}
		sm.est.ShiftDrift(target - sm.ratePPM)
		sm.ratePPM = target
	}
}

// Slave is the passive side of the protocol: it answers probes with its
// corrected clock reading and applies adjustments to the correction value
// maintained for the node's external sensor.
type Slave struct {
	Clock *vclock.Corrected
}

// ProbeTime returns the reading a probe reply should carry.
func (s *Slave) ProbeTime() int64 { return s.Clock.NowMicros() }

// ApplyAdjust folds a master-issued adjustment into the correction value.
func (s *Slave) ApplyAdjust(delta int64) { s.Clock.Adjust(delta) }
