// Package simnet models the local-area network of the paper's testbed (a
// 155 Mbps ATM LAN of Sun workstations) for deterministic replay of the
// distributed experiments.
//
// A Net samples one-way message latencies as
//
//	latency = base + jitter + disturbance
//
// where jitter is an exponential draw and disturbance is an extra
// exponential delay applied only inside "disturbance windows" — bursty
// periods, scheduled by a renewal process, that stand in for the paper's
// "disturbances of various sources in the LAN [that] interfered" with
// clock synchronization. Windows are correlated across all links, as real
// LAN congestion is.
//
// All draws come from a seeded stream, so a given seed reproduces an
// experiment exactly.
package simnet

import (
	"brisk/internal/des"
)

// Params configures the latency model. All times are microseconds.
type Params struct {
	// BaseLatency is the deterministic one-way latency floor.
	BaseLatency int64
	// JitterMean is the mean of the always-present exponential jitter.
	JitterMean float64
	// DisturbMeanGap is the mean time between disturbance windows.
	// Zero disables disturbances.
	DisturbMeanGap float64
	// DisturbMeanDur is the mean duration of one disturbance window.
	DisturbMeanDur float64
	// DisturbExtraMean is the mean extra latency added inside a window.
	DisturbExtraMean float64
	// Seed selects the deterministic random stream.
	Seed uint64
}

// LAN returns parameters approximating the paper's lightly loaded ATM LAN:
// ~250 µs one-way base latency with 50 µs mean jitter and occasional
// multi-hundred-microsecond disturbance bursts.
func LAN(seed uint64) Params {
	return Params{
		BaseLatency:      250,
		JitterMean:       50,
		DisturbMeanGap:   30_000_000, // every ~30 s
		DisturbMeanDur:   2_000_000,  // lasting ~2 s
		DisturbExtraMean: 400,
		Seed:             seed,
	}
}

// QuietLAN returns LAN parameters with disturbances disabled — the
// "light working conditions" of the clock-synchronization evaluation.
func QuietLAN(seed uint64) Params {
	p := LAN(seed)
	p.DisturbMeanGap = 0
	return p
}

// Net samples one-way latencies against a simulator's virtual clock.
type Net struct {
	sim    *des.Sim
	rng    *des.RNG
	params Params

	burstStart int64
	burstEnd   int64
	nextSched  int64

	down    bool
	dropped uint64
}

// New returns a network over the given simulator.
func New(sim *des.Sim, params Params) *Net {
	return &Net{sim: sim, rng: des.NewRNG(params.Seed), params: params}
}

// advanceBursts rolls the disturbance-window schedule forward to cover
// time t.
func (n *Net) advanceBursts(t int64) {
	if n.params.DisturbMeanGap <= 0 {
		return
	}
	for n.nextSched <= t {
		gap := int64(n.rng.Exp(n.params.DisturbMeanGap))
		dur := int64(n.rng.Exp(n.params.DisturbMeanDur))
		n.burstStart = n.nextSched + gap
		n.burstEnd = n.burstStart + dur
		n.nextSched = n.burstEnd
	}
}

// Disturbed reports whether time t falls inside a disturbance window.
func (n *Net) Disturbed(t int64) bool {
	if n.params.DisturbMeanGap <= 0 {
		return false
	}
	n.advanceBursts(t)
	return t >= n.burstStart && t < n.burstEnd
}

// OneWay samples a one-way latency for a message sent at the simulator's
// current time.
func (n *Net) OneWay() int64 {
	t := n.sim.Now()
	lat := n.params.BaseLatency
	if n.params.JitterMean > 0 {
		lat += int64(n.rng.Exp(n.params.JitterMean))
	}
	if n.Disturbed(t) && n.params.DisturbExtraMean > 0 {
		lat += int64(n.rng.Exp(n.params.DisturbExtraMean))
	}
	if lat < 1 {
		lat = 1
	}
	return lat
}

// SetDown severs or restores the link. While down, Send discards messages
// and TryRoundTrip fails; both count into Dropped. RoundTrip is unaffected
// (legacy callers model links that never fail).
func (n *Net) SetDown(down bool) { n.down = down }

// Dropped returns how many messages the severed link has discarded.
func (n *Net) Dropped() uint64 { return n.dropped }

// Send schedules fn to run after a sampled one-way latency, modelling an
// asynchronous message delivery. On a severed link the message is
// discarded and counted; fn never runs.
func (n *Net) Send(fn func()) {
	if n.down {
		n.dropped++
		return
	}
	n.sim.After(n.OneWay(), fn)
}

// RoundTrip advances virtual time across a synchronous request/response:
// it samples the outbound latency, runs the simulator to the arrival
// instant, calls serve (the remote handler), samples the return latency,
// runs to the reply arrival, and returns the total round-trip time.
func (n *Net) RoundTrip(serve func()) int64 {
	start := n.sim.Now()
	out := n.OneWay()
	n.sim.RunUntil(start + out)
	serve()
	back := n.OneWay()
	n.sim.RunUntil(start + out + back)
	return out + back
}

// TryRoundTrip is RoundTrip for links that can fail: on a severed link the
// request is discarded and counted, virtual time does not advance, serve
// never runs, and ok is false. Callers model their own retry/timeout
// policy on top.
func (n *Net) TryRoundTrip(serve func()) (rtt int64, ok bool) {
	if n.down {
		n.dropped++
		return 0, false
	}
	return n.RoundTrip(serve), true
}
