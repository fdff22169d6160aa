// Package cre implements the ISM's causally-related-event matching.
//
// Applications mark cause/effect pairs with the X_REASON and X_CONSEQ
// system field types, supplying matching identifiers. The manager matches
// them in a hash table on the sorted output stream:
//
//   - A consequence record whose reason has not yet been processed is kept
//     in memory until the reason arrives.
//   - When a just-arrived reason matches a waiting consequence whose
//     time-stamp is smaller than the reason's — a tachyon, meaning the
//     clock-synchronization algorithm failed to keep those nodes close
//     enough — the consequence's time-stamp is overridden by a larger
//     value, and an extra round of clock synchronization is requested
//     immediately (the OnTachyon hook).
//   - A causally-marked record of either type is kept no longer than a
//     configured timeout, because its peer may have been dropped.
//
// The matcher reads only a record's header — its Reason and Conseq
// identifiers and its timestamp — and repairs through it: SetTS on an
// encoded-body record changes the header alone, and the sink's Append
// patches the bytes. Field values are never decoded here.
package cre

import (
	"brisk/internal/record"
)

// DefaultTimeout is the default retention bound for unmatched causal
// records, in µs of manager time.
const DefaultTimeout = 5_000_000

// Config tunes the matcher.
type Config struct {
	// Timeout bounds how long an unmatched consequence is held and how
	// long a reason's timestamp is remembered (µs). 0 means
	// DefaultTimeout.
	Timeout int64
	// OnTachyon is invoked once per repaired tachyon, with the reason
	// timestamp and the consequence record before repair. The ISM hooks
	// the clock-synchronization master here.
	OnTachyon func(reasonTS int64, conseq *record.Record)
}

// Stats counts matcher activity.
type Stats struct {
	// Processed counts records passed through Process.
	Processed uint64
	// Matched counts consequences that found their reason (held or not).
	Matched uint64
	// Tachyons counts consequences whose timestamps had to be overridden.
	Tachyons uint64
	// HeldTimedOut counts consequences released because their reason
	// never arrived within the timeout.
	HeldTimedOut uint64
	// ReasonsExpired counts reason table entries aged out.
	ReasonsExpired uint64
	// HeldNow is the number of consequences currently waiting.
	HeldNow int
}

type heldConseq struct {
	rec      record.Record
	deadline int64
}

type reasonEntry struct {
	ts       int64
	deadline int64
}

type expiry struct {
	id       uint64
	deadline int64
}

// Matcher holds the reason table and waiting consequences. Not safe for
// concurrent use; the ISM drives it under one pipeline lock, downstream of
// the on-line sorter.
type Matcher struct {
	cfg     Config
	reasons map[uint64]reasonEntry
	held    map[uint64][]heldConseq

	reasonQ []expiry // FIFO of reason-table expirations
	heldQ   []expiry // FIFO of held-consequence expirations

	stats Stats
}

// New returns an empty matcher.
func New(cfg Config) *Matcher {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	return &Matcher{
		cfg:     cfg,
		reasons: make(map[uint64]reasonEntry),
		held:    make(map[uint64][]heldConseq),
	}
}

// Stats returns a copy of the counters.
func (m *Matcher) Stats() Stats {
	s := m.stats
	s.HeldNow = 0
	for _, hs := range m.held {
		s.HeldNow += len(hs)
	}
	return s
}

// Process accepts the next record of the sorted stream and emits zero or
// more records: the input itself (immediately, delayed, or repaired) plus
// any waiting consequences released by it. now is manager time in µs.
func (m *Matcher) Process(rec record.Record, now int64, emit func(record.Record)) {
	m.stats.Processed++
	m.expire(now, emit)

	if rec.Reason != 0 {
		id := rec.Reason
		m.reasons[id] = reasonEntry{ts: rec.TS, deadline: now + m.cfg.Timeout}
		m.reasonQ = append(m.reasonQ, expiry{id: id, deadline: now + m.cfg.Timeout})
		emit(rec)
		// Release any consequences that were waiting for this reason.
		if hs, ok := m.held[id]; ok {
			delete(m.held, id)
			for _, h := range hs {
				m.stats.Matched++
				m.repairAndEmit(rec.TS, h.rec, emit)
			}
		}
		return
	}

	if rec.Conseq != 0 {
		id := rec.Conseq
		if re, ok := m.reasons[id]; ok {
			m.stats.Matched++
			m.repairAndEmit(re.ts, rec, emit)
			return
		}
		// Reason not seen yet: keep the consequence in memory. The record
		// borrows sorter-owned bytes that a later push reuses, so holding
		// it across Process calls requires a private copy.
		h := heldConseq{rec: rec, deadline: now + m.cfg.Timeout}
		h.rec.Detach()
		m.held[id] = append(m.held[id], h)
		m.heldQ = append(m.heldQ, expiry{id: id, deadline: now + m.cfg.Timeout})
		return
	}

	emit(rec)
}

// repairAndEmit fixes a tachyon if present and emits the consequence.
func (m *Matcher) repairAndEmit(reasonTS int64, conseq record.Record, emit func(record.Record)) {
	if conseq.TS < reasonTS {
		// The time-stamps must reflect the causality: override with a
		// larger value and ask for an extra synchronization round.
		m.stats.Tachyons++
		if m.cfg.OnTachyon != nil {
			m.cfg.OnTachyon(reasonTS, &conseq)
		}
		conseq.SetTS(reasonTS + 1)
	}
	emit(conseq)
}

// expire releases timed-out held consequences (their peers may have been
// dropped) and ages out stale reason entries.
func (m *Matcher) expire(now int64, emit func(record.Record)) {
	for len(m.heldQ) > 0 && m.heldQ[0].deadline <= now {
		id := m.heldQ[0].id
		m.heldQ = m.heldQ[1:]
		hs, ok := m.held[id]
		if !ok {
			continue
		}
		var keep []heldConseq
		for _, h := range hs {
			if h.deadline <= now {
				m.stats.HeldTimedOut++
				emit(h.rec)
			} else {
				keep = append(keep, h)
			}
		}
		if len(keep) == 0 {
			delete(m.held, id)
		} else {
			m.held[id] = keep
		}
	}
	for len(m.reasonQ) > 0 && m.reasonQ[0].deadline <= now {
		id := m.reasonQ[0].id
		dl := m.reasonQ[0].deadline
		m.reasonQ = m.reasonQ[1:]
		if re, ok := m.reasons[id]; ok && re.deadline <= dl {
			delete(m.reasons, id)
			m.stats.ReasonsExpired++
		}
	}
}

// Tick lets the caller drive expiration when no records are flowing.
func (m *Matcher) Tick(now int64, emit func(record.Record)) {
	m.expire(now, emit)
}

// Flush releases every held consequence regardless of timeouts; used at
// shutdown so no record is silently lost.
func (m *Matcher) Flush(emit func(record.Record)) {
	for id, hs := range m.held {
		for _, h := range hs {
			m.stats.HeldTimedOut++
			emit(h.rec)
		}
		delete(m.held, id)
	}
	m.heldQ = nil
}
