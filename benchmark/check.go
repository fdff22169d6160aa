package main

import (
	"fmt"
	"sync/atomic"

	"brisk/internal/record"
)

// maxSource bounds the node ids the checker indexes by (manager-assigned
// session nodes are small; relay origins start at relayFirstNode).
const maxSource = 256

// checker verifies the sorted stream as the workload's consumer sees it.
// It is owned by the consumer goroutine. Data records carry their
// per-source sequence number (1-based) in their first int32 field.
type checker struct {
	lastSeq [maxSource]uint32
	maxTS   int64

	delivered     uint64 // data records seen
	markers       uint64 // loss-marker records seen
	markerCovered uint64 // records accounted for by loss markers
	fifoBroken    uint64 // a source's sequence went backwards
	inversions    uint64 // timestamp below the running maximum, inside the measured window
	causalBroken  uint64 // consequence seen before its reason
	foreign       uint64 // a record no generator produced

	reasons   map[uint64]struct{}
	measuring *atomic.Bool // the meter's: set for exactly the measured window
}

func newChecker(m *meter) *checker {
	return &checker{reasons: make(map[uint64]struct{}), measuring: &m.measuring}
}

// observe checks one record and returns the int32 fields a and b (b is 0
// for causal records, which carry only a).
func (c *checker) observe(rec *record.Record) (a, b int32) {
	if record.IsLossMarker(rec) {
		count, _, _, _ := record.LossInfo(rec)
		c.markers++
		c.markerCovered += count
		return 0, 0
	}
	causal := rec.Reason != 0 || rec.Conseq != 0
	want := 7
	if causal {
		want = 3
	}
	if rec.Node <= 0 || rec.Node >= maxSource || len(rec.Fields) != want {
		c.foreign++
		return 0, 0
	}
	c.delivered++
	if causal {
		a = int32(rec.Fields[2].Int())
	} else {
		a, b = int32(rec.Fields[1].Int()), int32(rec.Fields[2].Int())
	}
	switch {
	case rec.Reason != 0:
		c.reasons[rec.Reason] = struct{}{}
	case rec.Conseq != 0:
		if _, ok := c.reasons[rec.Conseq]; !ok {
			c.causalBroken++
		}
		delete(c.reasons, rec.Conseq)
		// The matcher may hold a consequence past later records of its
		// node and re-stamp it, so it is exempt from the order checks.
		return a, b
	}
	if seq := uint32(a); seq <= c.lastSeq[rec.Node] {
		c.fifoBroken++
	} else {
		c.lastSeq[rec.Node] = seq
	}
	if rec.TS < c.maxTS {
		if c.measuring.Load() {
			c.inversions++
		}
	} else {
		c.maxTS = rec.TS
	}
	return a, b
}

// check is one named correctness check of a run.
type check struct {
	Name   string
	OK     bool
	Detail string // what went wrong, when OK is false
}

// zeroCheck passes when n is zero.
func zeroCheck(name string, n uint64, what string) check {
	if n == 0 {
		return check{Name: name, OK: true}
	}
	return check{Name: name, Detail: fmt.Sprintf("%d %s", n, what)}
}

// conservation is the identity every workload must keep: each attempted
// record is delivered, covered by a loss marker, or counted dropped at a
// sensor ring.
func conservation(attempted, delivered, markerCovered, ringDropped uint64) check {
	if delivered+markerCovered+ringDropped == attempted {
		return check{Name: "conservation", OK: true}
	}
	return check{Name: "conservation", Detail: fmt.Sprintf(
		"attempted %d != delivered %d + marker-covered %d + ring-dropped %d",
		attempted, delivered, markerCovered, ringDropped)}
}
