package subscribe

import (
	"sort"
	"sync"
)

// sketch is a count-min sketch: depth rows of width counters, each row
// indexed by an independent hash of the key. A point estimate reads the
// minimum across rows and therefore only ever over-counts (by hash
// collisions bounded by N/width per row with high probability). It
// answers "which sources / event classes are noisiest" with a few KB of
// fixed storage, no matter how many distinct sources the stream carries.
//
// Updates run on the publisher's hot path, so the structure is fixed
// arrays and arithmetic only — no allocation, no per-key state.
type sketch struct {
	width uint64
	depth int
	rows  []uint64 // depth*width, row-major
}

func newSketch(width, depth int) *sketch {
	return &sketch{width: uint64(width), depth: depth, rows: make([]uint64, width*depth)}
}

// mix64 is SplitMix64's finalizer — a cheap, well-distributed 64-bit
// mixer. Each sketch row perturbs the key with a different odd constant
// so the row hashes are pairwise independent enough in practice.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// add increments the key and returns its new point estimate (the
// minimum across rows).
func (sk *sketch) add(key uint64) uint64 {
	est := ^uint64(0)
	for d := 0; d < sk.depth; d++ {
		h := mix64(key + uint64(d)*0x9e3779b97f4a7c15)
		slot := &sk.rows[uint64(d)*sk.width+h%sk.width]
		*slot++
		if *slot < est {
			est = *slot
		}
	}
	return est
}

// estimate reads the key's point estimate without updating.
func (sk *sketch) estimate(key uint64) uint64 {
	est := ^uint64(0)
	for d := 0; d < sk.depth; d++ {
		h := mix64(key + uint64(d)*0x9e3779b97f4a7c15)
		if v := sk.rows[uint64(d)*sk.width+h%sk.width]; v < est {
			est = v
		}
	}
	return est
}

// TopEntry is one row of a top-K answer.
type TopEntry struct {
	Key   int64  `json:"key"`
	Count uint64 `json:"count"`
}

// topk tracks the K heaviest keys seen by a sketch dimension: a fixed
// candidate array updated with the sketch estimate on every add. A key
// enters by displacing the current minimum once its estimate exceeds it
// — the classic sketch+heap heavy-hitters loop, array-shaped so the
// hot-path update allocates nothing and K stays cache-resident.
type topk struct {
	keys   []int64
	counts []uint64
	n      int
}

func newTopK(k int) *topk {
	return &topk{keys: make([]int64, k), counts: make([]uint64, k)}
}

// offer updates key's candidate count (or displaces the minimum).
func (t *topk) offer(key int64, est uint64) {
	minI, minC := -1, ^uint64(0)
	for i := 0; i < t.n; i++ {
		if t.keys[i] == key {
			if est > t.counts[i] {
				t.counts[i] = est
			}
			return
		}
		if t.counts[i] < minC {
			minI, minC = i, t.counts[i]
		}
	}
	if t.n < len(t.keys) {
		t.keys[t.n], t.counts[t.n] = key, est
		t.n++
		return
	}
	if minI >= 0 && est > minC {
		t.keys[minI], t.counts[minI] = key, est
	}
}

// top returns up to k entries, heaviest first. Called off the hot path.
func (t *topk) top(k int) []TopEntry {
	out := make([]TopEntry, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, TopEntry{Key: t.keys[i], Count: t.counts[i]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// freq is the engine's frequency summary: one sketch shared by the two
// key dimensions (sources and event classes, namespaced into disjoint
// key ranges) with a top-K tracker per dimension. The publisher updates
// it under its own mutex — contention is publisher vs. the occasional
// /topk read, never publisher vs. publisher.
type freq struct {
	mu     sync.Mutex
	sk     *sketch
	bySrc  *topk
	byType *topk
}

const (
	keySource = uint64(1) << 40 // namespace tag for source keys
	keyEvent  = uint64(2) << 40 // namespace tag for event-class keys
)

// The engine's sketch geometry (~32 KiB of counters) and how many
// heavy-hitter candidates it tracks per dimension.
const (
	sketchWidth = 1024
	sketchDepth = 4
	topKTracked = 16
)

func newFreq() *freq {
	return &freq{sk: newSketch(sketchWidth, sketchDepth), bySrc: newTopK(topKTracked), byType: newTopK(topKTracked)}
}

// observe records one published record. Allocation-free.
func (q *freq) observe(node int32, event uint8) {
	q.mu.Lock()
	q.bySrc.offer(int64(node), q.sk.add(keySource|uint64(uint32(node))))
	q.byType.offer(int64(event), q.sk.add(keyEvent|uint64(event)))
	q.mu.Unlock()
}

// topSources and topEvents answer /topk.
func (q *freq) topSources(k int) []TopEntry {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.bySrc.top(k)
}

func (q *freq) topEvents(k int) []TopEntry {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.byType.top(k)
}
