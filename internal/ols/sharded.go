// Sharded parallel sorting: sources are partitioned across independent
// sorter shards — each with its own core (calendar bucket ring or heap,
// per Config.Core), adaptive time frame T and per-source bookkeeping —
// whose individually monotone outputs are recombined through a
// loser-tree k-way merge keyed by synchronized timestamps. The
// delay-window semantics only require a totally ordered emission, not a
// single ordering structure, so pushes into different shards can
// proceed in parallel while one merger drains them.
package ols

import (
	"math"
	"sync"
	"sync/atomic"

	"brisk/internal/record"
)

// Sharded partitions sources across n independent Sorters and merges
// their emissions into one timestamp-ordered stream.
//
// Concurrency contract: Push and PushBatch are safe to call from any
// number of goroutines (distinct sources contend only when they hash to
// the same shard). Extract, Flush, TakeLosses and DropsBySource must be
// called by one goroutine at a time. The read-only accessors
// (Buffered, Stats, TimeFrame, shard views) are safe from anywhere.
//
// With n == 1 every call delegates straight to the inner Sorter — same
// code path, same emission order, byte-identical output.
type Sharded struct {
	shards []*shard

	// agg is the aggregate occupancy across all shards. Every shard's
	// MaxBuffered check reads it (via occRef), so the bound stays a
	// global budget; the ISM's ack-gate hysteresis reads it too.
	agg atomic.Int64

	// Global emission frontier of the merged stream. Shards consult it
	// (via orderRef) for inversion detection, so a record that arrives
	// behind the merged output grows its shard's T even when its own
	// shard has emitted nothing newer.
	gLastTS  atomic.Int64
	gLastSrc atomic.Int32
	gEmitted atomic.Bool

	runs   []mergeRun // per-shard staging for the k-way merge
	lt     loserTree
	stalls atomic.Uint64 // Extract passes that emitted nothing while records were buffered
}

// shard pairs a Sorter with the lock that serializes pushes into it
// against the merger's extraction pass.
type shard struct {
	mu sync.Mutex
	s  *Sorter
}

// NewSharded returns a sharded sorter with n shards, each configured
// with cfg. n < 1 is treated as 1.
func NewSharded(cfg Config, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	sh := &Sharded{shards: make([]*shard, n), runs: make([]mergeRun, n)}
	for i := range sh.shards {
		s := New(cfg)
		if n > 1 {
			s.orderRef = sh.frontier
			s.occRef = func() int { return int(sh.agg.Load()) }
		}
		sh.shards[i] = &shard{s: s}
		sh.runs[i].sorter = s
	}
	return sh
}

// NumShards returns the shard count.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

func (sh *Sharded) frontier() (int64, int32, bool) {
	return sh.gLastTS.Load(), sh.gLastSrc.Load(), sh.gEmitted.Load()
}

// shardFor routes a source to its shard. All records from one source
// land in one shard, so per-source FIFO order is preserved.
func (sh *Sharded) shardFor(src int32) int {
	return int(uint32(src)) % len(sh.shards)
}

// Push enqueues one record from a source, as Sorter.Push.
func (sh *Sharded) Push(src int32, rec record.Record, now int64) {
	shd := sh.shards[sh.shardFor(src)]
	shd.mu.Lock()
	before := shd.s.buffered
	shd.s.push(shd.s.source(src), &rec, now)
	sh.agg.Add(int64(shd.s.buffered - before))
	shd.mu.Unlock()
}

// PushBatch enqueues a batch from one source, taking the shard lock and
// resolving the source once for the whole batch.
func (sh *Sharded) PushBatch(src int32, recs []record.Record, now int64) {
	if len(recs) == 0 {
		return
	}
	shd := sh.shards[sh.shardFor(src)]
	shd.mu.Lock()
	before := shd.s.buffered
	q := shd.s.source(src)
	for i := range recs {
		shd.s.push(q, &recs[i], now)
	}
	sh.agg.Add(int64(shd.s.buffered - before))
	shd.mu.Unlock()
}

// PushMixed enqueues a batch whose records carry their own origin in
// rec.Node — a relay-forwarded batch interleaving many sources. Records
// reach the shard Push would route them to individually, but each shard's
// lock is taken once for the whole batch (the batch is walked once per
// shard), and a source is resolved once per consecutive run of its
// records. Every walk is front to back, so relative order within each
// source — and within each shard, which numbers its own arrivals — is the
// batch's, and per-source FIFO holds.
func (sh *Sharded) PushMixed(recs []record.Record, now int64) {
	for si, shd := range sh.shards {
		var q *srcQueue
		before := 0
		for i := range recs {
			r := &recs[i]
			if len(sh.shards) > 1 && sh.shardFor(r.Node) != si {
				continue
			}
			if q == nil {
				shd.mu.Lock()
				before = shd.s.buffered
			}
			if q == nil || q.src != r.Node {
				q = shd.s.source(r.Node)
			}
			shd.s.push(q, r, now)
		}
		if q != nil {
			sh.agg.Add(int64(shd.s.buffered - before))
			shd.mu.Unlock()
		}
	}
}

// Extract emits, in merged timestamp order, every buffered record that
// has aged at least T, the widest time frame of any shard. One now and
// one gate for every shard within the pass is what keeps the merged
// stream monotone whenever T covers the sources' lateness: a record that
// could order before an already-merged one was at least as aged at the
// same instant, so it was extracted in the same or an earlier pass.
// (Gating each shard by its own T let a shard of punctual sources run
// ahead of a shard of late ones by the difference, and everything the
// late shard then emitted arrived behind the merged frontier.)
//
// The records passed to emit are valid only until the next Extract or
// Flush call (their bytes live in merge staging reused per pass, or with
// one shard in the sorter's slabs); callers retaining them longer must
// record.Detach them.
func (sh *Sharded) Extract(now int64, emit func(record.Record)) int {
	if len(sh.shards) == 1 {
		shd := sh.shards[0]
		shd.mu.Lock()
		before := shd.s.buffered
		n := shd.s.Extract(now, emit)
		sh.agg.Add(int64(shd.s.buffered - before))
		shd.mu.Unlock()
		return n
	}
	var gate int64
	for _, shd := range sh.shards {
		shd.mu.Lock()
		shd.s.decay(now)
		gate = max(gate, shd.s.TimeFrame())
		shd.mu.Unlock()
	}
	for i, shd := range sh.shards {
		shd.mu.Lock()
		before := shd.s.buffered
		shd.s.extract(now, gate, sh.runs[i].stage)
		sh.agg.Add(int64(shd.s.buffered - before))
		shd.mu.Unlock()
	}
	n := sh.mergeRuns(emit)
	if n == 0 && sh.agg.Load() > 0 {
		sh.stalls.Add(1)
	}
	return n
}

// Flush emits everything still buffered, in merged order, ignoring T.
// Like Sorter.Flush it bypasses decay, so the learned time frames
// survive a mid-stream flush intact.
func (sh *Sharded) Flush(emit func(record.Record)) int {
	if len(sh.shards) == 1 {
		shd := sh.shards[0]
		shd.mu.Lock()
		before := shd.s.buffered
		n := shd.s.Flush(emit)
		sh.agg.Add(int64(shd.s.buffered - before))
		shd.mu.Unlock()
		return n
	}
	for i, shd := range sh.shards {
		shd.mu.Lock()
		before := shd.s.buffered
		shd.s.extract(math.MaxInt64, 0, sh.runs[i].stage)
		sh.agg.Add(int64(shd.s.buffered - before))
		shd.mu.Unlock()
	}
	return sh.mergeRuns(emit)
}

// mergeRuns drains the staged per-shard runs — each already in
// timestamp order — through the loser tree, emitting the global
// minimum-timestamp head until every run is exhausted. Runs alias no
// shard storage, so no shard lock is held while emit runs.
func (sh *Sharded) mergeRuns(emit func(record.Record)) int {
	k := len(sh.runs)
	sh.lt.build(k, sh.runWins)
	n := 0
	for {
		w := sh.lt.winner()
		if w < 0 {
			break
		}
		ru := &sh.runs[w]
		hd := ru.head()
		if hd == nil {
			break
		}
		r := record.FromEncoded(ru.slab[hd.off:][:hd.n], int(hd.tsOff), hd.ts)
		r.Node, r.Seq = int32(hd.src), hd.seq
		sh.gLastTS.Store(r.TS)
		sh.gLastSrc.Store(r.Node)
		sh.gEmitted.Store(true)
		ru.next++
		emit(r)
		n++
		sh.lt.adjust(w, sh.runWins)
	}
	for i := range sh.runs {
		sh.runs[i].reset()
	}
	return n
}

// runWins reports whether run a's head sorts before run b's head.
// Exhausted runs (and the -1 sentinel) always lose; timestamp ties
// break by shard index so the merge order is deterministic.
func (sh *Sharded) runWins(a, b int) bool {
	if a < 0 {
		return false
	}
	if b < 0 {
		return true
	}
	ka := sh.runs[a].head()
	kb := sh.runs[b].head()
	if ka == nil {
		return false
	}
	if kb == nil {
		return true
	}
	if ka.ts != kb.ts {
		return ka.ts < kb.ts
	}
	return a < b
}

// Buffered returns the aggregate number of records delayed in memory
// across all shards.
func (sh *Sharded) Buffered() int { return int(sh.agg.Load()) }

// SlabBytes returns the encoded bytes of the records delayed in memory
// across all shards (see Sorter.SlabBytes).
func (sh *Sharded) SlabBytes() int {
	n := 0
	for i := range sh.shards {
		n += sh.ShardSlabBytes(i)
	}
	return n
}

// MergeStalls counts Extract passes (with shards > 1) that emitted
// nothing while records were buffered — every shard's head still inside
// its delay window.
func (sh *Sharded) MergeStalls() uint64 { return sh.stalls.Load() }

// Stats aggregates the per-shard counters: sums for the flow counters,
// max for GrownTo, and a union of the per-source drop maps.
func (sh *Sharded) Stats() Stats {
	var st Stats
	for _, shd := range sh.shards {
		shd.mu.Lock()
		s := shd.s.Stats()
		shd.mu.Unlock()
		st.Pushed += s.Pushed
		st.Emitted += s.Emitted
		st.Inversions += s.Inversions
		st.DroppedFull += s.DroppedFull
		st.HeapFallbacks += s.HeapFallbacks
		st.CalendarRebuilds += s.CalendarRebuilds
		if s.GrownTo > st.GrownTo {
			st.GrownTo = s.GrownTo
		}
		for src, n := range s.SourceDrops {
			if st.SourceDrops == nil {
				st.SourceDrops = make(map[int32]uint64)
			}
			st.SourceDrops[src] += n
		}
	}
	return st
}

// TimeFrame returns the largest current time frame across shards — the
// bound on how long any record is delayed.
func (sh *Sharded) TimeFrame() int64 {
	var max int64
	for _, shd := range sh.shards {
		shd.mu.Lock()
		t := shd.s.TimeFrame()
		shd.mu.Unlock()
		if t > max {
			max = t
		}
	}
	return max
}

// MaxBucketOccupancy returns the live-record count of the fullest
// calendar bucket across all shards — the imbalance signal behind the
// per-shard heap fallback. Zero when every shard is on the heap (by
// configuration or fallback).
func (sh *Sharded) MaxBucketOccupancy() int {
	max := 0
	for _, shd := range sh.shards {
		shd.mu.Lock()
		occ := shd.s.MaxBucketOccupancy()
		shd.mu.Unlock()
		if occ > max {
			max = occ
		}
	}
	return max
}

// ShardStats returns shard i's counters.
func (sh *Sharded) ShardStats(i int) Stats {
	shd := sh.shards[i]
	shd.mu.Lock()
	defer shd.mu.Unlock()
	return shd.s.Stats()
}

// ShardTimeFrame returns shard i's current time frame T in µs.
func (sh *Sharded) ShardTimeFrame(i int) int64 {
	shd := sh.shards[i]
	shd.mu.Lock()
	defer shd.mu.Unlock()
	return shd.s.TimeFrame()
}

// ShardBuffered returns the number of records shard i has delayed.
func (sh *Sharded) ShardBuffered(i int) int {
	shd := sh.shards[i]
	shd.mu.Lock()
	defer shd.mu.Unlock()
	return shd.s.Buffered()
}

// ShardSlabBytes returns the encoded bytes of the records shard i has
// delayed.
func (sh *Sharded) ShardSlabBytes(i int) int {
	shd := sh.shards[i]
	shd.mu.Lock()
	defer shd.mu.Unlock()
	return shd.s.SlabBytes()
}

// BufferedBySource returns the number of records the given source has
// delayed in memory.
func (sh *Sharded) BufferedBySource(src int32) int {
	shd := sh.shards[sh.shardFor(src)]
	shd.mu.Lock()
	defer shd.mu.Unlock()
	return shd.s.BufferedBySource(src)
}

// TakeLosses drains every shard's per-source drop accumulators, as
// Sorter.TakeLosses. fn runs with the shard lock held.
func (sh *Sharded) TakeLosses(fn func(src int32, count uint64, firstTS, lastTS int64)) {
	for _, shd := range sh.shards {
		shd.mu.Lock()
		shd.s.TakeLosses(fn)
		shd.mu.Unlock()
	}
}

// DropsBySource calls fn for every source that has dropped records, as
// Sorter.DropsBySource. fn runs with the shard lock held.
func (sh *Sharded) DropsBySource(fn func(src int32, dropped uint64)) {
	for _, shd := range sh.shards {
		shd.mu.Lock()
		shd.s.DropsBySource(fn)
		shd.mu.Unlock()
	}
}

// NextDeadline returns the earliest manager time at which any shard's
// oldest buffered record becomes emittable — it ages by the widest time
// frame, as Extract gates — and false when nothing is buffered anywhere.
func (sh *Sharded) NextDeadline() (int64, bool) {
	var first, gate int64
	ok := false
	for _, shd := range sh.shards {
		shd.mu.Lock()
		gate = max(gate, shd.s.TimeFrame())
		ts, has := shd.s.oldest()
		shd.mu.Unlock()
		if has && (!ok || ts < first) {
			first, ok = ts, true
		}
	}
	return first + gate, ok
}

// mergeRun is one shard's staging area for a merge pass: keys in
// shard-emission (timestamp) order over a slab of their bytes, consumed
// head-first by the loser tree. Both are refilled per pass, so the staged
// records stay valid after the shard lock is released — a concurrent Push
// writes into shard slabs, not into the bytes the merge is about to emit —
// and staging allocates nothing in steady state.
type mergeRun struct {
	sorter *Sorter   // the shard this run stages for
	keys   []sortKey // src holds the origin node id here, not a srcs index
	slab   []byte
	next   int
}

// stage is the run's extract sink: it copies one aged key and its bytes
// out of the shard (the shard lock is held).
func (ru *mergeRun) stage(k *sortKey, slab []byte) {
	staged := *k
	staged.src = uint32(ru.sorter.srcs[k.src].src)
	ru.keys, ru.slab = store(ru.keys, ru.slab, staged, slab[k.off:][:k.n])
}

// head returns the next unconsumed key, or nil when the run is
// exhausted.
func (ru *mergeRun) head() *sortKey {
	if ru.next >= len(ru.keys) {
		return nil
	}
	return &ru.keys[ru.next]
}

// reset empties the run for the next pass, keeping its storage for
// reuse. The just-emitted records stay readable until the next pass
// overwrites them, which is the borrow window Extract documents.
func (ru *mergeRun) reset() { ru.keys, ru.slab, ru.next = ru.keys[:0], ru.slab[:0], 0 }

// loserTree is a tournament tree over k merge runs. node[0] holds the
// overall winner; node[1..k-1] hold the loser of the match played at
// that internal node. Leaf i's parent is node[(i+k)/2]. Replaying a
// single leaf-to-root path after the winner advances costs ⌈log₂ k⌉
// comparisons, against k−1 for rescanning heads.
type loserTree struct {
	k    int
	node []int
}

// build initializes the tree over k runs using wins(a, b) — "run a's
// head sorts before run b's" — seeding matches bottom-up.
func (t *loserTree) build(k int, wins func(a, b int) bool) {
	t.k = k
	if cap(t.node) < k {
		t.node = make([]int, k)
	}
	t.node = t.node[:k]
	for i := range t.node {
		t.node[i] = -1
	}
	for i := k - 1; i >= 0; i-- {
		t.seed(i, wins)
	}
}

// seed plays run r up the tree during build. The first run to reach an
// empty internal node parks there and waits for its opponent.
func (t *loserTree) seed(r int, wins func(a, b int) bool) {
	w := r
	for p := (r + t.k) / 2; p > 0; p /= 2 {
		if t.node[p] == -1 {
			t.node[p] = w
			return
		}
		if wins(t.node[p], w) {
			w, t.node[p] = t.node[p], w
		}
	}
	t.node[0] = w
}

// adjust replays the path from leaf r to the root after run r (the
// previous winner) advanced its head, restoring the loser-tree
// invariant.
func (t *loserTree) adjust(r int, wins func(a, b int) bool) {
	w := r
	for p := (r + t.k) / 2; p > 0; p /= 2 {
		if wins(t.node[p], w) {
			w, t.node[p] = t.node[p], w
		}
	}
	t.node[0] = w
}

// winner returns the run index holding the global minimum head, or -1.
func (t *loserTree) winner() int { return t.node[0] }
