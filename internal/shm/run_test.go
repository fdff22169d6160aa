package shm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// runEntry builds entry i of a run test: its index in the first four
// bytes, then size−4 copies of its low byte (size is at least 4).
func runEntry(i, size int) []byte {
	e := bytes.Repeat([]byte{byte(i)}, size)
	binary.BigEndian.PutUint32(e, uint32(i))
	return e
}

// runEntries splits a run into its entries.
func runEntries(r *Run) [][]byte {
	out := make([][]byte, len(r.Ends))
	from := uint32(0)
	for i, end := range r.Ends {
		out[i] = r.Data[from:end]
		from = end
	}
	return out
}

// TestPropertyRunReadsMatchRecordReads publishes the same stream into two
// buffers and reads one with run reads, the other with per-record reads of
// as many records as each run returned: the bytes, their order and the
// total lost agree. Capacities of 1 to 16 records lap the readers; entry
// sizes up to 3 runBytes grow the ring mid-stream and give entries larger
// than the cap, which must come back alone; each run stops only where the
// next entry would take it past runBytes; and Close with entries unread
// still drains both readers to the same end.
func TestPropertyRunReadsMatchRecordReads(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(16)
		byRun, byRecord := NewBuffer(capacity), NewBuffer(capacity)
		rc, pc := byRun.NewCursor(), byRecord.NewCursor()
		var published [][]byte
		var run Run
		var runLost, recLost uint64
		next := 0 // index in published of the entry after the last one run-read
		// read does one run read and the matching per-record reads.
		read := func(wait bool) bool {
			var lost uint64
			var ok bool
			if wait {
				lost, ok = rc.NextRun(&run)
			} else {
				lost, ok = rc.TryNextRun(&run)
			}
			if !ok {
				if len(run.Ends) != 0 {
					t.Errorf("seed %d: failed run read left %d entries", seed, len(run.Ends))
					return false
				}
				if _, _, ok := pc.TryNext(); ok {
					t.Errorf("seed %d: run read empty, record read not", seed)
					return false
				}
				return true
			}
			runLost += lost
			next += int(lost)
			got := runEntries(&run)
			if len(got) > 1 && len(run.Data) > runBytes {
				t.Errorf("seed %d: run of %d entries holds %d bytes, cap %d", seed, len(got), len(run.Data), runBytes)
				return false
			}
			for i, e := range got {
				rec, lost, ok := pc.Next()
				recLost += lost
				if !ok || !bytes.Equal(rec, e) || !bytes.Equal(e, published[next+i]) {
					t.Errorf("seed %d: run entry %d of %d (%d bytes) differs from record read (%d bytes, ok %v) or from entry %d",
						seed, i, len(got), len(e), len(rec), ok, next+i)
					return false
				}
			}
			next += len(got)
			// Every published entry is in the buffer by now, so a run
			// that stops short of the newest must have met the cap.
			if next < len(published) && len(run.Data)+len(published[next]) <= runBytes {
				t.Errorf("seed %d: run stopped at %d bytes before a %d-byte entry", seed, len(run.Data), len(published[next]))
				return false
			}
			if runLost != recLost {
				t.Errorf("seed %d: run reads lost %d, record reads %d", seed, runLost, recLost)
				return false
			}
			return true
		}
		for op := 0; op < 400; op++ {
			if rng.Intn(3) == 0 {
				if !read(false) {
					return false
				}
				continue
			}
			batch := make([][]byte, 1+rng.Intn(8))
			for i := range batch {
				size := 4 + rng.Intn(200)
				if rng.Intn(20) == 0 {
					size = 4 + rng.Intn(3*runBytes)
				}
				batch[i] = runEntry(len(published), size)
				published = append(published, batch[i])
			}
			byRun.PublishBatch(batch)
			byRecord.PublishBatch(batch)
		}
		byRun.Close()
		byRecord.Close()
		for {
			if !read(true) {
				return false
			}
			if len(run.Ends) == 0 {
				break
			}
		}
		if _, _, ok := pc.Next(); ok {
			t.Errorf("seed %d: record reader not at EOF after the run reader", seed)
			return false
		}
		if uint64(next) != byRun.Written() {
			t.Errorf("seed %d: run reader ended at %d of %d", seed, next, byRun.Written())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRunReaderBesideWriter runs one writer and one run reader at once
// (make test-race runs it under the race detector): every entry the
// reader sees is intact and in order, the gaps are exactly what lost
// reports, and after Close the reader has accounted for every entry.
func TestRunReaderBesideWriter(t *testing.T) {
	const total = 20000
	b := NewBuffer(64)
	c := b.NewCursor()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < total; {
			batch := make([][]byte, min(1+rng.Intn(16), total-i))
			for j := range batch {
				batch[j] = runEntry(i, 4+rng.Intn(120))
				i++
			}
			b.PublishBatch(batch)
		}
		b.Close()
	}()
	var run Run
	var seen, lost uint64
	for {
		l, ok := c.NextRun(&run)
		if !ok {
			break
		}
		lost += l
		for _, e := range runEntries(&run) {
			i := binary.BigEndian.Uint32(e)
			if uint64(i) != seen+lost {
				t.Fatalf("read entry %d after %d seen and %d lost", i, seen, lost)
			}
			if !bytes.Equal(e, runEntry(int(i), len(e))) {
				t.Fatalf("entry %d corrupt", i)
			}
			seen++
		}
	}
	wg.Wait()
	if seen+lost != total {
		t.Fatalf("seen %d + lost %d = %d, want %d", seen, lost, seen+lost, total)
	}
}
