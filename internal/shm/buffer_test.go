package shm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBufferBasicPublishRead(t *testing.T) {
	b := NewBuffer(8)
	c := b.NewCursor()
	b.Publish([]byte("one"))
	b.Publish([]byte("two"))

	rec, lost, ok := c.Next()
	if !ok || lost != 0 || string(rec) != "one" {
		t.Fatalf("first = %q lost=%d ok=%v", rec, lost, ok)
	}
	rec, _, ok = c.Next()
	if !ok || string(rec) != "two" {
		t.Fatalf("second = %q", rec)
	}
	if _, _, ok := c.TryNext(); ok {
		t.Fatal("TryNext on empty buffer returned ok")
	}
	if b.Written() != 2 {
		t.Fatalf("Written = %d", b.Written())
	}
}

func TestBufferOverrun(t *testing.T) {
	b := NewBuffer(4)
	c := b.NewCursor()
	for i := 0; i < 10; i++ {
		b.Publish([]byte{byte(i)})
	}
	rec, lost, ok := c.Next()
	if !ok || lost != 6 || rec[0] != 6 {
		t.Fatalf("after overrun: rec=%v lost=%d ok=%v; want rec=6 lost=6", rec, lost, ok)
	}
	// Subsequent reads are contiguous.
	for want := byte(7); want < 10; want++ {
		rec, lost, ok = c.Next()
		if !ok || lost != 0 || rec[0] != want {
			t.Fatalf("rec=%v lost=%d ok=%v want=%d", rec, lost, ok, want)
		}
	}
}

func TestBufferCursorStartsAtOldestRetained(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 5; i++ {
		b.Publish([]byte{byte(i)})
	}
	c := b.NewCursor()
	rec, lost, ok := c.Next()
	if !ok || lost != 0 || rec[0] != 2 {
		t.Fatalf("late cursor first read = %v lost=%d", rec, lost)
	}
}

func TestBufferCloseWakesReaders(t *testing.T) {
	b := NewBuffer(4)
	c := b.NewCursor()
	doneCh := make(chan bool)
	go func() {
		_, _, ok := c.Next()
		doneCh <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case ok := <-doneCh:
		if ok {
			t.Fatal("Next returned ok after Close with no data")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader not woken by Close")
	}
}

func TestBufferDrainAfterClose(t *testing.T) {
	b := NewBuffer(4)
	b.Publish([]byte("a"))
	b.Close()
	c := b.NewCursor()
	if rec, _, ok := c.Next(); !ok || string(rec) != "a" {
		t.Fatalf("drain after close: %q %v", rec, ok)
	}
	if _, _, ok := c.Next(); ok {
		t.Fatal("EOF not reported after drain")
	}
}

func TestBufferMultipleReaders(t *testing.T) {
	b := NewBuffer(1024)
	const n = 500
	const readers = 4
	var wg sync.WaitGroup
	results := make([][]byte, readers)
	for i := 0; i < readers; i++ {
		c := b.NewCursor()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				rec, lost, ok := c.Next()
				if lost != 0 {
					t.Errorf("reader %d lost %d", i, lost)
				}
				if !ok {
					return
				}
				results[i] = append(results[i], rec[0])
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		b.Publish([]byte{byte(i % 251)})
	}
	b.Close()
	wg.Wait()
	for i := 0; i < readers; i++ {
		if len(results[i]) != n {
			t.Fatalf("reader %d saw %d records, want %d", i, len(results[i]), n)
		}
		for j := range results[i] {
			if results[i][j] != byte(j%251) {
				t.Fatalf("reader %d record %d = %d", i, j, results[i][j])
			}
		}
	}
}

func TestBufferMinimumCapacity(t *testing.T) {
	b := NewBuffer(0)
	b.Publish([]byte("only"))
	c := b.NewCursor()
	rec, _, ok := c.Next()
	if !ok || string(rec) != "only" {
		t.Fatalf("cap-0 buffer: %q %v", rec, ok)
	}
}

func ExampleBuffer() {
	b := NewBuffer(16)
	c := b.NewCursor()
	b.Publish([]byte("evt"))
	b.Close()
	for {
		rec, _, ok := c.Next()
		if !ok {
			break
		}
		fmt.Println(string(rec))
	}
	// Output: evt
}

// entry builds the i-th test entry: 1 + 37·i mod 900 bytes (sizes that
// straddle every ring boundary sooner or later), every byte i's low byte.
func entry(i int) []byte {
	return bytes.Repeat([]byte{byte(i)}, 1+(i*37)%900)
}

// TestBufferLappingWithMixedEntrySizes drives the flat ring through many
// wraps and growths with entries of unequal sizes: a reader that keeps up
// sees every entry intact, a lapped reader loses exactly the entries that
// fell out of retention and resumes at the oldest retained one, and a
// reader that recycles one Run sees what a copying reader sees.
func TestBufferLappingWithMixedEntrySizes(t *testing.T) {
	const capacity, total = 16, 5000
	b := NewBuffer(capacity)
	live, lapped, recycling := b.NewCursor(), b.NewCursor(), b.NewCursor()
	var run Run
	for i := 0; i < total; i++ {
		if i%64 < 3 {
			b.PublishBatch([][]byte{entry(i)})
		} else {
			b.Publish(entry(i))
		}
		got, lost, ok := live.TryNext()
		if !ok || lost != 0 || !bytes.Equal(got, entry(i)) {
			t.Fatalf("entry %d: live reader got %d bytes of %#x, lost %d, ok %v", i, len(got), got[:1], lost, ok)
		}
		lost, ok = recycling.TryNextRun(&run)
		if !ok || lost != 0 || len(run.Ends) != 1 || !bytes.Equal(run.Data, got) {
			t.Fatalf("entry %d: recycling reader disagrees (lost %d, ok %v, %d entries)", i, lost, ok, len(run.Ends))
		}
		// The lapped reader wakes up every 100 entries.
		if i%100 != 99 {
			continue
		}
		first := i + 1 - capacity
		got, lost, ok = lapped.TryNext()
		wantLost := uint64(100 - capacity)
		if i == 99 {
			wantLost = uint64(first) // never read before: everything before retention is lost
		}
		if !ok || lost != wantLost || !bytes.Equal(got, entry(first)) {
			t.Fatalf("at %d: lapped reader got entry of %#x (%d bytes), lost %d; want entry %d, lost %d",
				i, got[:1], len(got), lost, first, wantLost)
		}
		for j := first + 1; j <= i; j++ {
			got, lost, ok = lapped.TryNext()
			if !ok || lost != 0 || !bytes.Equal(got, entry(j)) {
				t.Fatalf("at %d: lapped reader, retained entry %d: %d bytes, lost %d, ok %v", i, j, len(got), lost, ok)
			}
		}
	}
	if b.Written() != total {
		t.Fatalf("Written = %d, want %d", b.Written(), total)
	}
	// The ring grew to what 16 entries of these sizes need, not to what
	// 5000 of them would: retention is counted in records.
	if len(b.data) > 32*1024 {
		t.Fatalf("ring grew to %d bytes for %d retained entries of under 900 bytes", len(b.data), capacity)
	}
}

// TestBufferEntryLargerThanRing: one entry bigger than the whole initial
// ring, and an empty one, both survive.
func TestBufferEntryLargerThanRing(t *testing.T) {
	b := NewBuffer(2)
	c := b.NewCursor()
	big := bytes.Repeat([]byte{7}, 3*minRing+5)
	b.Publish([]byte("small"))
	b.Publish(big)
	b.Publish(nil)
	if got, lost, ok := c.Next(); !ok || lost != 1 || !bytes.Equal(got, big) {
		t.Fatalf("big entry: %d bytes, lost %d, ok %v", len(got), lost, ok)
	}
	if got, _, ok := c.Next(); !ok || len(got) != 0 {
		t.Fatalf("empty entry: %d bytes, ok %v", len(got), ok)
	}
}
