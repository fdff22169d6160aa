package shm

import "testing"

// TestAllocsPublishBatch pins the memory-buffer sink's batched delivery,
// and the read side of a consumer that recycles its buffer: once the byte
// ring has grown to hold the retained entries, publishing a batch copies
// into it and reading one back copies out of it, and neither allocates.
func TestAllocsPublishBatch(t *testing.T) {
	b := NewBuffer(1024)
	c := b.NewCursor()
	recs := make([][]byte, 64)
	for i := range recs {
		recs[i] = make([]byte, 48)
	}
	// Fill retention once so the ring has reached its steady size.
	for i := 0; i < 1024/len(recs)+1; i++ {
		b.PublishBatch(recs)
	}
	buf := make([]byte, 0, 48)
	allocs := testing.AllocsPerRun(1000, func() {
		b.PublishBatch(recs)
		for range recs {
			var ok bool
			if buf, _, ok = c.TryNextInto(buf); !ok {
				t.Fatal("reader starved")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("PublishBatch + TryNextInto allocate %.1f times per batch, want 0", allocs)
	}
}
