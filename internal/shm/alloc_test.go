package shm

import "testing"

// TestAllocsPublishBatch pins the memory-buffer sink's batched delivery,
// and the read side of a consumer that recycles its Run: once the byte
// ring has grown to hold the retained entries, publishing a batch copies
// into it and reading it back in runs copies out of it, and neither
// allocates.
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
	r := Run{Data: make([]byte, 0, runBytes), Ends: make([]uint32, 0, runBytes/48)}
	allocs := testing.AllocsPerRun(1000, func() {
		b.PublishBatch(recs)
		for read := 0; read < len(recs); read += len(r.Ends) {
			if _, ok := c.TryNextRun(&r); !ok {
				t.Fatal("reader starved")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("PublishBatch + TryNextRun allocate %.1f times per batch, want 0", allocs)
	}
}
