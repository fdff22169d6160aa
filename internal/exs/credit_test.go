package exs

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"brisk/internal/record"
	"brisk/internal/sensor"
	"brisk/internal/shm"
	"brisk/internal/wire"
)

// creditISM is a fake manager that grants a credit window in its
// HELLO_ACK and acknowledges batches only when told to, so tests can
// observe the sensor honoring (and stalling on) the window.
type creditISM struct {
	ln     net.Listener
	window uint32 // HELLO_ACK grant
	acking atomic.Bool
	mu     sync.Mutex
	wc     *wire.Conn
	maxSeq uint64
	bodies [][]byte
	wg     sync.WaitGroup
}

func newCreditISM(t *testing.T, window uint32) *creditISM {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &creditISM{ln: ln, window: window}
	f.wg.Add(1)
	go f.acceptLoop()
	t.Cleanup(func() {
		f.ln.Close()
		f.mu.Lock()
		if f.wc != nil {
			f.wc = nil
		}
		f.mu.Unlock()
		f.wg.Wait()
	})
	return f
}

func (f *creditISM) addr() string { return f.ln.Addr().String() }

func (f *creditISM) acceptLoop() {
	defer f.wg.Done()
	for {
		raw, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer raw.Close()
			wc := wire.NewConn(raw)
			if msg, err := wc.Recv(); err != nil {
				return
			} else if _, ok := msg.(*wire.Hello); !ok {
				return
			}
			if wc.Send(&wire.HelloAck{Node: 1, Window: f.window}) != nil {
				return
			}
			f.mu.Lock()
			f.wc = wc
			f.mu.Unlock()
			for {
				msg, err := wc.Recv()
				if err != nil {
					return
				}
				b, ok := msg.(*wire.DataBatch)
				if !ok {
					continue
				}
				f.mu.Lock()
				if b.Seq > f.maxSeq {
					f.maxSeq = b.Seq
				}
				f.bodies = append(f.bodies, append([]byte(nil), b.Payload...))
				f.mu.Unlock()
				if f.acking.Load() {
					if wc.Send(&wire.DataAck{Seq: b.Seq}) != nil {
						return
					}
				}
			}
		}()
	}
}

// releaseAll turns on per-batch acking (Window 0 = flow control off) and
// acknowledges everything received so far.
func (f *creditISM) releaseAll() {
	f.acking.Store(true)
	f.mu.Lock()
	wc, seq := f.wc, f.maxSeq
	f.mu.Unlock()
	if wc != nil {
		wc.Send(&wire.DataAck{Seq: seq})
	}
}

// markerTotals decodes every received payload and sums loss-marker
// coverage and plain data records.
func (f *creditISM) markerTotals(t *testing.T) (data, covered uint64) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, body := range f.bodies {
		for len(body) > 0 {
			rec, n, err := record.Decode(body)
			if err != nil {
				t.Fatalf("decode received payload: %v", err)
			}
			body = body[n:]
			if c, _, _, ok := record.LossInfo(&rec); ok {
				covered += c
			} else {
				data++
			}
		}
	}
	return data, covered
}

// TestSpillEvictionShipsLossMarker pins the sensor's loss testimony: when
// the bounded spill queue evicts batches (manager granting no credit, tiny
// SpillBytes), the records are not silently gone — once credit returns,
// the sensor ships a loss-marker record covering at least the evicted
// count, and delivered data + marker coverage accounts for everything
// produced.
func TestSpillEvictionShipsLossMarker(t *testing.T) {
	f := newCreditISM(t, 4)
	region := shm.NewRegion()
	e, err := Dial(Config{
		ManagerAddr:   f.addr(),
		Region:        region,
		BatchBytes:    128,
		SpillBytes:    1024, // a handful of batches, then eviction
		FlushInterval: time.Millisecond,
		PollInterval:  200 * time.Microsecond,
		Logf:          quietTestLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })

	s := sensor.New(region, "app", sensor.Options{})
	const produced = 500
	for i := 0; i < produced; i++ {
		for !s.Notice2i(1, int32(i), 0) {
			time.Sleep(10 * time.Microsecond)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return e.Stats().Dropped > 0 })

	f.releaseAll()
	waitFor(t, 10*time.Second, func() bool {
		st := e.Stats()
		return st.QueuedBytes == 0 && st.LossMarkers > 0
	})
	st := e.Stats()
	if st.MarkedLost < st.Dropped {
		t.Fatalf("markers cover %d records but %d were dropped", st.MarkedLost, st.Dropped)
	}
	data, covered := f.markerTotals(t)
	if data+covered < produced {
		t.Fatalf("silent loss: produced %d, received %d data + %d marker-covered",
			produced, data, covered)
	}
	// The ship-time counter may legitimately exceed wire coverage — a
	// marker batch that was itself evicted has its coverage re-marked,
	// counting twice at the sensor but once on the wire — but the wire
	// must never carry more than the sensor accounted for.
	if covered == 0 || covered > st.MarkedLost {
		t.Fatalf("markers on the wire cover %d, sensor accounted %d", covered, st.MarkedLost)
	}
}

func quietTestLog(string, ...any) {}
