package visual

import (
	"errors"
	"sync"
	"testing"
	"time"

	"brisk/internal/picl"
	"brisk/internal/record"
)

// collector is a thread-safe test Object.
type collector struct {
	mu    sync.Mutex
	lines []string
}

func (c *collector) ProcessPICL(line string) error {
	c.mu.Lock()
	c.lines = append(c.lines, line)
	c.mu.Unlock()
	return nil
}

func (c *collector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines...)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestDeliverToRegisteredObject(t *testing.T) {
	s, addr := startServer(t)
	col := &collector{}
	s.Register("view", col)

	r, err := Dial(addr, "view", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Push("-4 1 100 0 0")
	r.Push("-4 2 200 0 0")
	waitFor(t, func() bool { return len(col.snapshot()) == 2 })
	got := col.snapshot()
	if got[0] != "-4 1 100 0 0" || got[1] != "-4 2 200 0 0" {
		t.Fatalf("lines = %v", got)
	}
	if s.Calls.Load() != 2 {
		t.Fatalf("calls = %d", s.Calls.Load())
	}
}

func TestUnknownObjectCounted(t *testing.T) {
	s, addr := startServer(t)
	r, err := Dial(addr, "nobody", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Push("line")
	waitFor(t, func() bool { return s.Unknown.Load() == 1 })
}

func TestPanickingObjectDoesNotKillServer(t *testing.T) {
	s, addr := startServer(t)
	col := &collector{}
	s.Register("bad", ObjectFunc(func(string) error { panic("boom") }))
	s.Register("good", col)

	rb, err := Dial(addr, "bad", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	rg, err := Dial(addr, "good", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer rg.Close()

	rb.Push("x")
	waitFor(t, func() bool { return s.Calls.Load() >= 1 })
	rg.Push("y")
	waitFor(t, func() bool { return len(col.snapshot()) == 1 })
}

func TestObjectErrorIgnored(t *testing.T) {
	s, addr := startServer(t)
	s.Register("err", ObjectFunc(func(string) error { return errors.New("no") }))
	r, err := Dial(addr, "err", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Push("a")
	r.Push("b")
	waitFor(t, func() bool { return s.Calls.Load() == 2 })
}

func TestSlowConsumerDrops(t *testing.T) {
	block := make(chan struct{})
	s, addr := startServer(t)
	s.Register("slow", ObjectFunc(func(string) error {
		<-block
		return nil
	}))
	r, err := Dial(addr, "slow", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate: with a queue of 2 and a blocked consumer, pushes must
	// start dropping rather than stalling this goroutine.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10_000; i++ {
			r.Push("line")
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Push blocked on slow consumer")
	}
	if r.Dropped() == 0 {
		t.Fatal("no drops recorded")
	}
	close(block)
	r.Close()
}

func TestDispatcherFanOut(t *testing.T) {
	s, addr := startServer(t)
	c1, c2 := &collector{}, &collector{}
	s.Register("a", c1)
	s.Register("b", c2)

	d := NewDispatcher()
	for _, name := range []string{"a", "b"} {
		r, err := Dial(addr, name, 64)
		if err != nil {
			t.Fatal(err)
		}
		d.Attach(r)
	}
	if d.Len() != 2 {
		t.Fatalf("len = %d", d.Len())
	}
	rec := record.New(1, record.TSVal(5))
	for i := 0; i < 10; i++ {
		d.Publish(&rec, nil, 0)
	}
	waitFor(t, func() bool {
		return len(c1.snapshot()) == 10 && len(c2.snapshot()) == 10
	})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatal("dispatcher not emptied by Close")
	}
}

func TestRemoteCloseFlushesQueue(t *testing.T) {
	s, addr := startServer(t)
	col := &collector{}
	s.Register("v", col)
	r, err := Dial(addr, "v", 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r.Push("l")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(col.snapshot()) == 100 })
	if r.Sent() != 100 {
		t.Fatalf("sent = %d", r.Sent())
	}
}

func TestServerDoubleClose(t *testing.T) {
	s, _ := startServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second close errored")
	}
}

func TestPushAfterServerGone(t *testing.T) {
	s, addr := startServer(t)
	col := &collector{}
	s.Register("v", col)
	r, err := Dial(addr, "v", 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Eventually writes fail; pushes must degrade to drops, not panic.
	for i := 0; i < 1000; i++ {
		r.Push("x")
		time.Sleep(time.Millisecond / 10)
		if r.Dropped() > 0 {
			break
		}
	}
	r.Close()
}

// TestPublishRendersPICLWhileAttaching: the sink side renders each record
// once as the PICL line picl.AppendLine gives, while remotes attach from
// another goroutine (the merge path against a caller of AttachVisual).
func TestPublishRendersPICLWhileAttaching(t *testing.T) {
	s, addr := startServer(t)
	col := &collector{}
	s.Register("v", col)
	rec := record.New(5, record.TSVal(1234), record.I32Val(7))
	rec.Node = 3
	var fields [record.MaxFields]record.Value
	want, err := picl.AppendLine(nil, &rec, &fields)
	if err != nil {
		t.Fatal(err)
	}

	d := NewDispatcher()
	const remotes = 4
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < remotes; i++ {
			r, err := Dial(addr, "v", 4096)
			if err != nil {
				t.Error(err)
				return
			}
			d.Attach(r)
		}
	}()
	for d.Len() < remotes {
		d.Publish(&rec, nil, 0)
		d.EndFlush()
	}
	wg.Wait()
	d.Publish(&rec, nil, 0)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(col.snapshot()) >= remotes })
	for _, l := range col.snapshot() {
		if l != string(want) {
			t.Fatalf("line %q, want %q", l, want)
		}
	}
}

// TestPublishIdleAllocatesNothing: with nothing attached, the visual sink
// the manager always lists costs one atomic load per record.
func TestPublishIdleAllocatesNothing(t *testing.T) {
	d := NewDispatcher()
	rec := record.New(5, record.TSVal(1234), record.StrVal("s"))
	if a := testing.AllocsPerRun(100, func() { d.Publish(&rec, nil, 0) }); a != 0 {
		t.Fatalf("idle Publish allocates %.1f per record", a)
	}
}
