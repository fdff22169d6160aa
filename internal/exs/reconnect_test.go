package exs

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"brisk/internal/sensor"
	"brisk/internal/shm"
	"brisk/internal/wire"
)

// fakeISM is a minimal manager: it completes the HELLO exchange and then
// reads without ever acknowledging, so everything sent stays queued.
type fakeISM struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newFakeISM(t *testing.T) *fakeISM {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeISM{ln: ln}
	f.wg.Add(1)
	go f.acceptLoop()
	t.Cleanup(func() { f.Close() })
	return f
}

func (f *fakeISM) addr() string { return f.ln.Addr().String() }

func (f *fakeISM) acceptLoop() {
	defer f.wg.Done()
	node := int32(0)
	for {
		raw, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		f.conns = append(f.conns, raw)
		f.mu.Unlock()
		node++
		f.wg.Add(1)
		go f.serve(raw, node)
	}
}

func (f *fakeISM) serve(raw net.Conn, node int32) {
	defer f.wg.Done()
	wc := wire.NewConn(raw)
	msg, err := wc.Recv()
	if err != nil {
		return
	}
	if _, ok := msg.(*wire.Hello); !ok {
		return
	}
	if wc.Send(&wire.HelloAck{Node: node}) != nil {
		return
	}
	for {
		if _, err := wc.Recv(); err != nil {
			return
		}
	}
}

// Close severs everything: listener and all accepted connections.
func (f *fakeISM) Close() {
	f.ln.Close()
	f.mu.Lock()
	for _, c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// dialFake connects an EXS to a fake manager with fast test timings.
func dialFake(t *testing.T, f *fakeISM, mutate func(*Config)) (*EXS, *shm.Region) {
	t.Helper()
	region := shm.NewRegion()
	cfg := Config{
		ManagerAddr:   f.addr(),
		NodeName:      "t",
		Region:        region,
		FlushInterval: time.Millisecond,
		PollInterval:  200 * time.Microsecond,
		ReconnectBase: 2 * time.Millisecond,
		ReconnectMax:  10 * time.Millisecond,
		Logf:          func(string, ...any) {},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, region
}

// TestRetryCapDegradesToOffline kills the manager for good and verifies
// the sensor runs its capped schedule (drawing jitter from the injected
// Config.ReconnectRand), gives up, counts the stranded queue as dropped,
// and keeps draining (LostOffline grows, ring empties).
func TestRetryCapDegradesToOffline(t *testing.T) {
	f := newFakeISM(t)
	var draws atomic.Int64
	e, region := dialFake(t, f, func(c *Config) {
		c.MaxReconnectAttempts = 2
		c.ReconnectRand = func() float64 { draws.Add(1); return 0.5 }
	})
	s := sensor.New(region, "app", sensor.Options{})

	s.Notice2i(1, 1, 0)
	e.Flush()
	waitFor(t, 5*time.Second, func() bool { return e.Stats().Sent == 1 })

	f.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s.Notice2i(1, 2, 0)
		e.Flush()
		st := e.Stats()
		if !st.Online && st.LostOffline > 0 {
			// The unacked in-flight record was stranded in the queue and
			// counted when the sensor gave up.
			if st.Dropped == 0 {
				t.Fatalf("stranded queue not counted: %+v", st)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("sensor never degraded to offline: %+v", e.Stats())
}

// TestCloseDuringReconnectDoesNotBlock is the regression test for Close
// racing an active reconnect loop: with the manager gone and an
// effectively unbounded retry schedule, Close must still return promptly
// and leave no goroutine wedged in a backoff sleep or dial.
func TestCloseDuringReconnectDoesNotBlock(t *testing.T) {
	f := newFakeISM(t)
	e, region := dialFake(t, f, func(c *Config) {
		c.MaxReconnectAttempts = -1 // retry forever
		c.ReconnectBase = 10 * time.Second
		c.ReconnectMax = 10 * time.Second
	})
	s := sensor.New(region, "app", sensor.Options{})
	s.Notice2i(1, 1, 0)
	e.Flush()
	waitFor(t, 5*time.Second, func() bool { return e.Stats().Sent == 1 })

	f.Close()
	waitFor(t, 5*time.Second, func() bool { return !e.Stats().Online })

	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on an active reconnect loop")
	}
	// The stranded queue is accounted for, not leaked.
	if st := e.Stats(); st.Dropped == 0 {
		t.Fatalf("unacked records not counted at close: %+v", st)
	}
}

// TestDialContextCancelAbortsBackoff verifies canceling the lifetime
// context mid-outage stops reconnection permanently.
func TestDialContextCancelAbortsBackoff(t *testing.T) {
	f := newFakeISM(t)
	region := shm.NewRegion()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := DialContext(ctx, Config{
		ManagerAddr:          f.addr(),
		Region:               region,
		FlushInterval:        time.Millisecond,
		PollInterval:         200 * time.Microsecond,
		ReconnectBase:        time.Hour, // would block Close without ctx
		ReconnectMax:         time.Hour,
		MaxReconnectAttempts: -1,
		Logf:                 func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	f.Close()
	waitFor(t, 5*time.Second, func() bool { return !e.Stats().Online })
	cancel()
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked despite canceled context")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
