package ism

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"brisk/internal/exs"
	"brisk/internal/ols"
	"brisk/internal/picl"
	"brisk/internal/record"
	"brisk/internal/sensor"
	"brisk/internal/shm"
	"brisk/internal/vclock"
	"brisk/internal/visual"
	"brisk/internal/wire"
)

func quietLog(string, ...any) {}

// newManager starts a manager on an ephemeral port with fast merge cycles.
func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.MergeInterval == 0 {
		cfg.MergeInterval = time.Millisecond
	}
	if cfg.Sorter.InitialT == 0 {
		cfg.Sorter = ols.Config{InitialT: 1000} // 1 ms window
	}
	if cfg.Logf == nil {
		cfg.Logf = quietLog
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	t.Cleanup(func() { m.Close() })
	return m
}

// newNode attaches an EXS with its own region and returns it with the
// region for sensor creation.
func newNode(t *testing.T, m *Manager, name string, clock *vclock.Corrected) (*exs.EXS, *shm.Region) {
	t.Helper()
	region := shm.NewRegion()
	e, err := exs.Dial(exs.Config{
		ManagerAddr:   m.Addr(),
		NodeName:      name,
		Region:        region,
		Clock:         clock,
		FlushInterval: time.Millisecond,
		PollInterval:  200 * time.Microsecond,
		ReconnectBase: 5 * time.Millisecond,
		ReconnectMax:  25 * time.Millisecond,
		Logf:          quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, region
}

// drainCursor reads records from the manager's buffer until n records
// arrive or the deadline passes.
func drainCursor(t *testing.T, m *Manager, n int, timeout time.Duration) []record.Record {
	t.Helper()
	cur := m.NewCursor()
	out := make([]record.Record, 0, n)
	deadline := time.Now().Add(timeout)
	for len(out) < n && time.Now().Before(deadline) {
		raw, lost, ok := cur.TryNext()
		if lost > 0 {
			t.Fatalf("consumer lost %d records", lost)
		}
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		rec, err := DecodeBuffered(raw)
		if err != nil {
			t.Fatalf("DecodeBuffered: %v", err)
		}
		out = append(out, rec)
	}
	return out
}

func TestSingleNodePipeline(t *testing.T) {
	m := newManager(t, Config{})
	e, region := newNode(t, m, "n1", nil)

	s := sensor.New(region, "app", sensor.Options{})
	const n = 500
	for i := 0; i < n; i++ {
		if !s.Notice6i(7, int32(i), 2, 3, 4, 5, 6) {
			t.Fatal("ring overflow")
		}
	}
	got := drainCursor(t, m, n, 10*time.Second)
	if len(got) != n {
		t.Fatalf("received %d records, want %d (stats %+v, exs %+v)", len(got), n, m.Stats(), e.Stats())
	}
	for i, r := range got {
		if r.Event != 7 || r.Fields[1].Int() != int64(i) {
			t.Fatalf("record %d corrupted: %+v", i, r)
		}
		if r.Node != e.Node() {
			t.Fatalf("record %d node = %d, want %d", i, r.Node, e.Node())
		}
		if i > 0 && r.TS < got[i-1].TS {
			t.Fatalf("out of order at %d", i)
		}
	}
	st := m.Stats()
	if st.Received != n || st.Emitted != n || st.Batches == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMultiNodeMergeOrdering(t *testing.T) {
	m := newManager(t, Config{Sorter: ols.Config{InitialT: 20_000}})
	const nodes = 3
	const per = 300
	var sensors []*sensor.Sensor
	for i := 0; i < nodes; i++ {
		_, region := newNode(t, m, "node", nil)
		sensors = append(sensors, sensor.New(region, "app", sensor.Options{}))
	}
	var wg sync.WaitGroup
	for _, s := range sensors {
		wg.Add(1)
		go func(s *sensor.Sensor) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Notice6i(1, int32(i), 0, 0, 0, 0, 0)
				time.Sleep(50 * time.Microsecond)
			}
		}(s)
	}
	wg.Wait()
	got := drainCursor(t, m, nodes*per, 15*time.Second)
	if len(got) != nodes*per {
		t.Fatalf("received %d, want %d", len(got), nodes*per)
	}
	inversions := 0
	for i := 1; i < len(got); i++ {
		if got[i].TS < got[i-1].TS {
			inversions++
		}
	}
	// All nodes share the true system clock here, so the sorted stream
	// should be clean given the 20 ms window.
	if inversions != 0 {
		t.Fatalf("%d inversions in merged stream", inversions)
	}
	seen := map[int32]int{}
	for _, r := range got {
		seen[r.Node]++
	}
	if len(seen) != nodes {
		t.Fatalf("nodes seen = %v", seen)
	}
}

func TestPICLSink(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	sw := &syncWriter{w: &buf, mu: &mu}
	pw := picl.NewWriter(sw, picl.TimeUTC, 0)
	m := newManager(t, Config{Sinks: []SinkTap{pw}})
	_, region := newNode(t, m, "n", nil)
	s := sensor.New(region, "app", sensor.Options{})
	for i := 0; i < 10; i++ {
		s.Notice2i(3, int32(i), 9)
	}
	drainCursor(t, m, 10, 5*time.Second)
	m.Close() // flushes PICL
	mu.Lock()
	text := buf.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != 10 {
		t.Fatalf("picl lines = %d:\n%s", len(lines), text)
	}
	rd := picl.NewReader(strings.NewReader(text))
	ln, err := rd.Next()
	if err != nil || ln.Event != 3 {
		t.Fatalf("picl parse: %+v %v", ln, err)
	}
}

// errDiskFull is what failWriter returns for every write.
var errDiskFull = errors.New("disk full")

// failWriter is a PICL destination that fails every write, like a full
// disk or a closed pipe.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestPICLSinkFailingWriterLogsOnce: a PICL destination that fails every
// write costs one log line, reported when Close flushes the sinks, and
// the memory buffer still receives every record.
func TestPICLSinkFailingWriterLogsOnce(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	pw := picl.NewWriter(failWriter{}, picl.TimeUTC, 0)
	m := newManager(t, Config{Sinks: []SinkTap{pw}, Logf: logf})
	_, region := newNode(t, m, "n", nil)
	s := sensor.New(region, "app", sensor.Options{})
	const n = 1000 // tens of KiB of trace: the writer's buffer fills many times
	for i := 0; i < n; i++ {
		if !s.Notice2i(3, int32(i), 9) {
			t.Fatalf("notice %d dropped", i)
		}
	}
	if got := drainCursor(t, m, n, 10*time.Second); len(got) != n {
		t.Fatalf("memory buffer got %d of %d records", len(got), n)
	}
	m.Close()
	mu.Lock()
	defer mu.Unlock()
	var errLines []string
	for _, l := range logged {
		if strings.Contains(l, errDiskFull.Error()) {
			errLines = append(errLines, l)
		}
	}
	if len(errLines) != 1 {
		t.Fatalf("failing PICL destination logged %d lines, want 1: %q", len(errLines), errLines)
	}
}

type syncWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestVisualSink(t *testing.T) {
	vs := visual.NewServer()
	addr, err := vs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	var mu sync.Mutex
	var lines []string
	vs.Register("view", visual.ObjectFunc(func(l string) error {
		mu.Lock()
		lines = append(lines, l)
		mu.Unlock()
		return nil
	}))
	disp := visual.NewDispatcher()
	remote, err := visual.Dial(addr, "view", 256)
	if err != nil {
		t.Fatal(err)
	}
	disp.Attach(remote)

	m := newManager(t, Config{Sinks: []SinkTap{disp}})
	_, region := newNode(t, m, "n", nil)
	s := sensor.New(region, "app", sensor.Options{})
	for i := 0; i < 20; i++ {
		s.Notice2i(5, int32(i), 0)
	}
	drainCursor(t, m, 20, 5*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(lines)
		mu.Unlock()
		if n == 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("visual received %d lines, want 20", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	first := lines[0]
	mu.Unlock()
	if !strings.HasPrefix(first, "-4 5 ") {
		t.Fatalf("line = %q", first)
	}
	disp.Close()
}

func TestClockSyncAdjustsSkewedSlave(t *testing.T) {
	m := newManager(t, Config{
		SyncPeriod:   50 * time.Millisecond,
		ProbeTimeout: time.Second,
	})
	// Two nodes: one on the system clock, one 50 ms behind.
	_, _ = newNode(t, m, "ontime", nil)
	behindRaw := vclock.NewDrift(vclock.System{}, -50_000, 0)
	behind := vclock.NewCorrected(behindRaw)
	eBehind, _ := newNode(t, m, "behind", behind)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := eBehind.Stats(); st.Adjusts > 0 && st.Correction > 40_000 {
			// The slow clock was advanced toward the reference.
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("behind node never corrected: %+v (rounds %d)", eBehind.Stats(), m.Stats().SyncRounds)
}

func TestTachyonTriggersExtraSyncRound(t *testing.T) {
	m := newManager(t, Config{
		Sorter:       ols.Config{InitialT: 1000},
		SyncPeriod:   time.Hour, // periodic rounds effectively off
		ProbeTimeout: time.Second,
	})
	// Node B's clock is far behind, so its consequence to A's reason is
	// stamped before the reason: a tachyon.
	_, regionA := newNode(t, m, "a", nil)
	behind := vclock.NewCorrected(vclock.NewDrift(vclock.System{}, -200_000, 0))
	eB, regionB := newNode(t, m, "b", behind)

	sa := sensor.New(regionA, "app", sensor.Options{})
	sb := sensor.New(regionB, "app", sensor.Options{Clock: behind})

	sa.NoticeReason(1, 42, 0)
	time.Sleep(20 * time.Millisecond) // let the reason flow through
	sb.NoticeConseq(2, 42, 0)

	got := drainCursor(t, m, 2, 10*time.Second)
	if len(got) != 2 {
		t.Fatalf("got %d records (stats %+v)", len(got), m.Stats())
	}
	if got[0].Reason != 42 || got[1].Conseq != 42 {
		t.Fatalf("order wrong: %+v", got)
	}
	if got[1].TS <= got[0].TS {
		t.Fatalf("tachyon not repaired: conseq ts %d ≤ reason ts %d", got[1].TS, got[0].TS)
	}
	st := m.Stats()
	if st.CRE.Tachyons != 1 || st.TachyonSyncs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The extra round should eventually reach the skewed slave.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if eB.Stats().Probes > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("extra sync round never probed the slave")
}

func TestManagerCloseFlushesAndEOF(t *testing.T) {
	m := newManager(t, Config{Sorter: ols.Config{InitialT: 60_000_000}}) // huge T: records held
	_, region := newNode(t, m, "n", nil)
	s := sensor.New(region, "app", sensor.Options{})
	for i := 0; i < 50; i++ {
		s.Notice2i(1, int32(i), 0)
	}
	// Give the EXS time to ship.
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Received < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m.Stats().Received != 50 {
		t.Fatalf("manager received %d", m.Stats().Received)
	}
	cur := m.NewCursor()
	m.Close() // must flush the held records and close the buffer
	count := 0
	for {
		_, _, ok := cur.Next()
		if !ok {
			break
		}
		count++
	}
	if count != 50 {
		t.Fatalf("flushed %d records at close, want 50", count)
	}
}

func TestBadHelloRejected(t *testing.T) {
	m := newManager(t, Config{})
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	wc := wire.NewConn(raw)
	// Wrong first message type.
	if err := wc.Send(&wire.Adjust{DeltaMicros: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Recv(); err == nil {
		t.Fatal("manager acked a non-hello first message")
	}
	if m.Stats().Connected != 0 {
		t.Fatal("bad client counted as connected")
	}
}

func TestEXSStatsAndFlush(t *testing.T) {
	m := newManager(t, Config{})
	e, region := newNode(t, m, "n", nil)
	s := sensor.New(region, "app", sensor.Options{})
	s.Notice6i(1, 1, 2, 3, 4, 5, 6)
	e.Flush()
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Sent == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := e.Stats()
	if st.Sent != 1 || st.Batches == 0 || st.BytesOut == 0 || st.Node == 0 {
		t.Fatalf("exs stats = %+v", st)
	}
}

func TestDialFailsWithoutRegion(t *testing.T) {
	if _, err := exs.Dial(exs.Config{ManagerAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("Dial without region succeeded")
	}
}

func TestManagerDoubleClose(t *testing.T) {
	m := newManager(t, Config{})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAllSinksTogether drives the memory buffer, PICL trace, visual
// dispatch and event filter simultaneously — the full Figure-1 sink
// fan-out.
func TestAllSinksTogether(t *testing.T) {
	vs := visual.NewServer()
	vaddr, err := vs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	var vmu sync.Mutex
	var vlines []string
	vs.Register("v", visual.ObjectFunc(func(l string) error {
		vmu.Lock()
		vlines = append(vlines, l)
		vmu.Unlock()
		return nil
	}))
	disp := visual.NewDispatcher()
	remote, err := visual.Dial(vaddr, "v", 128)
	if err != nil {
		t.Fatal(err)
	}
	disp.Attach(remote)

	var pmu sync.Mutex
	var pbuf bytes.Buffer
	pw := picl.NewWriter(&syncWriter{w: &pbuf, mu: &pmu}, picl.TimeUTC, 0)

	m := newManager(t, Config{
		Sinks:  []SinkTap{pw, disp},
		Filter: func(r *record.Record) bool { return r.Event != 99 },
	})
	_, region := newNode(t, m, "n", nil)
	s := sensor.New(region, "app", sensor.Options{})
	for i := 0; i < 15; i++ {
		s.Notice2i(1, int32(i), 0)
		s.Notice2i(99, int32(i), 0) // filtered everywhere
	}
	got := drainCursor(t, m, 15, 10*time.Second)
	if len(got) != 15 {
		t.Fatalf("memory buffer got %d", len(got))
	}
	for _, r := range got {
		if r.Event == 99 {
			t.Fatal("filtered event reached the memory buffer")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		vmu.Lock()
		n := len(vlines)
		vmu.Unlock()
		if n == 15 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := m.Stats()
	if st.Filtered != 15 {
		t.Fatalf("filtered = %d", st.Filtered)
	}
	if st.EmitLatencyMeanMicros <= 0 {
		t.Fatalf("emit latency not tracked: %+v", st)
	}
	m.Close()
	pmu.Lock()
	lines := strings.Count(pbuf.String(), "\n")
	pmu.Unlock()
	if lines != 15 {
		t.Fatalf("picl lines = %d", lines)
	}
	vmu.Lock()
	vn := len(vlines)
	vmu.Unlock()
	if vn != 15 {
		t.Fatalf("visual lines = %d", vn)
	}
	disp.Close()
}
