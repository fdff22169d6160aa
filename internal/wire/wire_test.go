package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// pipeConns returns two Conns joined by an in-memory duplex pipe.
func pipeConns(t *testing.T) (*Conn, *Conn, func()) {
	t.Helper()
	a, b := net.Pipe()
	return NewConn(a), NewConn(b), func() { a.Close(); b.Close() }
}

func exchange(t *testing.T, m Message) Message {
	t.Helper()
	ca, cb, closeFn := pipeConns(t)
	defer closeFn()
	errCh := make(chan error, 1)
	go func() { errCh <- ca.Send(m) }()
	got, err := cb.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("Send: %v", err)
	}
	return got
}

func TestRoundTripAllMessages(t *testing.T) {
	msgs := []Message{
		&Hello{Version: ProtocolVersion, Name: "node-07"},
		&Hello{Version: ProtocolVersion, Name: "node-07", Session: 0xDEADBEEF, Resume: true},
		&HelloAck{Node: 3},
		&HelloAck{Node: 3, Resumed: true, LastSeq: 42},
		&HelloAck{Node: 3, Resumed: true, LastSeq: 42, Window: 4096},
		&DataBatch{Count: 2, Payload: []byte{1, 2, 3, 4, 5}},
		&DataBatch{Seq: 17, Count: 2, Payload: []byte{1, 2, 3, 4, 5}},
		&RelayBatch{Seq: 23, Count: 1, Payload: []byte{0, 0, 0, 7, 1, 2, 3}},
		&Probe{Seq: 9, MasterSend: 123456789},
		&ProbeReply{Seq: 9, MasterSend: 123456789, SlaveTime: 123456800},
		&Adjust{DeltaMicros: 250},
		&Adjust{DeltaMicros: 250, RatePPB: 12_500},
		&Bye{},
		&DataAck{Seq: 99},
		&DataAck{Seq: 99, Window: 128},
		&Ping{Seq: 7},
		&Pong{Seq: 7},
	}
	for _, m := range msgs {
		got := exchange(t, m)
		if got.Type() != m.Type() {
			t.Fatalf("type mismatch: %v vs %v", got.Type(), m.Type())
		}
		if db, ok := m.(*DataBatch); ok {
			gdb := got.(*DataBatch)
			if gdb.Count != db.Count || !bytes.Equal(gdb.Payload, db.Payload) {
				t.Fatalf("DataBatch mismatch: %+v vs %+v", gdb, db)
			}
			continue
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%v round trip mismatch:\n got %+v\nwant %+v", m.Type(), got, m)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	got := exchange(t, &DataBatch{Count: 0, Payload: nil}).(*DataBatch)
	if got.Count != 0 || len(got.Payload) != 0 {
		t.Fatalf("empty batch = %+v", got)
	}
}

func TestSequenceOfMessages(t *testing.T) {
	ca, cb, closeFn := pipeConns(t)
	defer closeFn()
	go func() {
		ca.Send(&Hello{Version: 1, Name: "n"})
		ca.Send(&DataBatch{Count: 1, Payload: []byte{9, 9}})
		ca.Send(&Bye{})
	}()
	types := []MsgType{MsgHello, MsgData, MsgBye}
	for _, want := range types {
		m, err := cb.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if m.Type() != want {
			t.Fatalf("got %v, want %v", m.Type(), want)
		}
	}
}

func TestDataBatchPayloadIsCopied(t *testing.T) {
	ca, cb, closeFn := pipeConns(t)
	defer closeFn()
	go func() {
		ca.Send(&DataBatch{Count: 1, Payload: []byte("first!")})
		ca.Send(&DataBatch{Count: 1, Payload: []byte("second")})
	}()
	m1, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	p1 := m1.(*DataBatch).Payload
	saved := append([]byte(nil), p1...)
	if _, err := cb.Recv(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1, saved) {
		t.Fatal("first payload mutated by second Recv: message payloads must be copied")
	}
}

func TestUnknownType(t *testing.T) {
	var buf bytes.Buffer
	// length=1, type=200
	buf.Write([]byte{0, 0, 0, 1, 200})
	c := NewConn(readWriter{&buf, io.Discard})
	if _, err := c.Recv(); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgBye)})
	c := NewConn(readWriter{&buf, io.Discard})
	if _, err := c.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}

	// Sending an oversized batch fails locally.
	cs := NewConn(readWriter{strings.NewReader(""), io.Discard})
	big := &DataBatch{Count: 1, Payload: make([]byte, MaxFrameBytes)}
	if err := cs.Send(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Send err = %v, want ErrFrameTooLarge", err)
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	var buf bytes.Buffer
	// Bye with 4 extra body bytes.
	buf.Write([]byte{0, 0, 0, 5, byte(MsgBye), 1, 2, 3, 4})
	c := NewConn(readWriter{&buf, io.Discard})
	if _, err := c.Recv(); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	// Probe declares 13 bytes of body but stream ends early.
	buf.Write([]byte{0, 0, 0, 13, byte(MsgProbe), 0, 0})
	c := NewConn(readWriter{&buf, io.Discard})
	if _, err := c.Recv(); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestEOF(t *testing.T) {
	c := NewConn(readWriter{strings.NewReader(""), io.Discard})
	if _, err := c.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestConcurrentSenders(t *testing.T) {
	ca, cb, closeFn := pipeConns(t)
	defer closeFn()
	const per = 100
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ca.Send(&Probe{Seq: uint32(g*per + i), MasterSend: 1}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(g)
	}
	seen := make(map[uint32]bool)
	for i := 0; i < 4*per; i++ {
		m, err := cb.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		p, ok := m.(*Probe)
		if !ok {
			t.Fatalf("interleaved frame corrupted: got %T", m)
		}
		if seen[p.Seq] {
			t.Fatalf("duplicate seq %d", p.Seq)
		}
		seen[p.Seq] = true
	}
	wg.Wait()
}

func TestByteCounters(t *testing.T) {
	ca, cb, closeFn := pipeConns(t)
	defer closeFn()
	go ca.Send(&Bye{})
	if _, err := cb.Recv(); err != nil {
		t.Fatal(err)
	}
	// A Bye frame is 4 length bytes + 1 type byte with an empty body.
	if ca.BytesOut() != 5 || cb.BytesIn() != 5 {
		t.Fatalf("BytesOut=%d BytesIn=%d, want 5", ca.BytesOut(), cb.BytesIn())
	}
}

// TestVersionGatedFields pins the v4 frame shapes: ADJUST carries the
// 8-byte delta plus the 8-byte rate, HELLO_ACK ends with the version
// echo, and both fields round-trip.
func TestVersionGatedFields(t *testing.T) {
	ca, cb, closeFn := pipeConns(t)
	defer closeFn()

	go ca.Send(&Adjust{DeltaMicros: 7, RatePPB: 2_500})
	m, err := cb.Recv()
	if err != nil {
		t.Fatalf("adjust: %v", err)
	}
	if adj := m.(*Adjust); adj.DeltaMicros != 7 || adj.RatePPB != 2_500 {
		t.Fatalf("ADJUST = %+v, want delta 7 rate 2500", adj)
	}
	// Frame = 4 length + 1 type + 8 delta + 8 rate.
	if got := ca.BytesOut(); got != 21 {
		t.Fatalf("ADJUST frame = %d bytes, want 21", got)
	}

	prev := ca.BytesOut()
	go ca.Send(&HelloAck{Node: 3, LastSeq: 42, Window: 9, Version: ProtocolVersion})
	m, err = cb.Recv()
	if err != nil {
		t.Fatalf("hello ack: %v", err)
	}
	ack := m.(*HelloAck)
	if ack.Node != 3 || ack.LastSeq != 42 || ack.Window != 9 || ack.Version != ProtocolVersion {
		t.Fatalf("HELLO_ACK = %+v", ack)
	}
	// Frame = 5 header + node(4) + resumed(4) + lastseq(8) + window(4) + version(4).
	if got := ca.BytesOut() - prev; got != 29 {
		t.Fatalf("HELLO_ACK frame = %d bytes, want 29", got)
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgData.String() != "DATA" || MsgProbe.String() != "PROBE" {
		t.Error("known names wrong")
	}
	if !strings.Contains(MsgType(99).String(), "99") {
		t.Error("unknown type should include code")
	}
}

type readWriter struct {
	io.Reader
	io.Writer
}

func BenchmarkSendRecvBatch(b *testing.B) {
	// In-memory pipe round trip of a 64-record batch (the EXS default).
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	cs := NewConn(cli)
	cr := NewConn(srv)
	payload := make([]byte, 64*40)
	go func() {
		for {
			if _, err := cr.Recv(); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if err := cs.Send(&DataBatch{Count: 64, Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPropertyMessageStreamRoundTrip sends a random sequence of messages
// through an in-memory stream and verifies every one arrives intact and
// in order.
func TestPropertyMessageStreamRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sent []Message
		var buf bytes.Buffer
		cw := NewConn(readWriter{nil, &buf})
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			var m Message
			switch rng.Intn(11) {
			case 0:
				m = &Hello{Version: rng.Uint32(), Name: randString(rng, 20),
					Session: rng.Uint64(), Resume: rng.Intn(2) == 1}
			case 1:
				m = &HelloAck{Node: int32(rng.Int31()),
					Resumed: rng.Intn(2) == 1, LastSeq: rng.Uint64()}
			case 2:
				p := make([]byte, rng.Intn(200))
				rng.Read(p)
				m = &DataBatch{Seq: rng.Uint64(), Count: uint32(rng.Intn(50)), Payload: p}
			case 3:
				m = &Probe{Seq: rng.Uint32(), MasterSend: rng.Int63() - rng.Int63()}
			case 4:
				m = &ProbeReply{Seq: rng.Uint32(), MasterSend: rng.Int63(), SlaveTime: -rng.Int63()}
			case 5:
				m = &Adjust{DeltaMicros: rng.Int63() - rng.Int63(), RatePPB: rng.Int63() - rng.Int63()}
			case 6:
				m = &DataAck{Seq: rng.Uint64()}
			case 7:
				m = &Ping{Seq: rng.Uint32()}
			case 8:
				m = &Pong{Seq: rng.Uint32()}
			case 9:
				p := make([]byte, rng.Intn(200))
				rng.Read(p)
				m = &RelayBatch{Seq: rng.Uint64(), Count: uint32(rng.Intn(50)), Payload: p}
			default:
				m = &Bye{}
			}
			if err := cw.Send(m); err != nil {
				t.Errorf("send: %v", err)
				return false
			}
			sent = append(sent, m)
		}
		cr := NewConn(readWriter{bytes.NewReader(buf.Bytes()), io.Discard})
		for i, want := range sent {
			got, err := cr.Recv()
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return false
			}
			if got.Type() != want.Type() {
				t.Errorf("msg %d type %v != %v", i, got.Type(), want.Type())
				return false
			}
			if db, ok := want.(*DataBatch); ok {
				g := got.(*DataBatch)
				if g.Count != db.Count || !bytes.Equal(g.Payload, db.Payload) {
					t.Errorf("msg %d batch mismatch", i)
					return false
				}
			} else if rb, ok := want.(*RelayBatch); ok {
				g := got.(*RelayBatch)
				if g.Seq != rb.Seq || g.Count != rb.Count || !bytes.Equal(g.Payload, rb.Payload) {
					t.Errorf("msg %d relay batch mismatch", i)
					return false
				}
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("msg %d mismatch: %+v vs %+v", i, got, want)
				return false
			}
		}
		if _, err := cr.Recv(); !errors.Is(err, io.EOF) {
			t.Errorf("trailing data after stream: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randString(rng *rand.Rand, max int) string {
	b := make([]byte, rng.Intn(max+1))
	for i := range b {
		b[i] = byte(' ' + rng.Intn(95))
	}
	return string(b)
}
