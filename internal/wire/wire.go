// Package wire implements BRISK's transfer protocol (TP): the framed,
// XDR-encoded message stream spoken between an external sensor and the
// instrumentation-system manager over a TCP stream socket.
//
// Unlike JEWEL's rpcgen/static-typing use of XDR, BRISK ships each
// dynamically-typed record with a compressed meta-information header (see
// package record); the wire layer adds stream framing and the small
// control vocabulary needed for connection setup, clock synchronization
// and shutdown:
//
//	frame   := length(u32) type(u8) payload
//	payload := XDR encoding of the typed message body
//
// The in-order delivery the manager's per-queue merge relies on is
// inherited from the underlying stream transport.
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"brisk/internal/xdr"
)

// ProtocolVersion is checked in the HELLO exchange. Version 2 added
// session resume (session ids in HELLO, per-batch sequence numbers,
// cumulative DATA_ACKs) and the PING/PONG heartbeat. Version 3 added
// credit-based flow control: HELLO_ACK and DATA_ACK carry a window grant
// (Window field) sized from the manager's sorter headroom. Version 4 adds
// model-based clock sync: ADJUST carries a rate field (RatePPB) and
// HELLO_ACK echoes the version.
//
// The client's HELLO carries its version; a server refuses any other
// version than its own and echoes it in the HELLO_ACK's Version field.
const ProtocolVersion = 4

// MaxFrameBytes bounds one frame; larger declared frames abort the
// connection rather than allocate unboundedly.
const MaxFrameBytes = 1 << 22

// MsgType discriminates frame payloads.
type MsgType uint8

// Message types.
const (
	// MsgHello opens a connection: EXS → ISM.
	MsgHello MsgType = iota + 1
	// MsgHelloAck completes setup and assigns the node id: ISM → EXS.
	MsgHelloAck
	// MsgData carries a batch of concatenated records: EXS → ISM.
	MsgData
	// MsgProbe is a clock-synchronization poll: ISM → EXS.
	MsgProbe
	// MsgProbeReply answers a probe with the slave clock reading.
	MsgProbeReply
	// MsgAdjust tells the slave to advance its clock correction.
	MsgAdjust
	// MsgBye announces orderly shutdown (either direction).
	MsgBye
	// MsgDataAck acknowledges data batches cumulatively by sequence
	// number, letting the sensor release its retransmit buffer: ISM → EXS.
	MsgDataAck
	// MsgPing is a liveness heartbeat: ISM → EXS.
	MsgPing
	// MsgPong answers a heartbeat: EXS → ISM.
	MsgPong
	// MsgRelayData carries a batch of origin-attributed records from a
	// relay-tier ISM to its parent: relay → root.
	MsgRelayData
)

var msgNames = map[MsgType]string{
	MsgHello: "HELLO", MsgHelloAck: "HELLO_ACK", MsgData: "DATA",
	MsgProbe: "PROBE", MsgProbeReply: "PROBE_REPLY", MsgAdjust: "ADJUST",
	MsgBye: "BYE", MsgDataAck: "DATA_ACK", MsgPing: "PING", MsgPong: "PONG",
	MsgRelayData: "RELAY_DATA",
}

// String names the message type.
func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Errors reported by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameBytes")
	ErrUnknownType   = errors.New("wire: unknown message type")
	ErrBadMessage    = errors.New("wire: malformed message body")
)

// Message is one protocol message.
type Message interface {
	// Type returns the frame type code.
	Type() MsgType
	encode(e *xdr.Encoder)
	decode(d *xdr.Decoder) error
}

// Hello opens a connection. The external sensor identifies its node by
// name; the manager assigns the numeric id in HelloAck. Session is a
// node-chosen identifier that survives reconnects; a sensor re-dialing
// after a link failure sets Resume so the manager can reattach the
// existing per-node state instead of minting a new node id. Session 0
// means the client does not participate in session resume.
type Hello struct {
	// Version is the sender's protocol version (ProtocolVersion).
	Version uint32
	// Name is the human-readable node name.
	Name string
	// Session is the node-chosen session identifier; 0 opts out of
	// session resume.
	Session uint64
	// Resume asks the manager to reattach the existing session state.
	Resume bool
}

// Type implements Message.
func (*Hello) Type() MsgType { return MsgHello }

func (m *Hello) encode(e *xdr.Encoder) {
	e.Uint32(m.Version)
	e.String(m.Name)
	e.Uint64(m.Session)
	e.Bool(m.Resume)
}

func (m *Hello) decode(d *xdr.Decoder) error {
	var err error
	if m.Version, err = d.Uint32(); err != nil {
		return err
	}
	if m.Name, err = d.String(); err != nil {
		return err
	}
	if m.Session, err = d.Uint64(); err != nil {
		return err
	}
	m.Resume, err = strictBool(d)
	return err
}

// HelloAck assigns the node id used in batch attribution and trace
// output. Resumed reports that the manager recognized the session and
// reattached it; LastSeq is the highest data-batch sequence number the
// manager has accepted for the session, so the sensor can discard
// already-delivered batches from its retransmit buffer.
type HelloAck struct {
	// Node is the manager-assigned numeric node id.
	Node int32
	// Resumed reports that an existing session was reattached.
	Resumed bool
	// LastSeq is the highest batch sequence the manager has accepted
	// for the session.
	LastSeq uint64
	// Window is the initial credit grant: how many records the sensor may
	// have in flight (sent but unacknowledged) before it must pause.
	// 0 disables flow control (unlimited credit).
	Window uint32
	// Version echoes the protocol version.
	Version uint32
}

// Type implements Message.
func (*HelloAck) Type() MsgType { return MsgHelloAck }

func (m *HelloAck) encode(e *xdr.Encoder) {
	e.Int32(m.Node)
	e.Bool(m.Resumed)
	e.Uint64(m.LastSeq)
	e.Uint32(m.Window)
	e.Uint32(m.Version)
}

func (m *HelloAck) decode(d *xdr.Decoder) error {
	var err error
	if m.Node, err = d.Int32(); err != nil {
		return err
	}
	if m.Resumed, err = strictBool(d); err != nil {
		return err
	}
	if m.LastSeq, err = d.Uint64(); err != nil {
		return err
	}
	if m.Window, err = d.Uint32(); err != nil {
		return err
	}
	m.Version, err = d.Uint32()
	return err
}

// strictBool decodes an XDR boolean but rejects words other than 0 and 1,
// keeping the wire format canonical (every accepted frame re-encodes
// byte-identically, which the fuzz harness checks).
func strictBool(d *xdr.Decoder) (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, fmt.Errorf("wire: non-canonical bool %d", v)
	}
	return v == 1, nil
}

// DataBatch carries Count concatenated records (each self-framed by its
// record meta header) produced by one external sensor. Seq numbers the
// batch within its session (1-based, strictly increasing); the manager
// uses it to discard batches replayed after a session resume. Seq 0 marks
// a batch outside any session (no dedup, no ack expected).
type DataBatch struct {
	// Seq numbers the batch within its session (1-based); 0 marks a
	// sessionless batch.
	Seq uint64
	// Count is the number of records encoded in Payload.
	Count uint32
	// Payload is the concatenated record encoding.
	Payload []byte
}

// Type implements Message.
func (*DataBatch) Type() MsgType { return MsgData }

func (m *DataBatch) encode(e *xdr.Encoder) {
	e.Uint64(m.Seq)
	e.Uint32(m.Count)
	e.Opaque(m.Payload)
}

func (m *DataBatch) decode(d *xdr.Decoder) error {
	var err error
	if m.Seq, err = d.Uint64(); err != nil {
		return err
	}
	if m.Count, err = d.Uint32(); err != nil {
		return err
	}
	// Copy, reusing the message's payload capacity: the frame buffer is
	// reused by the next Recv, and under RecvReuse the message itself is
	// recycled, making a steady batch stream allocation-free.
	m.Payload, err = d.OpaqueInto(m.Payload[:0])
	return err
}

// DataAck acknowledges every data batch of the session with sequence
// number ≤ Seq. The external sensor drops acknowledged batches from its
// retransmit buffer; unacknowledged ones are replayed after a resume.
// Window is a piggybacked credit grant sized from the manager's sorter
// headroom: the sensor may have at most Window records in flight (sent
// but unacknowledged) before it must pause sending. 0 disables flow
// control (unlimited credit); a flow-controlled manager never grants 0 —
// it defers the ack itself instead, so a missing ack is the halt signal.
type DataAck struct {
	// Seq acknowledges every batch with sequence number <= Seq.
	Seq uint64
	// Window grants credit for up to Window in-flight records;
	// 0 disables flow control.
	Window uint32
}

// Type implements Message.
func (*DataAck) Type() MsgType { return MsgDataAck }

func (m *DataAck) encode(e *xdr.Encoder) {
	e.Uint64(m.Seq)
	e.Uint32(m.Window)
}

func (m *DataAck) decode(d *xdr.Decoder) error {
	var err error
	if m.Seq, err = d.Uint64(); err != nil {
		return err
	}
	m.Window, err = d.Uint32()
	return err
}

// RelayBatch carries Count records merged by a relay-tier ISM from its
// regional fleet. Unlike DataBatch — whose records are all attributed to
// the sending session's node — a relay batch interleaves many origin
// nodes, so each record in Payload is prefixed by its 4-byte big-endian
// origin node id (the same entry framing the shm memory buffer uses).
// Seq shares the session's data-batch sequence space: the manager
// dedupes, acks and credits relay batches exactly like data batches, so
// the resume and flow-control machinery applies unchanged.
type RelayBatch struct {
	// Seq numbers the batch within its session (1-based); 0 marks a
	// sessionless batch.
	Seq uint64
	// Count is the number of node-prefixed records encoded in Payload.
	Count uint32
	// Payload is the concatenation of (node id, record) entries.
	Payload []byte
}

// Type implements Message.
func (*RelayBatch) Type() MsgType { return MsgRelayData }

func (m *RelayBatch) encode(e *xdr.Encoder) {
	e.Uint64(m.Seq)
	e.Uint32(m.Count)
	e.Opaque(m.Payload)
}

func (m *RelayBatch) decode(d *xdr.Decoder) error {
	var err error
	if m.Seq, err = d.Uint64(); err != nil {
		return err
	}
	if m.Count, err = d.Uint32(); err != nil {
		return err
	}
	// Copy into reused capacity, mirroring DataBatch.decode.
	m.Payload, err = d.OpaqueInto(m.Payload[:0])
	return err
}

// Ping is a manager-issued heartbeat; the peer answers with a Pong
// echoing Seq. Any received frame counts as liveness, so pings only cost
// traffic on otherwise idle connections.
type Ping struct {
	// Seq identifies the heartbeat; the Pong echoes it.
	Seq uint32
}

// Type implements Message.
func (*Ping) Type() MsgType { return MsgPing }

func (m *Ping) encode(e *xdr.Encoder) { e.Uint32(m.Seq) }

func (m *Ping) decode(d *xdr.Decoder) error {
	var err error
	m.Seq, err = d.Uint32()
	return err
}

// Pong answers a Ping.
type Pong struct {
	// Seq echoes the Ping being answered.
	Seq uint32
}

// Type implements Message.
func (*Pong) Type() MsgType { return MsgPong }

func (m *Pong) encode(e *xdr.Encoder) { e.Uint32(m.Seq) }

func (m *Pong) decode(d *xdr.Decoder) error {
	var err error
	m.Seq, err = d.Uint32()
	return err
}

// Probe is one clock-synchronization poll. MasterSend is the master clock
// at transmission, echoed back so the master can pair replies without
// per-slave state.
type Probe struct {
	// Seq pairs the reply with this probe.
	Seq uint32
	// MasterSend is the master clock (µs) at transmission.
	MasterSend int64
}

// Type implements Message.
func (*Probe) Type() MsgType { return MsgProbe }

func (m *Probe) encode(e *xdr.Encoder) {
	e.Uint32(m.Seq)
	e.Int64(m.MasterSend)
}

func (m *Probe) decode(d *xdr.Decoder) error {
	var err error
	if m.Seq, err = d.Uint32(); err != nil {
		return err
	}
	m.MasterSend, err = d.Int64()
	return err
}

// ProbeReply reports the slave's corrected clock reading at the moment the
// probe was serviced.
type ProbeReply struct {
	// Seq echoes the probe being answered.
	Seq uint32
	// MasterSend echoes the probe's master clock reading.
	MasterSend int64
	// SlaveTime is the slave's corrected clock (µs) when the probe was
	// serviced.
	SlaveTime int64
}

// Type implements Message.
func (*ProbeReply) Type() MsgType { return MsgProbeReply }

func (m *ProbeReply) encode(e *xdr.Encoder) {
	e.Uint32(m.Seq)
	e.Int64(m.MasterSend)
	e.Int64(m.SlaveTime)
}

func (m *ProbeReply) decode(d *xdr.Decoder) error {
	var err error
	if m.Seq, err = d.Uint32(); err != nil {
		return err
	}
	if m.MasterSend, err = d.Int64(); err != nil {
		return err
	}
	m.SlaveTime, err = d.Int64()
	return err
}

// Adjust advances the slave's clock correction by DeltaMicros and,
// under the model-based synchronization master, steers the correction's
// extrapolation rate. The BRISK algorithm only ever advances clocks, so
// DeltaMicros is non-negative in normal operation.
type Adjust struct {
	// DeltaMicros is the amount (µs, ≥ 0 under AlgBRISK) to advance the
	// slave's clock correction by.
	DeltaMicros int64
	// RatePPB sets the slave's correction extrapolation rate in parts
	// per billion (µs gained per 1000 s of raw time; the integer keeps
	// the frame XDR-plain while carrying sub-ppm precision). Negative
	// means "leave the current rate untouched" — the fixed-cadence
	// master always sends -1, so its slaves never extrapolate.
	RatePPB int64
}

// Type implements Message.
func (*Adjust) Type() MsgType { return MsgAdjust }

func (m *Adjust) encode(e *xdr.Encoder) {
	e.Int64(m.DeltaMicros)
	e.Int64(m.RatePPB)
}

func (m *Adjust) decode(d *xdr.Decoder) error {
	var err error
	if m.DeltaMicros, err = d.Int64(); err != nil {
		return err
	}
	m.RatePPB, err = d.Int64()
	return err
}

// Bye announces orderly shutdown.
type Bye struct{}

// Type implements Message.
func (*Bye) Type() MsgType { return MsgBye }

func (*Bye) encode(*xdr.Encoder)       {}
func (*Bye) decode(*xdr.Decoder) error { return nil }

// newMessage allocates an empty body for a frame type.
func newMessage(t MsgType) (Message, error) {
	switch t {
	case MsgHello:
		return &Hello{}, nil
	case MsgHelloAck:
		return &HelloAck{}, nil
	case MsgData:
		return &DataBatch{}, nil
	case MsgProbe:
		return &Probe{}, nil
	case MsgProbeReply:
		return &ProbeReply{}, nil
	case MsgAdjust:
		return &Adjust{}, nil
	case MsgBye:
		return &Bye{}, nil
	case MsgDataAck:
		return &DataAck{}, nil
	case MsgPing:
		return &Ping{}, nil
	case MsgPong:
		return &Pong{}, nil
	case MsgRelayData:
		return &RelayBatch{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
}

// Conn frames messages over any reliable byte stream. Sends are serialized
// by an internal mutex (the external sensor writes data batches and probe
// replies from different goroutines); Recv must be called from a single
// goroutine.
type Conn struct {
	sendMu sync.Mutex
	w      *bufio.Writer
	enc    xdr.Encoder
	hdr    [5]byte

	r       *bufio.Reader
	readBuf []byte
	recvHdr [5]byte // frame-header scratch; a local would escape via c.r
	dec     xdr.Decoder
	cached  [16]Message // per-type bodies recycled by RecvReuse

	bytesOut atomic.Uint64
	bytesIn  atomic.Uint64
}

// BytesOut returns the total frame bytes written, for throughput
// accounting. Safe for concurrent use.
func (c *Conn) BytesOut() uint64 { return c.bytesOut.Load() }

// BytesIn returns the total frame bytes read. Safe for concurrent use.
func (c *Conn) BytesIn() uint64 { return c.bytesIn.Load() }

// NewConn wraps a byte stream.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{
		w: bufio.NewWriterSize(rw, 64<<10),
		r: bufio.NewReaderSize(rw, 64<<10),
	}
}

// Send frames, writes and flushes one message.
func (c *Conn) Send(m Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.enc.Reset()
	m.encode(&c.enc)
	body := c.enc.Bytes()
	n := len(body) + 1
	if n > MaxFrameBytes {
		return ErrFrameTooLarge
	}
	c.hdr[0] = byte(n >> 24)
	c.hdr[1] = byte(n >> 16)
	c.hdr[2] = byte(n >> 8)
	c.hdr[3] = byte(n)
	c.hdr[4] = byte(m.Type())
	if _, err := c.w.Write(c.hdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(body); err != nil {
		return err
	}
	c.bytesOut.Add(uint64(n + 4))
	return c.w.Flush()
}

// Recv reads the next message. The returned message does not alias the
// connection's internal buffers beyond the next Recv for fixed-size
// bodies; DataBatch payloads are copied.
func (c *Conn) Recv() (Message, error) { return c.recv(false) }

// RecvReuse reads the next message into a per-type body cached on the
// connection. The returned message — including any payload slice it
// carries — is only valid until the next RecvReuse of the same type, but a
// steady stream of data batches decodes with zero allocations once the
// cached payload has grown to the working batch size. A caller handing
// the payload to another goroutine can take ownership by swapping a
// replacement buffer into the message before the next RecvReuse. Recv and
// RecvReuse may be mixed freely on one connection.
func (c *Conn) RecvReuse() (Message, error) { return c.recv(true) }

func (c *Conn) recv(reuse bool) (Message, error) {
	hdr := &c.recvHdr
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if n < 1 || n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: declared %d", ErrFrameTooLarge, n)
	}
	t := MsgType(hdr[4])
	body := n - 1
	if cap(c.readBuf) < body {
		c.readBuf = make([]byte, body)
	}
	buf := c.readBuf[:body]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	c.bytesIn.Add(uint64(n + 4))
	var m Message
	if reuse && int(t) < len(c.cached) && c.cached[t] != nil {
		m = c.cached[t]
	} else {
		var err error
		m, err = newMessage(t)
		if err != nil {
			return nil, err
		}
		if reuse && int(t) < len(c.cached) {
			c.cached[t] = m
		}
	}
	c.dec.Reset(buf)
	c.dec.MaxOpaque = MaxFrameBytes
	if err := m.decode(&c.dec); err != nil {
		return nil, fmt.Errorf("%w: %v body: %v", ErrBadMessage, t, err)
	}
	if c.dec.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %v has %d trailing bytes", ErrBadMessage, t, c.dec.Remaining())
	}
	return m, nil
}
