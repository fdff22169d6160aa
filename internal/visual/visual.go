// Package visual reproduces BRISK's on-line visualization hookup: the ISM
// can pass each sorted instrumentation-data record, rendered as a PICL
// string, to a list of remote "visual objects" — components of an
// object-oriented performance-visualization framework.
//
// The paper reaches those objects through MICO, a portable CORBA 2.0
// implementation. CORBA is unavailable here (and beside the point: what
// the paper evaluates is the ISM-side dispatch path), so the substitute is
// a minimal framed TCP protocol that carries the same payloads —
// object-name plus PICL string — with one-way method-call semantics.
// Slow consumers never stall the manager: each remote object has a
// bounded outgoing queue and records are dropped, and counted, when it
// fills (the ISM's event-dropping behaviour).
package visual

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"brisk/internal/picl"
	"brisk/internal/record"
	"brisk/internal/xdr"
)

// MaxCallBytes bounds one framed call.
const MaxCallBytes = 1 << 20

// Object is a visual object: it consumes instrumentation data records as
// PICL strings, exactly the interface the paper's ISM invokes remotely.
type Object interface {
	// ProcessPICL handles one trace line.
	ProcessPICL(line string) error
}

// ObjectFunc adapts a function to the Object interface.
type ObjectFunc func(line string) error

// ProcessPICL implements Object.
func (f ObjectFunc) ProcessPICL(line string) error { return f(line) }

// Server hosts named visual objects and accepts remote calls.
type Server struct {
	mu      sync.RWMutex
	objects map[string]Object
	conns   map[net.Conn]struct{}

	ln     net.Listener
	wg     sync.WaitGroup
	closed atomic.Bool

	// Calls counts delivered calls; Unknown counts calls to unregistered
	// objects.
	Calls   atomic.Uint64
	Unknown atomic.Uint64
}

// NewServer returns a server with no objects registered.
func NewServer() *Server {
	return &Server{
		objects: make(map[string]Object),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Register binds an object name. Registering an existing name replaces it.
func (s *Server) Register(name string, obj Object) {
	s.mu.Lock()
	s.objects[name] = obj
	s.mu.Unlock()
}

// Listen starts accepting calls on addr ("host:port", empty port for
// ephemeral) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	var hdr [4]byte
	buf := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		n := int(xdr.Uint32At(hdr[:]))
		if n <= 0 || n > MaxCallBytes {
			return
		}
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		body := buf[:n]
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		d := xdr.NewDecoder(body)
		d.MaxOpaque = MaxCallBytes
		name, err := d.String()
		if err != nil {
			return
		}
		line, err := d.String()
		if err != nil {
			return
		}
		s.mu.RLock()
		obj, ok := s.objects[name]
		s.mu.RUnlock()
		if !ok {
			s.Unknown.Add(1)
			continue
		}
		s.Calls.Add(1)
		// A misbehaving object must not kill the connection handler.
		_ = safeProcess(obj, line)
	}
}

func safeProcess(obj Object, line string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("visual: object panicked: %v", r)
		}
	}()
	return obj.ProcessPICL(line)
}

// Close stops the listener, disconnects clients, and waits for connection
// handlers to drain.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Remote is the ISM-side proxy for one remote visual object: an
// asynchronous, bounded-queue sender of PICL strings.
type Remote struct {
	name string
	conn net.Conn
	q    chan string
	wg   sync.WaitGroup

	dropped atomic.Uint64
	sent    atomic.Uint64
	dead    atomic.Bool
}

// ErrClosed reports a push on a closed remote.
var ErrClosed = errors.New("visual: remote closed")

// Dial connects to a server and binds the named object. queueLen bounds
// the outgoing buffer (≤ 0 means 1024).
func Dial(addr, name string, queueLen int) (*Remote, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if queueLen <= 0 {
		queueLen = 1024
	}
	r := &Remote{name: name, conn: conn, q: make(chan string, queueLen)}
	r.wg.Add(1)
	go r.sendLoop()
	return r, nil
}

func (r *Remote) sendLoop() {
	defer r.wg.Done()
	enc := xdr.NewEncoder(4096)
	var hdr [4]byte
	for line := range r.q {
		enc.Reset()
		enc.String(r.name)
		enc.String(line)
		body := enc.Bytes()
		xdr.PutUint32(hdr[:], uint32(len(body)))
		// A frozen peer must not wedge Close: bound each write.
		_ = r.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if _, err := r.conn.Write(hdr[:]); err != nil {
			r.dead.Store(true)
			continue // keep draining the queue
		}
		if _, err := r.conn.Write(body); err != nil {
			r.dead.Store(true)
			continue
		}
		r.sent.Add(1)
	}
}

// Push enqueues one PICL line; it never blocks. When the queue is full the
// line is dropped and counted.
func (r *Remote) Push(line string) {
	if r.dead.Load() {
		r.dropped.Add(1)
		return
	}
	select {
	case r.q <- line:
	default:
		r.dropped.Add(1)
	}
}

// Sent returns the number of lines written to the socket.
func (r *Remote) Sent() uint64 { return r.sent.Load() }

// Dropped returns the number of lines dropped at the queue or after the
// connection died.
func (r *Remote) Dropped() uint64 { return r.dropped.Load() }

// Close flushes the queue and closes the connection.
func (r *Remote) Close() error {
	close(r.q)
	r.wg.Wait()
	return r.conn.Close()
}

// Dispatcher fans one PICL stream out to a list of remote objects — the
// "list of CORBA-enabled visual objects" attached to the ISM. It is also
// the manager's visual sink: Publish renders each sorted record once and
// pushes the line to every attached object.
type Dispatcher struct {
	mu      sync.Mutex                // serializes Attach and Close
	remotes atomic.Pointer[[]*Remote] // copy-on-write; nil while none attached

	// Publish scratch, owned by the goroutine delivering the stream.
	line   []byte
	fields [record.MaxFields]record.Value
}

// NewDispatcher returns an empty dispatcher.
func NewDispatcher() *Dispatcher { return &Dispatcher{} }

// list returns the attached remotes with one atomic load.
func (d *Dispatcher) list() []*Remote {
	if p := d.remotes.Load(); p != nil {
		return *p
	}
	return nil
}

// Attach adds a remote object to the fan-out list.
func (d *Dispatcher) Attach(r *Remote) {
	d.mu.Lock()
	rs := d.list()
	rs = append(rs[:len(rs):len(rs)], r)
	d.remotes.Store(&rs)
	d.mu.Unlock()
}

// Len returns the number of attached remotes.
func (d *Dispatcher) Len() int { return len(d.list()) }

// Totals sums sent and dropped line counts across every attached remote.
func (d *Dispatcher) Totals() (sent, dropped uint64) {
	for _, r := range d.list() {
		sent += r.Sent()
		dropped += r.Dropped()
	}
	return sent, dropped
}

// Publish renders one sorted record as a PICL line for every attached
// object; with none attached it costs one atomic load. It is the
// manager's sink hot path, called for one record at a time.
func (d *Dispatcher) Publish(rec *record.Record, _ []byte, _ int64) {
	rs := d.list()
	if len(rs) == 0 {
		return
	}
	line, err := picl.AppendLine(d.line[:0], rec, &d.fields)
	d.line = line
	if err != nil {
		return
	}
	s := string(line)
	for _, r := range rs {
		r.Push(s)
	}
}

// EndFlush is a no-op: every line is pushed as it is rendered.
func (d *Dispatcher) EndFlush() {}

// Close closes every attached remote, returning the first error.
func (d *Dispatcher) Close() error {
	d.mu.Lock()
	rs := d.list()
	d.remotes.Store(nil)
	d.mu.Unlock()
	var first error
	for _, r := range rs {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
