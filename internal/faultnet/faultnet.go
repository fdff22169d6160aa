// Package faultnet is a test-only TCP proxy with scriptable faults, so
// resilience tests can sever, stall, slow, or refuse links at exact,
// reproducible points instead of sleeping and hoping.
//
// A Proxy listens on an ephemeral localhost port and relays every
// accepted connection to a fixed target address. Faults are scripted
// through its methods:
//
//   - CutAfter(n): sever every link once n more upstream (client→server)
//     bytes have been relayed — byte-deterministic mid-stream cuts.
//   - CutNow: sever all active links immediately.
//   - SetAccepting(false): a refuse-accept window — new connections are
//     accepted by the OS listener and instantly closed, so clients see a
//     handshake failure rather than a hung dial.
//   - Stall(true): stop relaying without closing anything, simulating a
//     wedged peer (the half-open-connection case heartbeats exist for).
//   - SetLatency(d): add a fixed one-way delay per relayed read.
//
// All byte counters are monotonic, so tests can anchor CutAfter to the
// current BytesUp reading.
package faultnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is one scriptable relay. Create with Listen, stop with Close.
type Proxy struct {
	ln     net.Listener
	target string

	mu        sync.Mutex
	accepting bool
	latency   time.Duration
	cutBudget int64         // upstream bytes until an automatic cut; -1 disarmed
	unstall   chan struct{} // closed while relaying is allowed
	links     map[*link]struct{}

	bytesUp   atomic.Int64
	bytesDown atomic.Int64
	accepted  atomic.Int64
	refused   atomic.Int64
	cuts      atomic.Int64

	closed atomic.Bool
	wg     sync.WaitGroup
}

// link is one client↔server connection pair.
type link struct {
	client net.Conn
	server net.Conn
	once   sync.Once
}

// sever closes both sides of the link exactly once.
func (l *link) sever() {
	l.once.Do(func() {
		l.client.Close()
		l.server.Close()
	})
}

// Listen starts a proxy relaying to target on an ephemeral localhost
// port.
func Listen(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	unstall := make(chan struct{})
	close(unstall)
	p := &Proxy{
		ln:        ln,
		target:    target,
		accepting: true,
		cutBudget: -1,
		unstall:   unstall,
		links:     make(map[*link]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; point clients here.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// BytesUp returns total client→server bytes relayed.
func (p *Proxy) BytesUp() int64 { return p.bytesUp.Load() }

// BytesDown returns total server→client bytes relayed.
func (p *Proxy) BytesDown() int64 { return p.bytesDown.Load() }

// Accepted returns how many connections were accepted and relayed.
func (p *Proxy) Accepted() int64 { return p.accepted.Load() }

// Refused returns how many connections were turned away by a
// refuse-accept window.
func (p *Proxy) Refused() int64 { return p.refused.Load() }

// Cuts returns how many times the proxy severed its links (CutNow calls
// that found live links, plus triggered CutAfter budgets).
func (p *Proxy) Cuts() int64 { return p.cuts.Load() }

// SetAccepting opens (true) or closes (false) the accept window. While
// closed, new connections are immediately dropped.
func (p *Proxy) SetAccepting(ok bool) {
	p.mu.Lock()
	p.accepting = ok
	p.mu.Unlock()
}

// SetLatency adds a fixed one-way delay to every relayed read in both
// directions. Zero disables.
func (p *Proxy) SetLatency(d time.Duration) {
	p.mu.Lock()
	p.latency = d
	p.mu.Unlock()
}

// Stall pauses (true) or resumes (false) relaying on all links without
// closing them — bytes pile up untransmitted, as on a wedged peer.
func (p *Proxy) Stall(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	stalled := !isClosed(p.unstall)
	if on && !stalled {
		p.unstall = make(chan struct{})
	} else if !on && stalled {
		close(p.unstall)
	}
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// CutAfter arms a one-shot cut: after n more upstream (client→server)
// bytes are relayed, every link is severed. The byte at which the cut
// lands is exact, so a test can cut mid-frame deterministically.
func (p *Proxy) CutAfter(n int64) {
	p.mu.Lock()
	p.cutBudget = n
	p.mu.Unlock()
}

// CutNow severs every active link immediately. The listener stays up, so
// clients may reconnect (subject to the accept window).
func (p *Proxy) CutNow() {
	p.mu.Lock()
	links := make([]*link, 0, len(p.links))
	for l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	if len(links) > 0 {
		p.cuts.Add(1)
	}
	for _, l := range links {
		l.sever()
	}
}

// Close stops accepting, severs all links, and waits for the relay
// goroutines to exit.
func (p *Proxy) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	err := p.ln.Close()
	p.Stall(false) // release pumps blocked on a stall
	p.CutNow()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		ok := p.accepting
		p.mu.Unlock()
		if !ok {
			p.refused.Add(1)
			c.Close()
			continue
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			p.refused.Add(1)
			c.Close()
			continue
		}
		l := &link{client: c, server: s}
		p.mu.Lock()
		if p.closed.Load() {
			p.mu.Unlock()
			l.sever()
			continue
		}
		p.links[l] = struct{}{}
		p.mu.Unlock()
		p.accepted.Add(1)
		p.wg.Add(2)
		go p.shuttle(l, c, s, true)
		go p.shuttle(l, s, c, false)
	}
}

// shuttle relays one direction of a link, applying the scripted faults.
func (p *Proxy) shuttle(l *link, src, dst net.Conn, up bool) {
	defer p.wg.Done()
	defer func() {
		l.sever()
		p.mu.Lock()
		delete(p.links, l)
		p.mu.Unlock()
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.mu.Lock()
			lat := p.latency
			unstall := p.unstall
			p.mu.Unlock()
			<-unstall
			if lat > 0 {
				time.Sleep(lat)
			}
			out := buf[:n]
			cut := false
			if up {
				out, cut = p.chargeUp(out)
				p.bytesUp.Add(int64(len(out)))
			} else {
				p.bytesDown.Add(int64(n))
			}
			if len(out) > 0 {
				if _, werr := dst.Write(out); werr != nil {
					return
				}
			}
			if cut {
				p.cuts.Add(1)
				p.severAll()
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// chargeUp applies the upstream cut budget to a chunk, returning the
// prefix still allowed through and whether the budget just ran out.
func (p *Proxy) chargeUp(b []byte) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cutBudget < 0 {
		return b, false
	}
	if int64(len(b)) < p.cutBudget {
		p.cutBudget -= int64(len(b))
		return b, false
	}
	b = b[:p.cutBudget]
	p.cutBudget = -1 // disarm: one-shot
	return b, true
}

// severAll cuts every link (used when a CutAfter budget triggers).
func (p *Proxy) severAll() {
	p.mu.Lock()
	links := make([]*link, 0, len(p.links))
	for l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	for _, l := range links {
		l.sever()
	}
}
