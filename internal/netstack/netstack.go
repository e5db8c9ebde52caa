// Package netstack implements a small asynchronous request/response
// framework over TCP loopback in the style of Twitter Finagle on Netty,
// used by the finagle-http and finagle-chirper benchmarks (Table 1:
// "network stack, futures, atomics / message-passing"). As in the paper,
// network communication is encoded as multiple threads exercising the
// network stack within a single process over the loopback interface
// (paper §2.2).
//
// The wire protocol is a 4-byte big-endian length prefix followed by the
// payload; a frame goes out in one buffered write and comes in through
// one buffered read (see frameConn). Servers answer each request with a
// service function returning a future; clients multiplex calls over a
// connection pool and return futures.
//
// Both endpoints have fault-tolerant teardown and deadline semantics: the
// server tracks live connections and force-closes them when a graceful
// drain exceeds its DrainTimeout, and the client supports per-call
// deadlines and discards a connection that failed a call, redialing it for
// the next one. A failed call fails its future; the client does not retry.
package netstack

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"renaissance/internal/chaos"
	"renaissance/internal/futures"
	"renaissance/internal/metrics"
)

// MaxFrame bounds a single message; larger frames are rejected as corrupt.
const MaxFrame = 16 << 20

// DefaultDrainTimeout bounds Server.Close's graceful-drain phase (and the
// post-force-close wait) when Server.DrainTimeout is unset.
const DefaultDrainTimeout = 2 * time.Second

// ErrClosed is returned by calls on a closed client or server.
var ErrClosed = errors.New("netstack: closed")

// ErrDrainTimeout is returned by Server.Close when connection handlers are
// still wedged after the live connections were force-closed — e.g. a
// service future that never completes.
var ErrDrainTimeout = errors.New("netstack: drain timeout exceeded")

// Service handles one request and eventually produces a response.
type Service func(req []byte) *futures.Future[[]byte]

// ErrRejected is returned by Client calls whose request the server's
// admission control turned away: MaxPending requests were in flight and
// the bounded accept queue in front of them (Server.MaxQueue) was full.
// The request was never executed.
var ErrRejected = errors.New("netstack: request rejected by admission control")

// rejectPayload is the reserved response payload announcing that
// rejection; the client converts it to ErrRejected. It rides the server's
// "ERR:"-prefix error convention.
var rejectPayload = []byte("ERR:reject")

// frameBuf sizes a connection's read and write buffers. Every request and
// response the workloads exchange fits, so a frame costs one read syscall
// and one write syscall; a larger frame reads its remainder straight into
// its payload and writes it in a second syscall.
const frameBuf = 512

// A frameConn frames one connection through a buffered reader and a
// buffered writer, so a frame's header and payload arrive in one read and
// leave in one write: handled apart, they cost two syscalls each way and,
// with Nagle off, two segments. The write is a plain write, not a writev:
// the race detector models a happens-before edge from a socket write to
// the read that returns its bytes only for write(2), and the server's
// admission limits, set after Serve, reach the connection handlers over
// that edge. Reads and writes may run on different goroutines; concurrent
// writers must serialise themselves.
type frameConn struct {
	rd *bufio.Reader
	wr *bufio.Writer
}

func newFrameConn(rw io.ReadWriter) *frameConn {
	return &frameConn{rd: bufio.NewReaderSize(rw, frameBuf), wr: bufio.NewWriterSize(rw, frameBuf)}
}

// readFrame reads one length-prefixed frame.
func (c *frameConn) readFrame() ([]byte, error) {
	if chaos.Maybe("netstack.read") {
		return nil, chaos.Fail("netstack.read")
	}
	hdr, err := c.rd.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("netstack: frame of %d bytes exceeds limit", n)
	}
	_, _ = c.rd.Discard(4) // cannot fail: Peek buffered the 4 bytes
	metrics.IncArray()
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.rd, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// writeFrame writes one length-prefixed frame.
func (c *frameConn) writeFrame(payload []byte) error {
	if chaos.Maybe("netstack.write") {
		return chaos.Fail("netstack.write")
	}
	// A bufio.Writer's error is sticky: Flush reports any Write failure.
	_, _ = c.wr.Write(binary.BigEndian.AppendUint32(c.wr.AvailableBuffer(), uint32(len(payload))))
	_, _ = c.wr.Write(payload)
	return c.wr.Flush()
}

// Server accepts loopback connections and serves requests with a Service.
type Server struct {
	ln     net.Listener
	svc    Service
	wg     sync.WaitGroup
	closed atomic.Bool
	// DrainTimeout bounds how long Close waits for connections to drain
	// gracefully before force-closing them (DefaultDrainTimeout when 0).
	DrainTimeout time.Duration
	// MaxPending bounds concurrently in-flight requests (accepted but not
	// yet answered) across all connections. 0 disables admission control.
	MaxPending int
	// MaxQueue is the length of the bounded accept queue in front of the
	// MaxPending in-flight limit. Requests arriving while MaxPending are
	// in flight wait in the queue (blocking their connection's read loop —
	// per-connection backpressure); only when the queue itself is full
	// (always, when it is 0) is the request turned away, with the typed
	// rejection ErrRejected. Both limits are latched on the first request,
	// so set them before serving traffic.
	MaxQueue int

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// Requests counts served requests, for benchmark validation.
	Requests atomic.Int64
	// Rejected counts requests turned away by admission control because
	// the accept queue was full. They are not counted in Requests — they
	// never reached the service.
	Rejected atomic.Int64

	queued    atomic.Int64  // admission-queue occupancy
	admitOnce sync.Once     // latches MaxPending/MaxQueue into admitSem
	admitSem  chan struct{} // in-flight permits; nil when MaxPending == 0
	closing   chan struct{} // closed by Close; unblocks queued waiters
}

// Serve starts a server on the given address ("127.0.0.1:0" picks a free
// port).
func Serve(addr string, svc Service) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln: ln, svc: svc,
		conns:   make(map[net.Conn]struct{}),
		closing: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			_ = conn.Close() // lost the race with Close
			continue
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// track registers a live connection; it refuses (and the caller closes the
// conn) when the server is already shutting down, so no connection can slip
// past the force-close in Close.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// admission returns the in-flight permit semaphore, latching MaxPending on
// first use (nil when admission control is disabled).
func (s *Server) admission() chan struct{} {
	s.admitOnce.Do(func() {
		if s.MaxPending > 0 {
			s.admitSem = make(chan struct{}, s.MaxPending)
		}
	})
	return s.admitSem
}

// admitVerdict is the fate of one request under admission control.
type admitVerdict int

const (
	admitServe   admitVerdict = iota // request holds an in-flight permit
	admitReject                      // admission queue full: typed rejection
	admitClosing                     // server shutting down while queued
)

// admit applies admission control to one request: a free in-flight permit
// admits it immediately; otherwise, if the bounded accept queue
// (MaxQueue) has room, the request waits in it for a permit — blocking
// this connection's read loop, which is the backpressure — and only a
// full queue turns the request away.
func (s *Server) admit() admitVerdict {
	sem := s.admission()
	if sem == nil {
		return admitServe
	}
	select {
	case sem <- struct{}{}:
		return admitServe
	default:
	}
	if s.queued.Add(1) <= int64(s.MaxQueue) {
		defer s.queued.Add(-1)
		metrics.IncPark()
		select {
		case sem <- struct{}{}:
			return admitServe
		case <-s.closing:
			return admitClosing
		}
	}
	s.queued.Add(-1)
	return admitReject
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()
	fc := newFrameConn(conn)
	var writeMu sync.Mutex // serialises fc's writers
	var pending sync.WaitGroup
loop:
	for {
		req, err := fc.readFrame()
		if err != nil {
			break
		}
		switch s.admit() {
		case admitReject:
			// The accept queue in front of the service is full: answer
			// immediately with the rejection marker instead of queueing
			// behind the service. A rejected request is a dropped message
			// in the fault-path accounting.
			s.Rejected.Add(1)
			metrics.IncDeadLetter()
			metrics.IncSynch()
			writeMu.Lock()
			_ = fc.writeFrame(rejectPayload)
			writeMu.Unlock()
			continue
		case admitClosing:
			break loop
		}
		metrics.IncAtomic()
		s.Requests.Add(1)
		metrics.IncIDynamic()
		fut := s.svc(req)
		pending.Add(1)
		fut.OnComplete(func(resp []byte, err error) {
			defer pending.Done()
			if sem := s.admitSem; sem != nil {
				<-sem
			}
			if err != nil {
				resp = append([]byte("ERR:"), err.Error()...)
			}
			metrics.IncSynch()
			writeMu.Lock()
			defer writeMu.Unlock()
			_ = fc.writeFrame(resp)
		})
	}
	pending.Wait()
}

// Close stops accepting and tears the server down in two bounded phases:
// it first waits up to DrainTimeout for connections to drain gracefully
// (clients disconnecting on their own), then force-closes every live
// connection — unblocking handlers stuck in readFrame on peers that never
// disconnect — and waits up to DrainTimeout again for the handlers to
// finish. ErrDrainTimeout is returned if they still have not.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.closing) // unblock requests waiting in the admission queue
	err := s.ln.Close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	drain := s.DrainTimeout
	if drain <= 0 {
		drain = DefaultDrainTimeout
	}
	timer := time.NewTimer(drain)
	defer timer.Stop()
	select {
	case <-done:
		return err
	case <-timer.C:
	}

	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()

	timer.Reset(drain)
	select {
	case <-done:
		return err
	case <-timer.C:
		return ErrDrainTimeout
	}
}

// poolConn is one pool slot. Exactly poolSize tokens circulate through the
// pool channel, so a slot whose connection died (conn == nil) is redialed
// lazily by the next caller instead of shrinking the pool.
type poolConn struct {
	conn net.Conn
	fc   *frameConn // frames conn; replaced with it on redial
}

// attach makes conn the slot's connection.
func (pc *poolConn) attach(conn net.Conn) {
	pc.conn = conn
	pc.fc = newFrameConn(conn)
}

// Client issues requests to a server over a pool of connections. Each
// pooled connection carries one request at a time (like a Finagle
// connection-pool client without HTTP/2-style multiplexing).
type Client struct {
	addr string
	pool chan *poolConn
	// Timeout bounds each round trip (frame write + response read) when
	// > 0; a timed-out connection is discarded and redialed.
	Timeout time.Duration
	// Rejected counts the responses the server answered with the
	// admission-control rejection marker.
	Rejected atomic.Int64

	closed atomic.Bool
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
}

// Dial creates a client with the given connection-pool size.
func Dial(addr string, poolSize int) (*Client, error) {
	if poolSize <= 0 {
		poolSize = 4
	}
	c := &Client{
		addr:  addr,
		pool:  make(chan *poolConn, poolSize),
		conns: make(map[net.Conn]struct{}),
	}
	for i := 0; i < poolSize; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		c.track(conn)
		pc := &poolConn{}
		pc.attach(conn)
		c.pool <- pc
	}
	return c, nil
}

func (c *Client) track(conn net.Conn) {
	c.mu.Lock()
	c.conns[conn] = struct{}{}
	c.mu.Unlock()
}

// acquire checks a slot out of the pool, redialing its connection if a
// previous error discarded it. ErrClosed means the client was closed.
func (c *Client) acquire() (*poolConn, error) {
	metrics.IncPark()
	pc, ok := <-c.pool
	if !ok {
		return nil, ErrClosed
	}
	if pc.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			c.release(pc) // return the token so the pool does not shrink
			return nil, err
		}
		c.track(conn)
		pc.attach(conn)
	}
	return pc, nil
}

// release returns a slot to the pool. If the client was closed meanwhile
// the slot's connection is torn down instead; the pool channel is only
// ever sent to under mu and before Close closes it, so the send cannot
// panic. The channel is buffered to the token count, so the send cannot
// block either.
func (c *Client) release(pc *poolConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		if pc.conn != nil {
			delete(c.conns, pc.conn)
			_ = pc.conn.Close()
			pc.conn = nil
		}
		return
	}
	c.pool <- pc
}

// discard drops a slot's broken connection and returns the empty token to
// the pool for lazy redial.
func (c *Client) discard(pc *poolConn) {
	c.mu.Lock()
	if pc.conn != nil {
		delete(c.conns, pc.conn)
		_ = pc.conn.Close()
		pc.conn = nil
	}
	c.mu.Unlock()
	c.release(pc)
}

// Call sends the request and returns a future of the response. The request
// runs on its own goroutine; ordering across concurrent calls is not
// defined, matching asynchronous RPC clients. The round trip is bounded by
// the client's Timeout; a dial or IO error fails the future and discards
// the connection, and a request admission control turned away fails it
// with ErrRejected.
func (c *Client) Call(req []byte) *futures.Future[[]byte] {
	p := futures.NewPromise[[]byte]()
	if c.closed.Load() {
		_ = p.Failure(ErrClosed)
		return p.Future()
	}
	go func() {
		pc, err := c.acquire()
		if err != nil {
			_ = p.Failure(err)
			return
		}
		resp, err := c.roundTrip(pc, req)
		switch {
		case err != nil:
			c.discard(pc)
			_ = p.Failure(err)
		case bytes.Equal(resp, rejectPayload):
			// The server answered, so the connection is healthy and
			// stays pooled.
			c.Rejected.Add(1)
			c.release(pc)
			_ = p.Failure(ErrRejected)
		default:
			// Return the connection before completing so dependent
			// calls in the continuation can acquire it.
			c.release(pc)
			_ = p.Success(resp)
		}
	}()
	return p.Future()
}

// roundTrip performs one request/response exchange, applying the client's
// per-call deadline when set.
func (c *Client) roundTrip(pc *poolConn, req []byte) ([]byte, error) {
	if c.Timeout > 0 {
		if err := pc.conn.SetDeadline(time.Now().Add(c.Timeout)); err != nil {
			return nil, err
		}
		defer pc.conn.SetDeadline(time.Time{})
	}
	if err := pc.fc.writeFrame(req); err != nil {
		return nil, err
	}
	return pc.fc.readFrame()
}

// CallSync is a convenience blocking round trip.
func (c *Client) CallSync(req []byte) ([]byte, error) {
	return c.Call(req).Await()
}

// Close tears down the pool. In-flight calls observe a connection error or
// ErrClosed; their slots are torn down on release instead of re-entering
// the pool. Closing the pool channel makes any Call parked in acquire fail
// with ErrClosed instead of waiting forever.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	close(c.pool)
	for pc := range c.pool { // drain idle tokens
		pc.conn = nil
	}
	for conn := range c.conns {
		_ = conn.Close()
	}
	c.conns = nil
	return nil
}
