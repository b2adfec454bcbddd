// Package transport carries protocol messages between Matrix components.
//
// There is one connection type: a framing Conn (protocol codec, per-tick
// batches, byte accounting) over an ordered byte stream. The two Networks
// differ only in the stream they hand it: TCPNetwork (production, used by
// the cmd/ binaries) a socket, MemNetwork (integration tests and anywhere
// real sockets are unnecessary) one end of an in-memory pipe. Wire bytes and
// their accounting are therefore identical by construction — which is what
// lets the simulation harness report the paper's bandwidth microbenchmarks
// faithfully.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"matrix/internal/protocol"
)

// Transport errors.
var (
	ErrClosed      = errors.New("transport: connection closed")
	ErrNoSuchAddr  = errors.New("transport: no listener at address")
	ErrAddrInUse   = errors.New("transport: address already in use")
	ErrListnClosed = errors.New("transport: listener closed")
)

// Conn is a bidirectional, ordered, reliable message pipe.
type Conn interface {
	// Send encodes and transmits one message.
	Send(m protocol.Message) error
	// SendBatch transmits ms in order as a single Batch frame (chunked
	// only if MaxFrameSize forces it; one message is framed directly, so
	// SendBatch of one message costs exactly the same bytes as Send).
	// This is the per-tick amortized path: one frame per connection per
	// tick — peers and game clients alike — instead of one per message.
	SendBatch(ms []protocol.Message) error
	// Recv blocks until a message arrives or the connection closes.
	// Batch frames are unpacked transparently: the contained messages are
	// returned one at a time, in order. A returned message is the caller's,
	// and read-only (a core hands a received Forward's Update on as it is);
	// a GameUpdate or Forward may share its chunk of memory with the ones
	// received before and after it, and keeping it alive keeps that chunk.
	Recv() (protocol.Message, error)
	// Close shuts the connection down; pending Recv calls return ErrClosed.
	Close() error
	// RemoteAddr names the peer for diagnostics.
	RemoteAddr() string
	// BytesSent returns the total payload bytes sent on this connection.
	BytesSent() uint64
	// BytesReceived returns the total payload bytes received.
	BytesReceived() uint64
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept() (Conn, error)
	// Addr returns the address peers should dial.
	Addr() string
	// Close stops accepting; pending Accepts return ErrListnClosed.
	Close() error
}

// Network creates listeners and dials peers. Implementations must be safe
// for concurrent use.
type Network interface {
	// Listen starts accepting at addr ("" lets the implementation choose).
	Listen(addr string) (Listener, error)
	// Dial connects to a listener.
	Dial(addr string) (Conn, error)
}

// TimeoutDialer is implemented by networks whose Dial can enforce a
// deadline natively (TCP). Callers that need a bounded dial should use it
// when available and fall back to racing Dial against a timer otherwise.
type TimeoutDialer interface {
	// DialTimeout connects to a listener, failing after d.
	DialTimeout(addr string, d time.Duration) (Conn, error)
}

// --- the connection ---

// framedConn is the one Conn: protocol framing, batch unpacking and byte
// accounting over any ordered byte stream. TCP hands it a socket, MemNetwork
// one end of an in-memory stream pair; nothing in it knows which.
type framedConn struct {
	rw       io.ReadWriteCloser
	remote   fmt.Stringer
	writeMu  sync.Mutex         // frames must not interleave; also guards encBuf/endsBuf
	encBuf   []byte             // reused encode buffer
	endsBuf  []int              // reused frame-boundary buffer
	readMu   sync.Mutex         // guards readBuf, pending, next and slab
	readBuf  []byte             // reused frame buffer (decoded messages never alias it)
	pending  []protocol.Message // the last frame's messages, decoded in place; pending[next:] not yet returned
	next     int
	slab     protocol.Slab // what the hot messages are carved from; never reused, so nothing to release
	countsMu sync.Mutex
	sent     uint64
	received uint64
}

// newConn sizes the encode buffer for a busy tick's batch up front; grown by
// append it costs every fresh connection some eight doublings to get there.
// The remote name is rendered only if RemoteAddr is ever asked for.
func newConn(rw io.ReadWriteCloser, remote fmt.Stringer) *framedConn {
	return &framedConn{rw: rw, remote: remote, encBuf: make([]byte, 0, 2048)}
}

// maxRetainedBuf caps the bytes a connection keeps between calls, and
// maxRetainedPending its decoded-message slots: one burst tick (a mass
// migration, a huge state transfer) must not pin multi-MB buffers on every
// peer connection forever.
const maxRetainedBuf, maxRetainedPending = 64 << 10, 1024

// retain keeps buf for reuse unless it grew past limit.
func retain[E any](buf []E, limit int) []E {
	if cap(buf) > limit {
		return nil
	}
	return buf[:0]
}

func (c *framedConn) Send(m protocol.Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	frame, err := protocol.AppendEncode(c.encBuf[:0], m)
	if err != nil {
		return err
	}
	c.encBuf = retain(frame, maxRetainedBuf)
	return c.write(frame)
}

func (c *framedConn) SendBatch(ms []protocol.Message) error {
	if len(ms) == 0 {
		return nil
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	// All frames are contiguous in the buffer: one Write regardless of how
	// many Batch frames MaxFrameSize forced, so a chunked batch is never
	// partially delivered. Both scratch buffers are reused, so the
	// steady-state batch send does not allocate.
	out, ends, err := protocol.AppendBatches(c.encBuf[:0], c.endsBuf, ms)
	c.endsBuf = ends[:0]
	if err != nil {
		return err
	}
	c.encBuf = retain(out, maxRetainedBuf)
	return c.write(out)
}

// write sends raw pre-framed bytes and accounts them. Callers hold writeMu.
func (c *framedConn) write(frames []byte) error {
	if _, err := c.rw.Write(frames); err != nil {
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	c.countsMu.Lock()
	c.sent += uint64(len(frames))
	c.countsMu.Unlock()
	return nil
}

// Recv decodes each frame into pending, which only Recv touches, and hands the
// messages out one per call, clearing each slot: a returned one is the caller's.
func (c *framedConn) Recv() (protocol.Message, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	// An empty Batch frame yields nothing and the loop reads on.
	for c.next == len(c.pending) {
		c.pending, c.next = retain(c.pending, maxRetainedPending), 0
		frame, err := protocol.ReadFrame(c.rw, c.readBuf)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrClosed, err)
		}
		c.readBuf = retain(frame, maxRetainedBuf)
		c.countsMu.Lock()
		c.received += uint64(len(frame))
		c.countsMu.Unlock()
		if c.pending, err = protocol.AppendUnmarshal(c.pending, frame, &c.slab); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrClosed, err)
		}
	}
	m := c.pending[c.next]
	c.pending[c.next] = nil
	c.next++
	return m, nil
}

func (c *framedConn) Close() error { return c.rw.Close() }

func (c *framedConn) RemoteAddr() string { return c.remote.String() }

func (c *framedConn) BytesSent() uint64 {
	c.countsMu.Lock()
	defer c.countsMu.Unlock()
	return c.sent
}

func (c *framedConn) BytesReceived() uint64 {
	c.countsMu.Lock()
	defer c.countsMu.Unlock()
	return c.received
}

// --- TCP network ---

// TCPNetwork is the production transport over real sockets.
type TCPNetwork struct{}

// Listen implements Network. An empty addr binds an ephemeral localhost
// port.
func (TCPNetwork) Listen(addr string) (Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{l: l}, nil
}

// Dial implements Network.
func (TCPNetwork) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newConn(c, c.RemoteAddr()), nil
}

// DialTimeout implements TimeoutDialer: a dial to a blackholed address
// fails after d instead of the kernel's (much longer) SYN timeout.
func (TCPNetwork) DialTimeout(addr string, d time.Duration) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newConn(c, c.RemoteAddr()), nil
}

type tcpListener struct {
	l net.Listener
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrListnClosed, err)
	}
	return newConn(c, c.RemoteAddr()), nil
}

func (t *tcpListener) Addr() string { return t.l.Addr().String() }

func (t *tcpListener) Close() error { return t.l.Close() }

// --- in-memory network ---

// MemNetwork is an in-process Network keyed by string addresses. It is the
// transport used by integration tests: the same Conn as TCP over unbounded
// in-memory byte streams instead of sockets.
type MemNetwork struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	nextAuto  int
}

// NewMemNetwork returns an empty in-memory network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{listeners: make(map[string]*memListener)}
}

// Listen implements Network.
func (n *MemNetwork) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" {
		n.nextAuto++
		addr = fmt.Sprintf("mem:%d", n.nextAuto)
	}
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	l := &memListener{
		net:     n,
		addr:    addr,
		backlog: make(chan Conn, 1),
		closed:  make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (n *MemNetwork) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchAddr, addr)
	}
	a2b, b2a := newMemStream(), newMemStream()
	select {
	case l.backlog <- newConn(memEnd{in: a2b, out: b2a}, memAddr("dialer")):
		return newConn(memEnd{in: b2a, out: a2b}, memAddr(addr)), nil
	case <-l.closed:
		return nil, fmt.Errorf("%w: %s", ErrNoSuchAddr, addr)
	}
}

func (n *MemNetwork) remove(addr string) {
	n.mu.Lock()
	delete(n.listeners, addr)
	n.mu.Unlock()
}

type memListener struct {
	net     *MemNetwork
	addr    string
	backlog chan Conn
	closed  chan struct{}
	once    sync.Once
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, ErrListnClosed
	}
}

func (l *memListener) Addr() string { return l.addr }

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.net.remove(l.addr)
	})
	return nil
}

// memStream is one direction of an in-memory connection: an unbounded byte
// FIFO. A write never waits for the reader (the hosts' tick goroutines send
// to peers that may be busy), and bytes written before close are still read.
type memStream struct {
	mu     sync.Mutex
	cond   sync.Cond // signalled on write and close; L is &mu
	buf    []byte
	off    int // buf[:off] is already read
	closed bool
}

func newMemStream() *memStream {
	s := &memStream{}
	s.cond.L = &s.mu
	return s
}

func (s *memStream) write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, io.ErrClosedPipe
	}
	if s.off > 0 && len(s.buf)+len(p) > cap(s.buf) {
		// Reclaim the read prefix before growing: a reader that never quite
		// catches up must not make the buffer grow without bound.
		s.buf, s.off = s.buf[:copy(s.buf, s.buf[s.off:])], 0
	}
	s.buf = append(s.buf, p...)
	s.cond.Signal()
	return len(p), nil
}

func (s *memStream) read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.off == len(s.buf) && !s.closed {
		s.cond.Wait()
	}
	if s.off == len(s.buf) {
		return 0, io.EOF
	}
	n := copy(p, s.buf[s.off:])
	if s.off += n; s.off == len(s.buf) {
		s.buf, s.off = retain(s.buf, maxRetainedBuf), 0
	}
	return n, nil
}

func (s *memStream) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// memAddr names one side of an in-memory connection.
type memAddr string

func (a memAddr) String() string { return string(a) }

// memEnd is one side of an in-memory connection: the io.ReadWriteCloser a
// framedConn drives in place of a socket. Close shuts both directions, so
// either side closing fails the other's next write and ends its reads.
type memEnd struct{ in, out *memStream }

func (e memEnd) Read(p []byte) (int, error)  { return e.in.read(p) }
func (e memEnd) Write(p []byte) (int, error) { return e.out.write(p) }
func (e memEnd) Close() error {
	e.out.close()
	e.in.close()
	return nil
}

var (
	_ Network       = TCPNetwork{}
	_ TimeoutDialer = TCPNetwork{}
	_ Network       = (*MemNetwork)(nil)
	_ Conn          = (*framedConn)(nil)
	_ Listener      = (*tcpListener)(nil)
	_ Listener      = (*memListener)(nil)
)
