// Package transport carries protocol messages between Matrix components.
//
// Two interchangeable implementations are provided behind the Network
// interface: TCP (production mode, used by the cmd/ binaries) and an
// in-memory network (used by integration tests and anywhere real sockets
// are unnecessary). Both frame messages with the protocol codec, so byte
// counts are identical across the two — which is what lets the simulation
// harness report the paper's bandwidth microbenchmarks faithfully.
package transport

import (
	"errors"
	"fmt"
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
	// returned one at a time, in order.
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

// --- TCP implementation ---

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
	return newTCPConn(c), nil
}

// DialTimeout implements TimeoutDialer: a dial to a blackholed address
// fails after d instead of the kernel's (much longer) SYN timeout.
func (TCPNetwork) DialTimeout(addr string, d time.Duration) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPConn(c), nil
}

type tcpListener struct {
	l net.Listener
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrListnClosed, err)
	}
	return newTCPConn(c), nil
}

func (t *tcpListener) Addr() string { return t.l.Addr().String() }

func (t *tcpListener) Close() error { return t.l.Close() }

// pendingMsgs drains received Batch frames one message at a time. Both
// Conn implementations share it so the unpack semantics (consumed slots
// cleared, empty batches yield nothing, pending drained before the next
// frame) cannot diverge between the transports the byte-parity tests
// hold equal. Callers synchronize access with their receive mutex.
type pendingMsgs struct{ q []protocol.Message }

// pop returns the next pending message, if any.
func (p *pendingMsgs) pop() (protocol.Message, bool) {
	if len(p.q) == 0 {
		return nil, false
	}
	m := p.q[0]
	p.q[0] = nil
	p.q = p.q[1:]
	return m, true
}

// absorb stashes a Batch's contents and reports whether m was one (the
// caller then loops back to pop; an empty batch legitimately yields
// nothing).
func (p *pendingMsgs) absorb(m protocol.Message) bool {
	b, ok := m.(*protocol.Batch)
	if ok {
		p.q = b.Msgs
	}
	return ok
}

type tcpConn struct {
	c        net.Conn
	writeMu  sync.Mutex // frames must not interleave; also guards encBuf/endsBuf
	encBuf   []byte     // reused encode buffer
	endsBuf  []int      // reused frame-boundary buffer
	readMu   sync.Mutex // guards readBuf and pending
	readBuf  []byte     // reused frame buffer (decoded messages never alias it)
	pending  pendingMsgs
	countsMu sync.Mutex
	sent     uint64
	received uint64
}

// newTCPConn sizes the encode buffer for a busy tick's batch up front; grown
// by append it costs every fresh connection some eight doublings to get there.
func newTCPConn(c net.Conn) *tcpConn { return &tcpConn{c: c, encBuf: make([]byte, 0, 2048)} }

// maxRetainedBuf caps the encode/read buffers a connection keeps between
// calls: one burst tick (a mass migration, a huge state transfer) must not
// pin multi-MB buffers on every peer connection forever.
const maxRetainedBuf = 64 << 10

// retain keeps buf for reuse unless it grew past maxRetainedBuf.
func retain(buf []byte) []byte {
	if cap(buf) > maxRetainedBuf {
		return nil
	}
	return buf[:0]
}

func (t *tcpConn) Send(m protocol.Message) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	frame, err := protocol.AppendEncode(t.encBuf[:0], m)
	if err != nil {
		return err
	}
	t.encBuf = retain(frame)
	return t.write(frame)
}

func (t *tcpConn) SendBatch(ms []protocol.Message) error {
	if len(ms) == 0 {
		return nil
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	// All frames are contiguous in the buffer: one Write regardless of how
	// many Batch frames MaxFrameSize forced. Both scratch buffers are
	// reused, so the steady-state batch send does not allocate.
	out, ends, err := protocol.AppendBatches(t.encBuf[:0], t.endsBuf, ms)
	t.endsBuf = ends[:0]
	if err != nil {
		return err
	}
	t.encBuf = retain(out)
	return t.write(out)
}

// write sends raw pre-framed bytes and accounts them. Callers hold writeMu.
func (t *tcpConn) write(frames []byte) error {
	if _, err := t.c.Write(frames); err != nil {
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	t.countsMu.Lock()
	t.sent += uint64(len(frames))
	t.countsMu.Unlock()
	return nil
}

func (t *tcpConn) Recv() (protocol.Message, error) {
	t.readMu.Lock()
	defer t.readMu.Unlock()
	for {
		if m, ok := t.pending.pop(); ok {
			return m, nil
		}
		frame, err := protocol.ReadFrame(t.c, t.readBuf)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrClosed, err)
		}
		t.readBuf = retain(frame)
		t.countsMu.Lock()
		t.received += uint64(len(frame))
		t.countsMu.Unlock()
		m, err := protocol.Unmarshal(frame)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrClosed, err)
		}
		if !t.pending.absorb(m) {
			return m, nil
		}
	}
}

func (t *tcpConn) Close() error { return t.c.Close() }

func (t *tcpConn) RemoteAddr() string { return t.c.RemoteAddr().String() }

func (t *tcpConn) BytesSent() uint64 {
	t.countsMu.Lock()
	defer t.countsMu.Unlock()
	return t.sent
}

func (t *tcpConn) BytesReceived() uint64 {
	t.countsMu.Lock()
	defer t.countsMu.Unlock()
	return t.received
}

// --- in-memory implementation ---

// MemNetwork is an in-process Network keyed by string addresses. It is the
// transport used by integration tests: identical framing and byte counts to
// TCP with no sockets.
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
		backlog: make(chan *memConn, 1),
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
	client, server := newMemPair(addr, "dialer")
	select {
	case l.backlog <- server:
		return client, nil
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
	backlog chan *memConn
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

// memQueue is an unbounded FIFO of frames with close semantics.
type memQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames [][]byte
	closed bool
}

func newMemQueue() *memQueue {
	q := &memQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// pushAll enqueues every frame or none (connection closed), mirroring the
// TCP side's single contiguous Write: a chunked batch is never partially
// delivered.
func (q *memQueue) pushAll(frames [][]byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.frames = append(q.frames, frames...)
	q.cond.Broadcast()
	return nil
}

func (q *memQueue) pop() ([]byte, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.frames) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.frames) == 0 {
		return nil, ErrClosed
	}
	f := q.frames[0]
	q.frames = q.frames[1:]
	return f, nil
}

func (q *memQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// memConn is one side of an in-memory connection pair.
type memConn struct {
	out      *memQueue
	in       *memQueue
	remote   string
	peer     *memConn
	recvMu   sync.Mutex // guards pending (queue pops are ordered under it)
	pending  pendingMsgs
	countsMu sync.Mutex
	sent     uint64
	received uint64
}

func newMemPair(listenerAddr, dialerName string) (client, server *memConn) {
	a2b := newMemQueue()
	b2a := newMemQueue()
	client = &memConn{out: a2b, in: b2a, remote: listenerAddr}
	server = &memConn{out: b2a, in: a2b, remote: dialerName}
	client.peer = server
	server.peer = client
	return client, server
}

// Send is SendBatch of one message: AppendBatches frames a lone message
// directly, so the bytes and their accounting are a plain frame's.
func (c *memConn) Send(m protocol.Message) error {
	return c.SendBatch([]protocol.Message{m})
}

func (c *memConn) SendBatch(ms []protocol.Message) error {
	if len(ms) == 0 {
		return nil
	}
	// The queue retains pushed frames, so they are encoded into a fresh
	// buffer (no reuse) and split at the frame boundaries AppendBatches
	// reports — byte accounting stays identical to the TCP implementation:
	// the total is the same contiguous encoding TCP writes, delivered
	// all-or-nothing.
	out, ends, err := protocol.AppendBatches(nil, nil, ms)
	if err != nil {
		return err
	}
	frames := make([][]byte, len(ends))
	start := 0
	for i, end := range ends {
		frames[i] = out[start:end]
		start = end
	}
	if err := c.out.pushAll(frames); err != nil {
		return err
	}
	c.countsMu.Lock()
	c.sent += uint64(len(out))
	c.countsMu.Unlock()
	return nil
}

func (c *memConn) Recv() (protocol.Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	for {
		if m, ok := c.pending.pop(); ok {
			return m, nil
		}
		frame, err := c.in.pop()
		if err != nil {
			return nil, err
		}
		c.countsMu.Lock()
		c.received += uint64(len(frame))
		c.countsMu.Unlock()
		m, err := protocol.Unmarshal(frame)
		if err != nil {
			return nil, err
		}
		if !c.pending.absorb(m) {
			return m, nil
		}
	}
}

func (c *memConn) Close() error {
	c.out.close()
	c.in.close()
	return nil
}

func (c *memConn) RemoteAddr() string { return c.remote }

func (c *memConn) BytesSent() uint64 {
	c.countsMu.Lock()
	defer c.countsMu.Unlock()
	return c.sent
}

func (c *memConn) BytesReceived() uint64 {
	c.countsMu.Lock()
	defer c.countsMu.Unlock()
	return c.received
}

var (
	_ Network       = TCPNetwork{}
	_ TimeoutDialer = TCPNetwork{}
	_ Network       = (*MemNetwork)(nil)
	_ Conn          = (*tcpConn)(nil)
	_ Conn          = (*memConn)(nil)
	_ Listener      = (*tcpListener)(nil)
	_ Listener      = (*memListener)(nil)
)
