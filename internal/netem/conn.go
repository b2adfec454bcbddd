package netem

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"

	"matrix/internal/protocol"
	"matrix/internal/transport"
)

// Conn wraps a transport.Conn with live (wall-clock) impairment on the
// send side: data-plane messages can be lost, and everything can be
// delayed by the configured latency + jitter. Delayed messages are
// released by a background pump in deadline order, so jitter reorders them
// exactly as it would on a real degraded path. The receive side, the peer
// name and the byte counts (bytes actually transmitted) are the embedded
// conn's — impair both ends' conns to model a bad link both ways.
//
// Send and SendBatch report nil for impaired (dropped or deferred)
// messages, the way a kernel accepts a datagram it may never deliver; a
// later transport failure surfaces on the next call.
type Conn struct {
	transport.Conn // the wrapped connection

	mu      sync.Mutex
	link    LinkConfig
	st      linkState
	q       sendQueue
	seq     uint64
	stats   ConnStats
	closed  bool
	sendErr error

	wake     chan struct{}
	done     chan struct{}
	pumpDone chan struct{}
}

// ConnStats counts one Conn's impairment decisions.
type ConnStats struct {
	// Lost is how many messages the loss models dropped.
	Lost uint64
	// Delayed is how many sends (messages or whole batches) were deferred.
	Delayed uint64
	// Passed is how many messages were accepted for transmission.
	Passed uint64
}

// WrapConn wraps inner with the given impairment. A zero link config
// returns inner unchanged (exact pass-through).
func WrapConn(inner transport.Conn, link LinkConfig, seed int64) transport.Conn {
	if link.Zero() {
		return inner
	}
	c := &Conn{
		Conn:     inner,
		link:     link,
		st:       linkState{rng: Rand{State: mix64(uint64(seed))}},
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		pumpDone: make(chan struct{}),
	}
	go c.pump()
	return c
}

// Stats snapshots the impairment counters.
func (c *Conn) Stats() ConnStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Send implements transport.Conn as SendBatch of one message: one loss
// draw, then one delay draw, and a lone message travels as a plain frame.
func (c *Conn) Send(m protocol.Message) error {
	return c.SendBatch([]protocol.Message{m})
}

// SendBatch implements transport.Conn. Loss is judged per message (the
// models see individual packets), while delay is drawn once for the whole
// batch — it travels as one frame on the wire.
func (c *Conn) SendBatch(ms []protocol.Message) error {
	if len(ms) == 0 {
		return nil
	}
	c.mu.Lock()
	if err := c.usableLocked(); err != nil {
		c.mu.Unlock()
		return err
	}
	keep := make([]protocol.Message, 0, len(ms))
	for _, m := range ms {
		if DataPlane(m) && c.st.judgeLoss(c.link) {
			c.stats.Lost++
			continue
		}
		keep = append(keep, m)
	}
	if len(keep) == 0 {
		c.mu.Unlock()
		return nil
	}
	c.stats.Passed += uint64(len(keep))
	delay := c.delayLocked()
	if delay <= 0 {
		c.mu.Unlock()
		return c.Conn.SendBatch(keep)
	}
	c.stats.Delayed++
	c.pushLocked(time.Now().Add(delay), keep)
	c.mu.Unlock()
	return nil
}

// usableLocked checks for teardown or an earlier asynchronous send error.
func (c *Conn) usableLocked() error {
	if c.closed {
		return transport.ErrClosed
	}
	return c.sendErr
}

// delayLocked draws this send's latency.
func (c *Conn) delayLocked() time.Duration {
	d := c.link.DelayMs
	if c.link.JitterMs > 0 {
		d += c.st.rng.Float() * c.link.JitterMs
	}
	return time.Duration(d * float64(time.Millisecond))
}

// pushLocked queues messages for release at deadline and nudges the pump.
func (c *Conn) pushLocked(at time.Time, ms []protocol.Message) {
	c.seq++
	heap.Push(&c.q, sendEntry{at: at, seq: c.seq, ms: ms})
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// pump releases queued sends in deadline order (FIFO within a deadline).
func (c *Conn) pump() {
	defer close(c.pumpDone)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		c.mu.Lock()
		if len(c.q) == 0 {
			c.mu.Unlock()
			select {
			case <-c.wake:
				continue
			case <-c.done:
				return
			}
		}
		if wait := time.Until(c.q[0].at); wait > 0 {
			c.mu.Unlock()
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-c.wake: // an earlier deadline may have arrived
			case <-c.done:
				return
			}
			continue
		}
		e := heap.Pop(&c.q).(sendEntry)
		c.mu.Unlock()
		if err := c.Conn.SendBatch(e.ms); err != nil {
			c.mu.Lock()
			if c.sendErr == nil {
				c.sendErr = err
			}
			c.mu.Unlock()
		}
	}
}

// Close implements transport.Conn. Messages still queued for delayed
// release are discarded, as a dying link would discard them. The inner
// conn closes before the pump is reaped: a pump blocked mid-write on a
// stalled peer is unblocked by the close, so Close never hangs on it.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
	err := c.Conn.Close()
	<-c.pumpDone
	return err
}

// sendEntry is one deferred send.
type sendEntry struct {
	at  time.Time
	seq uint64
	ms  []protocol.Message
}

// sendQueue is a min-heap of deferred sends ordered by (deadline, seq).
type sendQueue []sendEntry

func (q sendQueue) Len() int { return len(q) }
func (q sendQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q sendQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *sendQueue) Push(x any)   { *q = append(*q, x.(sendEntry)) }
func (q *sendQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1].ms = nil
	*q = old[:n-1]
	return e
}

// Network wraps a transport.Network so every connection it produces —
// dialed or accepted — carries the given impairment. A zero link config
// returns the inner network unchanged. Each connection gets its own PRNG
// stream derived from seed.
func WrapNetwork(inner transport.Network, link LinkConfig, seed int64) transport.Network {
	if link.Zero() {
		return inner
	}
	return &netemNetwork{inner: inner, link: link, seed: seed}
}

type netemNetwork struct {
	inner transport.Network
	link  LinkConfig
	seed  int64
	ctr   atomic.Int64
}

func (n *netemNetwork) connSeed() int64 {
	return int64(mix64(uint64(n.seed) ^ uint64(n.ctr.Add(1))))
}

// Listen implements transport.Network.
func (n *netemNetwork) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &netemListener{inner: l, net: n}, nil
}

// Dial implements transport.Network.
func (n *netemNetwork) Dial(addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return WrapConn(c, n.link, n.connSeed()), nil
}

type netemListener struct {
	inner transport.Listener
	net   *netemNetwork
}

// Accept implements transport.Listener.
func (l *netemListener) Accept() (transport.Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	return WrapConn(c, l.net.link, l.net.connSeed()), nil
}

// Addr implements transport.Listener.
func (l *netemListener) Addr() string { return l.inner.Addr() }

// Close implements transport.Listener.
func (l *netemListener) Close() error { return l.inner.Close() }

var (
	_ transport.Conn     = (*Conn)(nil)
	_ transport.Network  = (*netemNetwork)(nil)
	_ transport.Listener = (*netemListener)(nil)
)
