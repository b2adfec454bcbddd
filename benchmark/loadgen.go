package main

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"matrix/internal/geom"
	"matrix/internal/host"
	"matrix/internal/id"
	"matrix/internal/protocol"
	"matrix/internal/transport"
)

// rng is splitmix64: the generator's only randomness, seeded from --seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// f64 is uniform in [0,1).
func (r *rng) f64() float64 { return float64(r.next()>>11) / (1 << 53) }

// disc is a point uniform in the disc of the given radius around c.
func (r *rng) disc(c geom.Point, radius float64) geom.Point {
	a, d := r.f64()*2*math.Pi, math.Sqrt(r.f64())*radius
	return geom.Pt(c.X+d*math.Cos(a), c.Y+d*math.Sin(a))
}

// clock is the generator's time base: nanoseconds since base, mapped onto
// the Unix epoch for GameUpdate.SentUnix.
type clock struct {
	base     time.Time
	baseUnix int64
}

func newClock() clock {
	now := time.Now()
	return clock{base: now, baseUnix: now.UnixNano()}
}

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// recorder is the state every tap shares: the time base, the measurement
// windows and which server each slot's client is attached to.
type recorder struct {
	clock
	t0       atomic.Int64 // measurement start (ns on the clock); 0 = warming up
	winNs    int64
	wins     int
	serverOf []atomic.Uint32 // by slot, from the last ClientWelcome
}

// slotOf maps a client id back to its generator slot (ids are
// slot+1 + 1000*generation, see loadgen.join).
func slotOf(c id.ClientID) int { return int((uint64(c) - 1) % 1000) }

const maxLatNs = math.MaxInt32 // latencies are stored as int32 ns (clamped at 2.1 s)

// tap is one game client's view of the wire: a transport.Network decorator
// (like netem.WrapNetwork) whose connections stamp every Recv. Everything
// the benchmark knows about deliveries, echoes, handoffs and bytes is
// observed here, outside the system under test.
type tap struct {
	rec  *recorder
	slot int
	home geom.Point
	// farDist, when positive, is the farthest an update's origin and dest
	// may both be from home for a delivery to be legitimate.
	farDist float64

	mu           sync.Mutex
	cid          id.ClientID
	conns        []transport.Conn
	deliveries   uint64    // every GameUpdate received, warm-up included
	echoOK       uint64    // own updates echoed within a second of their due time
	far          uint64    // deliveries that violated farDist
	win          [][]int32 // per window: latency of every delivery (ns)
	echo, xsrv   []int32   // measured phase: own echoes / deliveries that crossed a peer link
	redirectAt   int64     // pending handoff start (0 = none)
	redirects    uint64
	handoffs     [][]int32 // per window: Redirect → ClientWelcome (ns)
	slowHandoffs uint64    // welcomed later than a second after the redirect
}

func newTap(rec *recorder, slot int, farDist float64) *tap {
	return &tap{rec: rec, slot: slot, farDist: farDist,
		win: make([][]int32, rec.wins), handoffs: make([][]int32, rec.wins)}
}

// Listen implements transport.Network; clients never listen.
func (t *tap) Listen(string) (transport.Listener, error) {
	return nil, errors.New("tap: clients do not listen")
}

// Dial implements transport.Network over loopback TCP.
func (t *tap) Dial(addr string) (transport.Conn, error) {
	c, err := transport.TCPNetwork{}.Dial(addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.conns = append(t.conns, c)
	t.mu.Unlock()
	return &tapConn{Conn: c, t: t}, nil
}

// bytesReceived sums wire bytes over every connection this client opened.
func (t *tap) bytesReceived() (n uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.conns {
		n += c.BytesReceived()
	}
	return n
}

// window returns the measurement window holding clock time at, or -1.
func (r *recorder) window(at int64) int {
	t0 := r.t0.Load()
	if t0 == 0 || at < t0 {
		return -1
	}
	if w := int((at - t0) / r.winNs); w < r.wins {
		return w
	}
	return -1
}

type tapConn struct {
	transport.Conn
	t *tap
}

func clampLat(ns int64) int32 {
	if ns > maxLatNs {
		return maxLatNs
	}
	if ns < 0 {
		return 0
	}
	return int32(ns)
}

func (c *tapConn) Recv() (protocol.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	t := c.t
	at := t.rec.now()
	switch msg := m.(type) {
	case *protocol.GameUpdate:
		lat := at - (msg.SentUnix - t.rec.baseUnix)
		w := t.rec.window(at)
		t.mu.Lock()
		t.deliveries++
		own := msg.Client == t.cid
		if own && lat <= int64(time.Second) {
			t.echoOK++
		}
		if t.farDist > 0 && t.home.Sub(msg.Origin).Norm() > t.farDist && t.home.Sub(msg.Dest).Norm() > t.farDist {
			t.far++
		}
		if w >= 0 {
			l := clampLat(lat)
			t.win[w] = append(t.win[w], l)
			switch {
			case own:
				t.echo = append(t.echo, l)
			case t.rec.serverOf[slotOf(msg.Client)].Load() != t.rec.serverOf[t.slot].Load():
				t.xsrv = append(t.xsrv, l)
			}
		}
		t.mu.Unlock()
	case *protocol.Redirect:
		t.mu.Lock()
		t.redirects++
		if t.redirectAt == 0 {
			t.redirectAt = at
		}
		t.mu.Unlock()
	case *protocol.ClientWelcome:
		t.rec.serverOf[t.slot].Store(uint32(msg.Server))
		t.mu.Lock()
		if t.redirectAt != 0 {
			d := at - t.redirectAt
			if d > int64(time.Second) {
				t.slowHandoffs++
			}
			if w := t.rec.window(at); w >= 0 {
				t.handoffs[w] = append(t.handoffs[w], clampLat(d))
			}
			t.redirectAt = 0
		}
		t.mu.Unlock()
	}
	return m, nil
}

// slot is one scheduled sender position: a client (or, on live-hotspot,
// the successive crowd clients that occupy it) and its movement state.
type slot struct {
	tap    *tap
	host   atomic.Pointer[host.ClientHost]
	active atomic.Bool

	// Owned by the sending goroutine.
	home   geom.Point
	pos    geom.Point
	target geom.Point // roaming waypoint
	roam   bool
	rng    rng
	sent   uint64
}

// loadgen is the open-loop generator: one goroutine walks a fixed schedule
// — slot k mod N is due at start + k·interval — and never waits for an
// echo. Every update is stamped with its due time, so a stall charges each
// later update the wait it caused, and how late the generator itself ran
// is reported (late).
type loadgen struct {
	rec      *recorder
	slots    []*slot
	interval time.Duration
	jitter   float64 // movement disc around home
	stride   float64 // roaming step per update
	payload  []byte

	sent     uint64
	sendErrs uint64
	late     []int32 // per measured update: send start − due (ns)
	// sample keeps the first sampleSize updates sent: the workload's own
	// traffic, replayed by the layer probes.
	sample []*protocol.GameUpdate
}

const sampleSize = 10000

// nextPos advances a slot's movement model by one update.
func (g *loadgen) nextPos(s *slot) geom.Point {
	if !s.roam {
		return s.rng.disc(s.home, g.jitter)
	}
	d := s.target.Sub(s.pos)
	if d.Norm() <= g.stride {
		s.target = geom.Pt(world.MinX+5+s.rng.f64()*(world.Width()-10), world.MinY+5+s.rng.f64()*(world.Height()-10))
		return s.pos
	}
	return s.pos.Add(d.Scale(g.stride / d.Norm()))
}

// run sends until stop closes. start is on the recorder's clock. The
// goroutine keeps an OS thread to itself and sleeps in nanosleep(2): the Go
// timer wheel rounds a sub-millisecond sleep up to a millisecond when the
// process is otherwise idle, which would make every update late.
func (g *loadgen) run(start int64, stop <-chan struct{}) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	n := int64(len(g.slots))
	for k := int64(0); ; k++ {
		select {
		case <-stop:
			return
		default:
		}
		due := start + k*int64(g.interval)
		// A signal (the runtime preempts with SIGURG) ends nanosleep early.
		for wait := due - g.rec.now(); wait > 0; wait = due - g.rec.now() {
			ts := syscall.NsecToTimespec(wait)
			_ = syscall.Nanosleep(&ts, nil)
		}
		s := g.slots[k%n]
		if !s.active.Load() {
			continue
		}
		h := s.host.Load()
		if h == nil {
			continue
		}
		begun := g.rec.now()
		s.pos = g.nextPos(s)
		u := h.Client().MakeMove(s.pos)
		u.SentUnix = g.rec.baseUnix + due
		u.Payload = g.payload
		err := h.Send(u)
		g.sent++
		s.sent++
		if err != nil {
			g.sendErrs++
		}
		if g.rec.window(due) >= 0 {
			g.late = append(g.late, clampLat(begun-due))
		}
		if len(g.sample) < sampleSize {
			g.sample = append(g.sample, u)
		}
	}
}
