package host

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"matrix/internal/gameclient"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/netem"
	"matrix/internal/protocol"
	"matrix/internal/transport"
)

// spyNetwork is the server host's view of the wire: every connection the
// host accepts or dials through it logs each frame the host writes, in call
// order across connections, and can be told to fail its writes. Test clients
// and fake peers use the embedded inner Network directly, so only the host's
// own writes are logged.
type spyNetwork struct {
	transport.Network
	mu       sync.Mutex
	frames   []spyFrame
	accepted []*spyConn
}

// spyFrame is one Send or SendBatch call: one frame on the wire.
type spyFrame struct {
	conn *spyConn
	msgs []protocol.Message
}

type spyConn struct {
	transport.Conn
	nw     *spyNetwork
	fail   atomic.Bool // writes report ErrClosed without reaching the wire
	closed atomic.Bool // the host closed it
}

func (c *spyConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func (c *spyConn) Send(m protocol.Message) error {
	return c.write([]protocol.Message{m}, func() error { return c.Conn.Send(m) })
}

func (c *spyConn) SendBatch(ms []protocol.Message) error {
	return c.write(ms, func() error { return c.Conn.SendBatch(ms) })
}

// write logs and sends under one lock, so the log order is the wire order.
func (c *spyConn) write(ms []protocol.Message, send func() error) error {
	if c.fail.Load() {
		return transport.ErrClosed
	}
	c.nw.mu.Lock()
	defer c.nw.mu.Unlock()
	// Copied: the host recycles its outbox slice after the write.
	c.nw.frames = append(c.nw.frames, spyFrame{c, append([]protocol.Message(nil), ms...)})
	return send()
}

func (n *spyNetwork) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &spyConn{Conn: c, nw: n}, nil
}

func (n *spyNetwork) Listen(addr string) (transport.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &spyListener{l, n}, nil
}

type spyListener struct {
	transport.Listener
	nw *spyNetwork
}

func (l *spyListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	conn := &spyConn{Conn: c, nw: l.nw}
	l.nw.mu.Lock()
	l.nw.accepted = append(l.nw.accepted, conn)
	l.nw.mu.Unlock()
	return conn, nil
}

// frameWith returns the log index of the first frame holding a message of
// type typ, or -1.
func (n *spyNetwork) frameWith(typ protocol.MsgType) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, f := range n.frames {
		for _, m := range f.msgs {
			if m.MsgType() == typ {
				return i
			}
		}
	}
	return -1
}

// framesOn returns the frames logged on conn, oldest first.
func (n *spyNetwork) framesOn(conn transport.Conn) [][]protocol.Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out [][]protocol.Message
	for _, f := range n.frames {
		if f.conn == conn {
			out = append(out, f.msgs)
		}
	}
	return out
}

// clientConn returns the host's registered connection for client c (nil
// when it has none), read on the tick goroutine.
func (n *spyNetwork) clientConn(h *ServerHost, c id.ClientID) (conn *spyConn) {
	_ = h.onTick(func() error { conn, _ = h.clients[c].(*spyConn); return nil })
	return conn
}

// startServerOn boots a coordinator on mcNet and one server host from cfg
// (its Coordinator and Radius filled in), both closed with the test.
func startServerOn(t *testing.T, mcNet transport.Network, cfg ServerConfig) *ServerHost {
	t.Helper()
	return bootOn(t, mcNet, cfg, StartServer)
}

// newServerOn is startServerOn without the tick loop: the test is the tick
// goroutine, and runs tick, report, beat and shipCheckpoint at times it picks.
func newServerOn(t *testing.T, mcNet transport.Network, cfg ServerConfig) *ServerHost {
	t.Helper()
	return bootOn(t, mcNet, cfg, newServer)
}

// newServer is StartServer without the tick loop: its caller is the tick
// goroutine, and runs tick, report, beat and shipCheckpoint itself.
func newServer(cfg ServerConfig) (*ServerHost, error) { return boot(cfg, false) }

func bootOn(t *testing.T, mcNet transport.Network, cfg ServerConfig, boot func(ServerConfig) (*ServerHost, error)) *ServerHost {
	t.Helper()
	mc, err := ServeCoordinator(mcNet, "", coordinatorConfigForTest(), nil)
	if err != nil {
		t.Fatalf("ServeCoordinator: %v", err)
	}
	t.Cleanup(func() { mc.Close() })
	cfg.Coordinator, cfg.Radius = mc.Addr(), 40
	h, err := boot(cfg)
	if err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// sendHello dials h as client c and sends its hello. A host without a tick
// loop answers it on the test's next tick.
func sendHello(t *testing.T, nw transport.Network, h *ServerHost, c id.ClientID, pos geom.Point) transport.Conn {
	t.Helper()
	conn, err := nw.Dial(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.Send(&protocol.ClientHello{Client: c, Pos: pos}); err != nil {
		t.Fatal(err)
	}
	return conn
}

// tickUntil plays the tick goroutine of a host without a tick loop until
// cond holds.
func tickUntil(t *testing.T, h *ServerHost, what string, cond func() bool) {
	t.Helper()
	waitFor(t, what, func() bool {
		h.tick(time.Now())
		return cond()
	})
}

// drainUntil runs the funnel of a host without a tick loop — connection
// events such as a client's registration included — until cond holds,
// without stepping the node or flushing.
func drainUntil(t *testing.T, h *ServerHost, what string, cond func() bool) {
	t.Helper()
	waitFor(t, what, func() bool {
		h.drainIngress()
		return cond()
	})
}

// startSpiedServer boots a coordinator on inner and one server host whose
// every connection goes through the returned spy.
func startSpiedServer(t *testing.T, inner transport.Network) (*spyNetwork, *ServerHost) {
	t.Helper()
	spy := &spyNetwork{Network: inner}
	return spy, startServerOn(t, inner, ServerConfig{
		Network: spy, TickInterval: 2 * time.Millisecond, ReportInterval: 50 * time.Millisecond,
	})
}

// newSpiedServer is startSpiedServer without the tick loop, with clients
// 1..n joined at (100+c, 100) by the test's ticks.
func newSpiedServer(t *testing.T, n int) (*spyNetwork, *ServerHost, []transport.Conn) {
	t.Helper()
	spy := &spyNetwork{Network: transport.NewMemNetwork()}
	h := newServerOn(t, spy.Network, ServerConfig{Network: spy})
	conns := make([]transport.Conn, n)
	for i := range conns {
		conns[i] = sendHello(t, spy.Network, h, id.ClientID(i+1), geom.Pt(101+float64(i), 100))
	}
	tickUntil(t, h, "clients joined", func() bool { return h.Game().ClientCount() == n })
	return spy, h, conns
}

// deliver hands msgs to client c through the node sink, in order, into the
// tick's egress.
func deliver(h *ServerHost, c id.ClientID, msgs ...protocol.Message) {
	for _, m := range msgs {
		h.ToClient(h.node, c, m)
	}
}

// update is a game update from client `from` with a recognisable Seq.
func update(from id.ClientID, seq id.PacketSeq) *protocol.GameUpdate {
	return &protocol.GameUpdate{Client: from, Seq: seq, Kind: protocol.KindMove, Origin: geom.Pt(100, 100), Dest: geom.Pt(101, 100)}
}

// seqs lists the Seq of every game update in msgs, in order.
func seqs(msgs []protocol.Message) []id.PacketSeq {
	var out []id.PacketSeq
	for _, m := range msgs {
		if u, ok := m.(*protocol.GameUpdate); ok {
			out = append(out, u.Seq)
		}
	}
	return out
}

// TestEgressOneFramePerClientPerTick: the host's own tick loop, fed a burst
// of updates far denser than minTickGap, writes each client at most one frame
// per wake-up — so far fewer frames than messages — and every message still
// arrives, in emission order.
func TestEgressOneFramePerClientPerTick(t *testing.T) {
	spy, h := startSpiedServer(t, transport.NewMemNetwork())
	sender, err := DialClient(ClientConfig{Network: spy.Network, ServerAddr: h.Addr(),
		Client: gameclient.Config{ID: 1, Pos: geom.Pt(100, 100)}})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	watcher := joinRaw(t, spy.Network, h, 2, geom.Pt(110, 100))
	conn := spy.clientConn(h, 2)
	framesBefore, ticksBefore := len(spy.framesOn(conn)), h.ticks.Load()

	const n = 200
	for i := 0; i < n; i++ {
		if err := sender.Send(sender.Client().MakeAction(protocol.KindAction, geom.Pt(105, 100))); err != nil {
			t.Fatal(err)
		}
	}
	var got []id.PacketSeq
	for len(got) < n {
		m, err := watcher.Recv()
		if err != nil {
			t.Fatalf("after %d of %d updates: %v", len(got), n, err)
		}
		got = append(got, seqs([]protocol.Message{m})...)
	}
	for i := 1; i < n; i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("updates out of emission order: seq %d follows %d", got[i], got[i-1])
		}
	}
	// Every game tick writes the watcher at most one frame (a load-report
	// flush has no client deliveries to write).
	frames := len(spy.framesOn(conn)) - framesBefore
	flushes := int(h.ticks.Load()-ticksBefore) + 1
	if frames > flushes {
		t.Errorf("%d frames to one client across %d ticks: more than one frame per flush", frames, flushes)
	}
	if frames >= n {
		t.Errorf("%d frames for %d deliveries: nothing was coalesced", frames, n)
	}
}

// TestEgressStateBeforeRedirectEveryWakeup drives boundary crossings through
// the live loops of two servers: one mover at a time (a wake-up each), then a
// burst the loop coalesces. In every wake-up the mover's state is on the peer's
// wire before its redirect is on the client's, and no connection gets more
// than one frame.
func TestEgressStateBeforeRedirectEveryWakeup(t *testing.T) {
	mem := transport.NewMemNetwork()
	spy := &spyNetwork{Network: mem}
	left, _ := startStaticPair(t, mem, spy, mem)
	const serial, burst = 6, 10
	conns := make([]transport.Conn, serial+burst+1)
	for c := 1; c < len(conns); c++ {
		conns[c] = joinRaw(t, mem, left, id.ClientID(c), geom.Pt(495, float64(20*c)))
	}
	cross := func(c int) {
		t.Helper()
		y := float64(20 * c)
		m := &protocol.GameUpdate{Client: id.ClientID(c), Seq: 1, Kind: protocol.KindMove, Origin: geom.Pt(495, y), Dest: geom.Pt(505, y)}
		if err := conns[c].Send(m); err != nil {
			t.Fatal(err)
		}
	}
	redirected := func(c int) {
		t.Helper()
		recvUntil(t, conns[c], "the redirect", func(m protocol.Message) bool { return m.MsgType() == protocol.TypeRedirect })
	}
	// The first crossing also dials the peer, and the frames queued behind the
	// dial leave in the flush of the tick that publishes the connection; the
	// order under test is the established connection's, from the next tick.
	cross(1)
	redirected(1)
	waitFor(t, "the dial backlog written", func() bool { return spy.frameWith(protocol.TypeStateTransfer) >= 0 })
	spy.mu.Lock()
	spy.frames = nil
	spy.mu.Unlock()
	ticksBefore := left.ticks.Load()

	for c := 2; c <= serial; c++ {
		cross(c)
		redirected(c)
	}
	for c := serial + 1; c < len(conns); c++ {
		cross(c)
	}
	for c := serial + 1; c < len(conns); c++ {
		redirected(c)
	}
	wakeups := int(left.ticks.Load() - ticksBefore)

	spy.mu.Lock()
	defer spy.mu.Unlock()
	stateAt, redirectAt := map[id.ClientID]int{}, map[id.ClientID]int{}
	perConn := map[*spyConn]int{}
	for i, f := range spy.frames {
		perConn[f.conn]++
		for _, m := range f.msgs {
			switch m := m.(type) {
			case *protocol.StateTransfer:
				for _, o := range m.Objects {
					stateAt[o.Client] = i
				}
			case *protocol.Redirect:
				redirectAt[m.Client] = i
			}
		}
	}
	for c := 2; c < len(conns); c++ {
		s, okS := stateAt[id.ClientID(c)]
		r, okR := redirectAt[id.ClientID(c)]
		if !okS || !okR || s > r {
			t.Errorf("client %d: state transfer is frame %d (%v), redirect frame %d (%v): want the state written first", c, s, okS, r, okR)
		}
	}
	for conn, frames := range perConn {
		if conn != left.mcConn && frames > wakeups { // load reports and heartbeats have tickers of their own
			t.Errorf("%d frames on one connection (%s) across %d wake-ups: more than one frame per wake-up", frames, conn.RemoteAddr(), wakeups)
		}
	}
	if wakeups < serial-1 {
		t.Errorf("%d wake-ups for %d crossings made one at a time", wakeups, serial-1)
	}
}

// TestEgressOneFrameOnTheSocket reads a client's raw TCP socket frame by
// frame: k deliveries collected in one tick are exactly one Batch frame, in
// emission order with the redirect last, and a one-delivery tick is a plain
// frame, byte-identical to what Send would have written.
func TestEgressOneFrameOnTheSocket(t *testing.T) {
	h := newServerOn(t, transport.TCPNetwork{}, ServerConfig{Network: transport.TCPNetwork{}})
	sock, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	hello, err := protocol.Marshal(&protocol.ClientHello{Client: 7, Pos: geom.Pt(100, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sock.Write(hello); err != nil {
		t.Fatal(err)
	}
	// nextFrame returns the messages of the next frame on the socket.
	var buf []byte
	nextFrame := func() []protocol.Message {
		t.Helper()
		_ = sock.SetReadDeadline(time.Now().Add(5 * time.Second))
		frame, err := protocol.ReadFrame(sock, buf)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		buf = frame[:0]
		m, err := protocol.Unmarshal(frame)
		if err != nil {
			t.Fatalf("decode frame: %v", err)
		}
		if b, ok := m.(*protocol.Batch); ok {
			return b.Msgs
		}
		return []protocol.Message{m}
	}
	tickUntil(t, h, "client joined", func() bool { return h.Game().ClientCount() == 1 })
	for welcomed := false; !welcomed; {
		for _, m := range nextFrame() {
			welcomed = welcomed || m.MsgType() == protocol.TypeClientWelcome
		}
	}

	redirect := &protocol.Redirect{Client: 7, NewOwner: 99, NewAddr: "elsewhere"}
	deliver(h, 7, update(1, 1), update(2, 2), update(3, 3), update(4, 4), redirect)
	h.flush()
	deliver(h, 7, update(1, 5))
	h.flush()

	first := nextFrame()
	if got := seqs(first); len(first) != 5 || len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("first frame holds %d messages, updates %v: want the tick's 5 in one frame, in order", len(first), got)
	}
	if first[4].MsgType() != protocol.TypeRedirect {
		t.Fatalf("last message of the frame is %v, want the redirect", first[4].MsgType())
	}
	if second := nextFrame(); len(second) != 1 || seqs(second)[0] != 5 {
		t.Fatalf("second frame holds %v: want the lone update 5", second)
	}
}

// TestEgressFlushSurvivesAFailedClient: a client whose write fails in the
// middle of a flush is closed — its pump then forgets it and its avatar is
// evicted — and every other client in the same flush still gets its frame.
func TestEgressFlushSurvivesAFailedClient(t *testing.T) {
	const clients = 8
	spy, h, _ := newSpiedServer(t, clients)
	broken := spy.clientConn(h, 3)
	broken.fail.Store(true)

	for c := id.ClientID(1); c <= clients; c++ {
		deliver(h, c, update(c, 1000), update(c, 1001))
	}
	h.flush()

	for c := id.ClientID(1); c <= clients; c++ {
		if c == 3 {
			continue
		}
		frames := spy.framesOn(spy.clientConn(h, c))
		if got := seqs(frames[len(frames)-1]); len(got) != 2 || got[0] != 1000 || got[1] != 1001 {
			t.Errorf("client %v: last frame holds updates %v, want [1000 1001]", c, got)
		}
	}
	drainUntil(t, h, "failed client forgotten", func() bool { return spy.clientConn(h, 3) == nil })
	tickUntil(t, h, "failed client's avatar evicted", func() bool { return h.Game().ClientCount() == clients-1 })
	if co := h.out.clients[broken]; co != nil {
		t.Errorf("failed client's outbox (%d messages) not reaped from the host's egress", len(co.msgs))
	}
}

// TestEgressReconnectDoesNotInheritFrames: deliveries are collected for the
// connection, not the client. A client that reconnects between collect and
// flush gets nothing that was addressed to its old socket.
func TestEgressReconnectDoesNotInheritFrames(t *testing.T) {
	spy, h, _ := newSpiedServer(t, 1)
	oldConn := spy.clientConn(h, 1)

	deliver(h, 1, update(9, 1000))
	fresh := sendHello(t, spy.Network, h, 1, geom.Pt(101, 100)) // the host closes the old socket
	drainUntil(t, h, "reconnect registered", func() bool { return spy.clientConn(h, 1) != oldConn })
	newConn := spy.clientConn(h, 1)
	h.flush()
	deliver(h, 1, update(9, 1001))
	h.flush()

	for {
		m, err := fresh.Recv()
		if err != nil {
			t.Fatalf("new connection: %v", err)
		}
		if got := seqs([]protocol.Message{m}); len(got) == 1 && got[0] >= 1000 {
			if got[0] != 1001 {
				t.Fatalf("new connection received update %d, addressed to the old one", got[0])
			}
			break
		}
	}
	for _, f := range spy.framesOn(newConn) {
		for _, s := range seqs(f) {
			if s == 1000 {
				t.Fatal("the old connection's delivery was written to the new connection")
			}
		}
	}
}

// TestEgressIdleTickWritesNothing: ticks that route no client delivery put
// no frame on any client socket, and leave nothing behind in the egress.
func TestEgressIdleTickWritesNothing(t *testing.T) {
	spy, h, _ := newSpiedServer(t, 2)
	conns := []*spyConn{spy.clientConn(h, 1), spy.clientConn(h, 2)}
	written := func() int { return len(spy.framesOn(conns[0])) + len(spy.framesOn(conns[1])) }
	// Let the joins' own fallout (welcomes, spawn announcements) drain.
	for i := 0; i < 5; i++ {
		h.tick(time.Now())
	}
	before := written()
	for i := 0; i < 20; i++ {
		h.tick(time.Now())
	}
	if after := written(); after != before {
		t.Fatalf("%d frames written to idle clients across 20 ticks", after-before)
	}
	// The same through the seam: flushing collected-then-flushed outboxes
	// writes nothing more.
	deliver(h, 1, update(2, 1))
	h.flush()
	before = len(spy.framesOn(conns[0]))
	h.flush()
	if after := len(spy.framesOn(conns[0])); after != before {
		t.Fatalf("flushing an empty egress wrote %d frames", after-before)
	}
}

// TestEgressIsBounded: an outbox keeps no messages and no burst-sized backing
// array past its flush, and the host's outbox table follows the connections
// it serves — churn does not grow it.
func TestEgressIsBounded(t *testing.T) {
	const clients, stay = 40, 5
	spy, h, conns := newSpiedServer(t, clients)

	burst := make([]protocol.Message, maxRetainedOutbox+1)
	for i := range burst {
		burst[i] = update(2, id.PacketSeq(i))
	}
	deliver(h, 1, update(2, 0))
	deliver(h, 2, burst...)
	h.flush()
	small, big := h.out.clients[spy.clientConn(h, 1)].msgs, h.out.clients[spy.clientConn(h, 2)].msgs
	if len(small) != 0 || cap(small) == 0 {
		t.Fatalf("ordinary outbox after flush: len %d cap %d; want empty with its capacity kept", len(small), cap(small))
	}
	if small[:1][0] != nil {
		t.Error("flushed outbox still holds its message pointer")
	}
	if cap(big) != 0 {
		t.Errorf("burst outbox kept %d slots past the flush, cap is %d", cap(big), maxRetainedOutbox)
	}

	for _, c := range conns[stay:] {
		c.Close()
	}
	tickUntil(t, h, "dropped clients evicted", func() bool { return h.Game().ClientCount() == stay })
	if n := len(h.out.clients); n > stay {
		t.Errorf("%d outboxes left for %d live connections", n, stay)
	}
}

// TestEgressNetemDropsPerMessage: on an impaired client link the loss model
// still judges every delivery on its own — a coalesced frame is not lost or
// kept as a whole.
func TestEgressNetemDropsPerMessage(t *testing.T) {
	mem := transport.NewMemNetwork()
	h := newServerOn(t, mem, ServerConfig{Network: netem.WrapNetwork(mem, netem.LinkConfig{Loss: 0.5}, 1)})
	sendHello(t, mem, h, 1, geom.Pt(100, 100))
	tickUntil(t, h, "client joined", func() bool { return h.Game().ClientCount() == 1 }) // hellos and welcomes are control plane: never lost

	const k = 400
	msgs := make([]protocol.Message, k)
	for i := range msgs {
		msgs[i] = update(2, id.PacketSeq(i))
	}
	deliver(h, 1, msgs...)
	h.flush()

	var link *netem.Conn
	_ = h.onTick(func() error { link = h.clients[1].(*netem.Conn); return nil })
	st := link.Stats()
	if st.Lost == 0 || st.Lost >= k {
		t.Fatalf("%d of %d deliveries lost at 50%% loss: the frame was judged as a whole", st.Lost, k)
	}
	// Passed also counts the welcome-time control frames; data plane only:
	if passed := k - st.Lost; passed < k/4 || passed > 3*k/4 {
		t.Fatalf("%d of %d deliveries passed at 50%% loss", passed, k)
	}
}

// TestEgressFlushZeroAlloc is the egress allocation budget: once every
// connection has an outbox, collecting and flushing a 64-client × 6-delivery
// tick over loopback TCP allocates nothing. (Counts are only meaningful
// without the race detector's instrumentation.)
func TestEgressFlushZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// A host without a tick loop: the test's collect and flush are the only
	// writers, and nothing else allocates meanwhile.
	h := newServerOn(t, transport.TCPNetwork{}, ServerConfig{Network: transport.TCPNetwork{}})

	const clients, perClient = 64, 6
	for c := id.ClientID(1); c <= clients; c++ {
		sock, err := net.Dial("tcp", h.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer sock.Close()
		hello, err := protocol.Marshal(&protocol.ClientHello{Client: c, Pos: geom.Pt(100, 100)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sock.Write(hello); err != nil {
			t.Fatal(err)
		}
		go io.Copy(io.Discard, sock) // keep the socket buffer from filling
	}
	drainUntil(t, h, "clients registered", func() (ok bool) {
		_ = h.onTick(func() error { ok = len(h.clients) == clients; return nil })
		return ok
	})

	updates := make([]protocol.Message, perClient)
	for i := range updates {
		updates[i] = update(id.ClientID(i+1), id.PacketSeq(i))
	}
	step := func() {
		for _, u := range updates {
			for c := id.ClientID(1); c <= clients; c++ { // one update's fan-out at a time, as the game server emits it
				h.ToClient(h.node, c, u)
			}
		}
		h.flush()
	}
	for i := 0; i < 3; i++ {
		step() // create the outboxes and grow the encode buffers
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("collect + flush allocates %.1f/op, budget is 0", allocs)
	}
	if len(h.out.clients) != clients {
		t.Errorf("%d outboxes for %d connections", len(h.out.clients), clients)
	}
}
