package host

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"matrix/internal/coordinator"
	"matrix/internal/core"
	"matrix/internal/gameclient"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/load"
	"matrix/internal/middleware"
	"matrix/internal/nodeblob"
	"matrix/internal/protocol"
	"matrix/internal/transport"
)

// gatedNetwork wraps a Network so dials to chosen addresses block until a
// gate channel is closed — a blackholed peer from the dialer's point of
// view. It deliberately does NOT implement transport.TimeoutDialer, so the
// host must bound the dial itself.
type gatedNetwork struct {
	inner transport.Network
	mu    sync.Mutex
	gates map[string]chan struct{}
}

func newGatedNetwork(inner transport.Network) *gatedNetwork {
	return &gatedNetwork{inner: inner, gates: make(map[string]chan struct{})}
}

// gate makes future dials to addr block until the returned channel closes.
func (n *gatedNetwork) gate(addr string) chan struct{} {
	ch := make(chan struct{})
	n.mu.Lock()
	n.gates[addr] = ch
	n.mu.Unlock()
	return ch
}

func (n *gatedNetwork) Listen(addr string) (transport.Listener, error) {
	return n.inner.Listen(addr)
}

func (n *gatedNetwork) Dial(addr string) (transport.Conn, error) {
	n.mu.Lock()
	ch := n.gates[addr]
	n.mu.Unlock()
	if ch != nil {
		<-ch
	}
	return n.inner.Dial(addr)
}

// fwd fabricates a peer-bound forward with a recognizable sequence number.
func fwd(seq int) *protocol.Forward {
	return &protocol.Forward{From: 1, Update: protocol.GameUpdate{
		Client: 1, Seq: id.PacketSeq(seq), Kind: protocol.KindAction,
		Origin: geom.Pt(1, 1), Dest: geom.Pt(1, 1),
	}}
}

// TestDeadPeerDoesNotStallTicks pins the S1 regression: a send to a peer
// whose address blackholes (dial never completes) must return immediately
// and the tick loop must keep serving clients at full rate while the
// bounded background dial times out.
func TestDeadPeerDoesNotStallTicks(t *testing.T) {
	nw := newGatedNetwork(transport.NewMemNetwork())
	nw.gate("blackhole:1") // never opened
	mc, err := ServeCoordinator(nw, "", coordinatorConfigForTest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	h, err := StartServer(ServerConfig{
		Network:         nw,
		Coordinator:     mc.Addr(),
		Radius:          40,
		TickInterval:    2 * time.Millisecond,
		PeerDialTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })

	ch, err := DialClient(ClientConfig{
		Network:    nw,
		ServerAddr: h.Addr(),
		Client:     gameclient.Config{ID: 1, Pos: geom.Pt(100, 100)},
	})
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer ch.Close()

	// Sends to the dead peer must not block the caller (the tick goroutine
	// in production).
	for i := 1; i <= 3; i++ {
		start := time.Now()
		sendPeerMsgs(t, h, "blackhole:1", fwd(i))
		if d := time.Since(start); d > time.Second {
			t.Fatalf("sendPeerMsgs blocked %v on a dead peer", d)
		}
	}

	// While the dial is still pending, client traffic keeps echoing: the
	// tick loop is alive.
	if err := ch.Send(ch.Client().MakeAction(protocol.KindAction, geom.Pt(101, 100))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "echo during blocked dial", func() bool {
		return ch.Client().Stats().EchoCount >= 1
	})

	// The bounded dial times out and the queued frames are dropped: the
	// pending entry must disappear rather than accumulate forever, and the
	// three frames are counted.
	waitFor(t, "dial backlog cleanup", func() (gone bool) {
		_ = h.onTick(func() error { _, inFlight := h.dialing["blackhole:1"]; gone = !inFlight; return nil })
		return gone
	})
	if got := h.backlogDrops.Load(); got != 3 {
		t.Errorf("backlogDrops = %d after a failed dial behind 3 queued frames, want 3", got)
	}
}

// sendPeerMsgs sends msgs to the peer at addr on h's tick goroutine.
func sendPeerMsgs(t *testing.T, h *ServerHost, addr string, msgs ...protocol.Message) {
	t.Helper()
	if err := h.onTick(func() error { h.sendPeerMsgs(addr, msgs...); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestPeerDialBacklogFlushedInOrder pins the ordering half of the S1 fix:
// frames queued while a peer dial is in flight are flushed in send order
// before the connection is published, so nothing sent later overtakes the
// backlog.
func TestPeerDialBacklogFlushedInOrder(t *testing.T) {
	mem := transport.NewMemNetwork()
	nw := newGatedNetwork(mem)
	open := nw.gate("peer:slow")
	_, hosts := startCluster(t, nw, 1, load.Config{})
	h := hosts[0]

	ln, err := mem.Listen("peer:slow")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var seqMu sync.Mutex
	var got []int
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if f, ok := m.(*protocol.Forward); ok {
				seqMu.Lock()
				got = append(got, int(f.Update.Seq))
				seqMu.Unlock()
			}
		}
	}()

	// A batch the backlog cannot hold is dropped whole and counted; it
	// neither disturbs nor reorders what queues after it.
	flood := make([]protocol.Message, maxDialBacklog+1)
	for i := range flood {
		flood[i] = fwd(99)
	}
	sendPeerMsgs(t, h, "peer:slow", flood...)
	if got := h.backlogDrops.Load(); got != maxDialBacklog+1 {
		t.Fatalf("backlogDrops = %d after an oversized batch, want %d", got, maxDialBacklog+1)
	}
	var scrape bytes.Buffer
	h.writeMetrics(&scrape)
	if want := fmt.Sprintf("matrix_server_peer_backlog_drops_total %d\n", maxDialBacklog+1); !strings.Contains(scrape.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}

	// Three sends while the dial is gated: all queue behind it.
	sendPeerMsgs(t, h, "peer:slow", fwd(1))
	sendPeerMsgs(t, h, "peer:slow", fwd(2), fwd(3))
	close(open)

	waitFor(t, "backlog flushed", func() bool {
		seqMu.Lock()
		defer seqMu.Unlock()
		return len(got) == 3
	})
	// Once published, later sends go direct over the same connection.
	waitFor(t, "connection published", func() (ok bool) {
		_ = h.onTick(func() error { ok = h.peers["peer:slow"] != nil; return nil })
		return ok
	})
	sendPeerMsgs(t, h, "peer:slow", fwd(4))
	waitFor(t, "direct send", func() bool {
		seqMu.Lock()
		defer seqMu.Unlock()
		return len(got) == 4
	})
	seqMu.Lock()
	defer seqMu.Unlock()
	for i, want := range []int{1, 2, 3, 4} {
		if got[i] != want {
			t.Fatalf("delivery order = %v, want [1 2 3 4]", got)
		}
	}
}

// TestStateBeforeRedirectWireOrder pins the S2 regression: peer-bound
// fallout and client deliveries routed on the tick goroutine are both
// deferred into the tick's egress (nothing is written while routing), and
// one flush writes every peer frame before any client frame — the migrating
// state is committed to the peer connection ahead of the redirect that makes
// the client rejoin there. The host has no tick loop: the test is its tick
// goroutine.
func TestStateBeforeRedirectWireOrder(t *testing.T) {
	spy, h, _ := newSpiedServer(t, 0)

	// A fake peer that swallows what the host sends it.
	ln, err := spy.Network.Listen("peer:x")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if conn, err := ln.Accept(); err == nil {
			for err == nil {
				_, err = conn.Recv()
			}
		}
	}()
	sendHello(t, spy.Network, h, 42, geom.Pt(100, 100))
	tickUntil(t, h, "client joined", func() bool { return h.Game().ClientCount() == 1 })

	// Establish the peer connection first (warm-up frame), so the flush
	// below writes synchronously on the established connection.
	h.sendPeerMsgs("peer:x", fwd(0))
	tickUntil(t, h, "warm-up frame written", func() bool { return spy.frameWith(protocol.TypeForward) >= 0 })

	// What the tick goroutine does during a migration: the game server
	// emits the state transfer, then the redirect. Both must be DEFERRED.
	st := &protocol.StateTransfer{From: h.ID(), To: 99, Final: true}
	h.FromCore(h.node, []core.Envelope{{Dest: core.DestPeer, Peer: 99, Addr: "peer:x", Msg: st}})
	h.ToClient(h.node, 42, &protocol.Redirect{Client: 42, NewOwner: 99, NewAddr: "peer:x"})
	eg := h.out
	if len(eg.peers["peer:x"]) != 1 || len(eg.clients[spy.clientConn(h, 42)].msgs) != 1 {
		t.Fatalf("not deferred into the egress: peers %v, client outboxes %v", eg.peers, eg.clients)
	}
	if s, r := spy.frameWith(protocol.TypeStateTransfer), spy.frameWith(protocol.TypeRedirect); s >= 0 || r >= 0 {
		t.Fatalf("written before the flush: state transfer at frame %d, redirect at frame %d", s, r)
	}

	h.flush()

	s, r := spy.frameWith(protocol.TypeStateTransfer), spy.frameWith(protocol.TypeRedirect)
	if s < 0 || r < 0 || s > r {
		t.Fatalf("state transfer is frame %d, redirect frame %d: want both written, state first", s, r)
	}
	if len(eg.peers["peer:x"]) != 0 || len(eg.clients[spy.clientConn(h, 42)].msgs) != 0 {
		t.Fatal("flush left messages in the egress")
	}
}

// TestIngressFunnelOverflowDrops pins the funnel's bound: beyond maxIngress
// queued messages, enqueueIngress drops rather than growing without limit.
func TestIngressFunnelOverflowDrops(t *testing.T) {
	nw := transport.NewMemNetwork()
	mc, err := ServeCoordinator(nw, "", coordinatorConfigForTest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	// No tick loop, so the funnel is not drained mid-test — not even when a
	// coordinator frame arrives while it holds the fake entries below — and
	// logDrops is this goroutine's to call.
	var logged syncBuffer
	h, err := newServer(ServerConfig{
		Network:     nw,
		Coordinator: mc.Addr(),
		Radius:      40,
		Logger:      log.New(&logged, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })

	h.ingressMu.Lock()
	h.ingress = make([]ingressMsg, maxIngress)
	h.ingressMu.Unlock()
	startup := logged.String()
	for i := 1; i <= 3; i++ {
		h.enqueueIngress(ingressMsg{msg: fwd(i)})
	}
	h.ingressMu.Lock()
	n := len(h.ingress)
	h.ingress = nil
	h.ingressMu.Unlock()
	if n != maxIngress {
		t.Fatalf("ingress grew to %d, want overflow drop at %d", n, maxIngress)
	}
	// Dropped frames are counted, exported, and logged once per tick — not
	// once per frame, and not again while nothing new is dropped. (A
	// coordinator frame arriving while the funnel was full is dropped and
	// counted too, so the three sent here are a lower bound; the funnel is
	// empty again now, so the count is stable.)
	drops := h.ingressDrops.Load()
	if drops < 3 {
		t.Errorf("ingressDrops = %d, want at least the 3 sent here", drops)
	}
	var scrape bytes.Buffer
	h.writeMetrics(&scrape)
	if want := fmt.Sprintf("matrix_server_ingress_overflows_total %d\n", drops); !strings.Contains(scrape.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
	if got := logged.String(); got != startup {
		t.Errorf("overflow logged per frame: %q", strings.TrimPrefix(got, startup))
	}
	h.logDrops()
	h.logDrops()
	got := strings.TrimPrefix(logged.String(), startup)
	if strings.Count(got, "\n") != 1 || !strings.Contains(got, fmt.Sprintf("%d ingress message(s)", drops)) {
		t.Errorf("two ticks after %d drops logged %q, want one line naming them", drops, got)
	}
}

// syncBuffer is a log sink the test can read while host goroutines write.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestIngressFunnelConcurrentEnqueue drives the funnel from several
// goroutines at once — the mcLoop/peer-pump interleaving of the S2 bug —
// and checks every message is processed by the tick goroutine (inbound
// state transfers reach the game server via core routing, and nothing
// races).
func TestIngressFunnelConcurrentEnqueue(t *testing.T) {
	nw := transport.NewMemNetwork()
	_, hosts := startCluster(t, nw, 1, load.Config{})
	h := hosts[0]

	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Inbound transfer addressed to us: core routes it to the
				// game server — a benign, countable path.
				h.enqueueIngress(ingressMsg{from: 99, msg: &protocol.StateTransfer{From: 99, To: h.ID(), Final: true}})
			}
		}()
	}
	wg.Wait()
	waitFor(t, "funnel drained", func() bool {
		h.ingressMu.Lock()
		defer h.ingressMu.Unlock()
		return len(h.ingress) == 0
	})
}

// coordinatorConfigForTest returns the config startCluster uses, for tests
// that build hosts by hand.
func coordinatorConfigForTest() coordinator.Config {
	return coordinator.Config{World: geom.R(0, 0, 1000, 1000)}
}

// TestMiddlewareAuthAndRateLimitOverWire runs the chain end to end: a
// tokenless client is rejected at the hello, an authenticated client joins,
// and its update flood is rate limited while control frames flow.
func TestMiddlewareAuthAndRateLimitOverWire(t *testing.T) {
	nw := transport.NewMemNetwork()
	mc, err := ServeCoordinator(nw, "", coordinatorConfigForTest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	h, err := StartServer(ServerConfig{
		Network:      nw,
		Coordinator:  mc.Addr(),
		Radius:       40,
		TickInterval: 2 * time.Millisecond,
		Middleware: middleware.Config{
			Stages:          []string{middleware.StageAuth, middleware.StageRateLimit},
			AuthSecret:      "s3cret",
			RateLimitPerSec: 0.001, // effectively: the burst and nothing more
			RateLimitBurst:  2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })

	// Wrong token: the hello is rejected before the join, so the client
	// never sees a welcome.
	if _, err := DialClient(ClientConfig{
		Network:        nw,
		ServerAddr:     h.Addr(),
		AuthToken:      "wrong",
		Client:         gameclient.Config{ID: 1, Pos: geom.Pt(100, 100)},
		WelcomeTimeout: 300 * time.Millisecond,
	}); err != ErrNotWelcomed {
		t.Fatalf("bad-token dial error = %v, want ErrNotWelcomed", err)
	}
	if got := h.node.MW.Stats().AuthFailed.Value(); got != 1 {
		t.Fatalf("AuthFailed = %d, want 1", got)
	}

	// Right token: joins normally.
	ch, err := DialClient(ClientConfig{
		Network:    nw,
		ServerAddr: h.Addr(),
		AuthToken:  "s3cret",
		Client:     gameclient.Config{ID: 2, Pos: geom.Pt(100, 100)},
	})
	if err != nil {
		t.Fatalf("DialClient with token: %v", err)
	}
	defer ch.Close()

	// Flood updates: the burst admits two, the rest are shed at the wire.
	for i := 0; i < 10; i++ {
		if err := ch.Send(ch.Client().MakeAction(protocol.KindAction, geom.Pt(101, 100))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "rate limiting", func() bool {
		return h.node.MW.Stats().RateLimited.Value() >= 8
	})
	waitFor(t, "burst echoed", func() bool {
		return ch.Client().Stats().EchoCount >= 2
	})
	if got := ch.Client().Stats().EchoCount; got > 2 {
		t.Fatalf("EchoCount = %d, want exactly the burst of 2", got)
	}
}

// TestMiddlewareAuditWritesTheServerLog: `-middleware …,audit` with no sink of
// the caller's audits into the server log, one line per verdict, naming the
// client it judged.
func TestMiddlewareAuditWritesTheServerLog(t *testing.T) {
	nw := transport.NewMemNetwork()
	var logBuf bytes.Buffer
	h := startServerOn(t, nw, ServerConfig{
		Network: nw,
		Logger:  log.New(&logBuf, "", 0),
		Middleware: middleware.Config{
			Stages:          []string{middleware.StageRateLimit, middleware.StageAudit},
			RateLimitPerSec: 1,
			RateLimitBurst:  1,
		},
	})
	conn := joinRaw(t, nw, h, 7, geom.Pt(100, 100))
	for seq := id.PacketSeq(1); seq <= 3; seq++ {
		if err := conn.Send(update(7, seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "rate limiting", func() bool { return h.node.MW.Stats().RateLimited.Value() >= 2 })
	h.Close() // flushes the audit feed
	if log := logBuf.String(); !strings.Contains(log, "audit: rate-limited game-update from client-7") {
		t.Errorf("the server log holds no audited verdict for client-7:\n%s", log)
	}
}

// TestServeMetricsEndpoint scrapes the /metrics endpoints of a server (with
// a middleware chain) and the coordinator once, and checks the core series
// are present.
func TestServeMetricsEndpoint(t *testing.T) {
	nw := transport.NewMemNetwork()
	mc, err := ServeCoordinator(nw, "", coordinatorConfigForTest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	h, err := StartServer(ServerConfig{
		Network:      nw,
		Coordinator:  mc.Addr(),
		Radius:       40,
		TickInterval: 2 * time.Millisecond,
		Middleware: middleware.Config{
			Stages:    []string{middleware.StageRateLimit, middleware.StageAdmission},
			ShedQueue: 100,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })

	scrape := func(serve func(string) (string, io.Closer, error)) string {
		t.Helper()
		addr, closer, err := serve("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ServeMetrics: %v", err)
		}
		defer closer.Close()
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape status %d", resp.StatusCode)
		}
		return string(body)
	}

	sbody := scrape(h.ServeMetrics)
	for _, want := range []string{
		"matrix_server_clients ",
		"matrix_server_queue_len ",
		"matrix_server_peer_conns ",
		"matrix_mw_dropped_total",
	} {
		if !strings.Contains(sbody, want) {
			t.Errorf("server scrape missing %q:\n%s", want, sbody)
		}
	}
	cbody := scrape(mc.ServeMetrics)
	for _, want := range []string{
		"matrix_mc_server_conns 1",
		"matrix_mc_active_servers 1",
		"matrix_mc_splits_total 0",
	} {
		if !strings.Contains(cbody, want) {
			t.Errorf("coordinator scrape missing %q:\n%s", want, cbody)
		}
	}
}

// joinRaw dials h as client c on a bare connection (no ClientHost, so the
// test owns the socket) and waits for the welcome.
func joinRaw(t *testing.T, nw transport.Network, h *ServerHost, c id.ClientID, pos geom.Point) transport.Conn {
	t.Helper()
	conn, err := nw.Dial(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.Send(&protocol.ClientHello{Client: c, Pos: pos}); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := conn.Recv()
		if err != nil {
			t.Fatalf("client %v: no welcome: %v", c, err)
		}
		if m.MsgType() == protocol.TypeClientWelcome {
			return conn
		}
	}
}

// TestDroppedConnectionEvictsAvatar: a client whose socket drops without a
// despawn used to leave its avatar behind for ever — a ghost that counts as
// load and blocks every later reclaim (benchmark/README.md finding). The
// host now evicts it on the tick goroutine, but never for a client that has
// reconnected, and only after the frames the client had already queued have
// run, so a despawn racing the close is still a local despawn.
func TestDroppedConnectionEvictsAvatar(t *testing.T) {
	start := func(t *testing.T, rate int) (transport.Network, *ServerHost) {
		nw := transport.NewMemNetwork()
		mc, err := ServeCoordinator(nw, "", coordinatorConfigForTest(), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mc.Close() })
		h, err := StartServer(ServerConfig{
			Network: nw, Coordinator: mc.Addr(), Radius: 40,
			TickInterval: 2 * time.Millisecond, ServiceRate: rate,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		return nw, h
	}
	move := func(c id.ClientID, kind protocol.UpdateKind, to geom.Point) *protocol.GameUpdate {
		return &protocol.GameUpdate{Client: c, Kind: kind, Origin: to, Dest: to}
	}

	t.Run("drop without despawn", func(t *testing.T) {
		nw, h := start(t, 0)
		conn := joinRaw(t, nw, h, 1, geom.Pt(100, 100))
		if err := conn.Send(move(1, protocol.KindMove, geom.Pt(101, 100))); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "move applied", func() bool {
			p, _ := clientPos(t, h, 1)
			return p == geom.Pt(101, 100)
		})
		conn.Close()
		waitFor(t, "ghost evicted", func() bool { return h.Game().ClientCount() == 0 })
	})

	t.Run("reconnect keeps the avatar", func(t *testing.T) {
		nw, h := start(t, 0)
		joinRaw(t, nw, h, 1, geom.Pt(100, 100))
		// The same client on a new connection: the host closes the old one
		// itself, and that drop must not cost the client its avatar.
		joinRaw(t, nw, h, 1, geom.Pt(100, 100))
		ticks := h.ticks.Load()
		waitFor(t, "a few ticks", func() bool { return h.ticks.Load() >= ticks+5 })
		if st := h.Game().Stats(); st.ClientsCurrent != 1 || st.JoinsAccepted != 1 {
			t.Fatalf("after reconnect: %d clients, %d joins accepted; want the one avatar kept", st.ClientsCurrent, st.JoinsAccepted)
		}
	})

	t.Run("despawn then immediate close", func(t *testing.T) {
		// One frame per tick: the moves and the despawn are still queued
		// when the socket closes, and every one must run as a local update
		// (forwarded to Matrix) before the record goes.
		nw, h := start(t, 1)
		conn := joinRaw(t, nw, h, 1, geom.Pt(100, 100))
		before := h.Core().Stats().GamePacketsIn
		for i := 1; i <= 3; i++ {
			if err := conn.Send(move(1, protocol.KindMove, geom.Pt(100+float64(i), 100))); err != nil {
				t.Fatal(err)
			}
		}
		if err := conn.Send(move(1, protocol.KindDespawn, geom.Pt(103, 100))); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		waitFor(t, "avatar gone", func() bool { return h.Game().ClientCount() == 0 })
		waitFor(t, "queue drained", func() bool { return h.Game().QueueLen() == 0 })
		if got := h.Core().Stats().GamePacketsIn - before; got != 4 {
			t.Fatalf("%d of the 4 queued updates ran as local updates; the avatar went too early", got)
		}
	})
}

// TestAdoptStreamIsBounded: an Adopt stream that never sets Final used to
// grow the reassembly buffer without limit. It is now dropped at
// protocol.MaxBlobSize (internal/node's TestHandleAdopt watches the buffer)
// and counted in /metrics, and the complete stream after it still restores
// the victim's world.
func TestAdoptStreamIsBounded(t *testing.T) {
	nw := transport.NewMemNetwork()
	mc, err := ServeCoordinator(nw, "", coordinatorConfigForTest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	// No tick loop: the test plays the tick goroutine, which owns the ingress
	// funnel and the game server's inbox.
	h, err := newServer(ServerConfig{Network: nw, Coordinator: mc.Addr(), Radius: 40})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })

	// The victim's checkpoint: one avatar.
	if err := h.node.Game.Enqueue(&protocol.ClientHello{Client: 7, Pos: geom.Pt(10, 10)}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.node.Game.Process(0); err != nil {
		t.Fatal(err)
	}
	blob, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	h.node.Game.Evict(7)

	adopt := func(a *protocol.Adopt) {
		h.enqueueIngress(ingressMsg{msg: a})
		h.drainIngress()
	}
	chunk := make([]byte, protocol.MaxFrameSize)
	for sent := 0; sent < 2*protocol.MaxBlobSize; sent += len(chunk) {
		adopt(&protocol.Adopt{Victim: 9, Blob: chunk})
	}
	var out bytes.Buffer
	h.writeMetrics(&out)
	if !strings.Contains(out.String(), "matrix_server_adopt_overflows_total 1\n") {
		t.Errorf("overflow not counted once in /metrics:\n%s", out.String())
	}

	adopt(&protocol.Adopt{Victim: 9, Blob: []byte("tail"), Final: true}) // ends the dropped stream
	adopt(&protocol.Adopt{Victim: 9, Blob: blob[:len(blob)/2]})
	adopt(&protocol.Adopt{Victim: 9, Blob: blob[len(blob)/2:], Final: true})
	if p, ok := h.node.Game.ClientPos(7); !ok || p != geom.Pt(10, 10) {
		t.Fatalf("checkpoint after the overflow not restored: avatar 7 at %v, %v", p, ok)
	}
}

// TestFailedStartReleasesListener: a start that fails after registering (here
// on an unknown policy name) must give its listener address and its
// coordinator connection back — one cleanup covers every such exit.
func TestFailedStartReleasesListener(t *testing.T) {
	nw := transport.NewMemNetwork()
	mc, err := ServeCoordinator(nw, "", coordinatorConfigForTest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	cfg := ServerConfig{Network: nw, Coordinator: mc.Addr(), ListenAddr: "srv", Radius: 40, Policy: "no-such-policy"}
	if _, err := StartServer(cfg); err == nil {
		t.Fatal("StartServer accepted an unknown policy")
	}
	cfg.Policy = ""
	h, err := StartServer(cfg)
	if err != nil {
		t.Fatalf("the failed start kept the listener address: %v", err)
	}
	h.Close()
}

// TestStartServerRefusesAnotherRadius: a server whose visibility radius
// differs from the fleet's is refused at registration with the
// coordinator's reason, naming both radii, and leaves the fleet as it was.
func TestStartServerRefusesAnotherRadius(t *testing.T) {
	nw := transport.NewMemNetwork()
	mc, err := ServeCoordinator(nw, "", coordinatorConfigForTest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	// No tick loop: no load report or heartbeat moves the fleet meanwhile.
	h, err := newServer(ServerConfig{Network: nw, Coordinator: mc.Addr(), Radius: 40})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	fleet := func() string {
		b, err := json.Marshal(read(mc.MC(), (*coordinator.Coordinator).CaptureState))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	before := fleet()

	_, err = StartServer(ServerConfig{Network: nw, Coordinator: mc.Addr(), Radius: 80})
	if err == nil || !strings.Contains(err.Error(), "80") || !strings.Contains(err.Error(), "40") {
		t.Fatalf("StartServer at radius 80 against a fleet at 40: err = %v, want a refusal naming both", err)
	}
	if after := fleet(); after != before {
		t.Errorf("the refused registration changed the fleet:\n%s\n%s", before, after)
	}
}

// TestOversizeCheckpointIsRefusedAtTheSender: a node whose state no longer
// fits protocol.MaxBlobSize ships nothing — the coordinator would drop the
// upload, every interval, and go on holding a stale blob or none — counts the
// refusal and says so on /readyz; when the world shrinks again the next
// checkpoint ships and readiness returns.
func TestOversizeCheckpointIsRefusedAtTheSender(t *testing.T) {
	nw := transport.NewMemNetwork()
	mc, err := ServeCoordinator(nw, "", coordinatorConfigForTest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	// No tick loop: the test plays the tick goroutine, which owns
	// shipCheckpoint and the coordinator connection's write side.
	h, err := newServer(ServerConfig{Network: nw, Coordinator: mc.Addr(), Radius: 40})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })

	// A padded world: one map object whose payload alone, base64'd into the
	// blob, is past the limit.
	h.node.Game.AddObject(protocol.ObjectState{Object: 1, Pos: geom.Pt(10, 10), Payload: make([]byte, protocol.MaxBlobSize*3/4+1)})
	h.shipCheckpoint()
	if err := h.Ready(); !errors.Is(err, nodeblob.ErrOversize) || !strings.Contains(err.Error(), "checkpoint exceeds MaxBlobSize: region is not recoverable") {
		t.Errorf("Ready() = %v after an oversize checkpoint, want the refusal by name", err)
	}
	if h.CheckpointTick() != 0 {
		t.Error("an oversize checkpoint counted as shipped")
	}
	var out bytes.Buffer
	h.writeMetrics(&out)
	if !strings.Contains(out.String(), "matrix_server_checkpoint_oversize_total 1\n") {
		t.Errorf("refusal not counted once in /metrics:\n%s", out.String())
	}

	// The world shrinks; the next checkpoint fits. Frames on the coordinator
	// connection are ordered, so once this one has landed, anything the
	// refused one had sent would have been seen — and dropped, and counted.
	h.node.Game.AddObject(protocol.ObjectState{Object: 1, Pos: geom.Pt(10, 10)})
	h.ticks.Add(1)
	h.shipCheckpoint()
	if err := h.Ready(); err != nil {
		t.Errorf("Ready() = %v after a checkpoint that shipped", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for mc.MC().CheckpointSize(h.ID()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the small checkpoint never reached the coordinator")
		}
		time.Sleep(time.Millisecond)
	}
	if n := read(mc.MC(), (*coordinator.Coordinator).CheckpointOverflows); n != 0 {
		t.Errorf("the coordinator dropped %d uploads: the oversize blob was sent", n)
	}
	if h.CheckpointTick() == 0 {
		t.Error("the checkpoint that shipped did not advance CheckpointTick")
	}
}

// TestDeadCoordinatorLinkIsCountedNotLogged: once the coordinator connection
// is lost, what the tick goroutine has for the coordinator — lease renewals,
// load reports, checkpoint chunks — is withheld and counted, and the loss is
// one log line, not one per send for as long as the server lives on (it does:
// clients and peers need no coordinator). /readyz keeps saying why.
func TestDeadCoordinatorLinkIsCountedNotLogged(t *testing.T) {
	nw := transport.NewMemNetwork()
	mc, err := ServeCoordinator(nw, "", coordinatorConfigForTest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	// No tick loop: the test plays the tick goroutine, which owns the
	// coordinator connection's write side.
	var logged syncBuffer
	h, err := newServer(ServerConfig{Network: nw, Coordinator: mc.Addr(), Radius: 40, Logger: log.New(&logged, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	// One round of tickLoop's beat, report and checkpoint arms sends a
	// heartbeat, the root's load report and a one-chunk checkpoint.
	const perRound = 3
	unsent := func() string { return mcUnsentRow(h) }

	h.beat()
	h.report()
	h.shipCheckpoint()
	if err := h.Ready(); err != nil || unsent() != "0" {
		t.Fatalf("with the coordinator up: Ready() = %v, %s unsent", err, unsent())
	}
	waitFor(t, "the round to reach the coordinator", func() bool { return mc.MC().CheckpointSize(h.ID()) > 0 })

	mc.Close()
	waitFor(t, "the host to notice, and say so", func() bool {
		return h.Ready() != nil && strings.Contains(logged.String(), "coordinator connection lost")
	})
	startup := logged.String()
	const rounds = 5
	for i := 0; i < rounds; i++ {
		h.beat()
		h.report()
		h.shipCheckpoint()
	}
	if got, want := unsent(), fmt.Sprint(rounds*perRound); got != want {
		t.Errorf("matrix_server_mc_unsent_total = %s after %d rounds of %d messages, want %s", got, rounds, perRound, want)
	}
	if err := h.Ready(); err == nil || !strings.Contains(err.Error(), "coordinator connection lost") {
		t.Errorf("Ready() = %v, want the lost coordinator connection by name", err)
	}
	if n := strings.Count(startup, "coordinator connection lost"); n != 1 {
		t.Errorf("the loss was logged %d times, want once:\n%s", n, startup)
	}
	if after := strings.TrimPrefix(logged.String(), startup); after != "" {
		t.Errorf("withheld sends were logged:\n%s", after)
	}
}

// mcUnsentRow reads matrix_server_mc_unsent_total off one scrape of h.
func mcUnsentRow(h *ServerHost) string {
	var scrape bytes.Buffer
	h.writeMetrics(&scrape)
	_, row, _ := strings.Cut(scrape.String(), "\nmatrix_server_mc_unsent_total ")
	row, _, _ = strings.Cut(row, "\n")
	return row
}

// TestDrainOnALostCoordinatorLinkFailsAtOnce: a drain request is bound for
// the coordinator like anything else the node sends there, so it leaves
// through toMC. Once the link is lost Drain writes nothing, counts the
// request as withheld and fails at once instead of waiting out its timeout.
func TestDrainOnALostCoordinatorLinkFailsAtOnce(t *testing.T) {
	nw := transport.NewMemNetwork()
	mc, err := ServeCoordinator(nw, "", coordinatorConfigForTest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	// No tick loop: nothing else is sent to the coordinator meanwhile, and
	// Drain's funnel call runs on the caller, the tick goroutine here.
	h, err := newServer(ServerConfig{Network: nw, Coordinator: mc.Addr(), Radius: 40})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	mc.Close()
	waitFor(t, "the host to notice the lost link", func() bool { return h.Ready() != nil })
	if got := mcUnsentRow(h); got != "0" {
		t.Fatalf("matrix_server_mc_unsent_total = %s before the drain, want 0", got)
	}

	const timeout = 10 * time.Second
	start := time.Now()
	err = h.Drain(false, timeout)
	if took := time.Since(start); took > timeout/10 {
		t.Errorf("Drain took %v on a lost link, want well under its %v timeout", took, timeout)
	}
	if err == nil || !strings.Contains(err.Error(), "coordinator connection lost") {
		t.Errorf("Drain = %v, want the lost coordinator connection by name", err)
	}
	if got := mcUnsentRow(h); got != "1" {
		t.Errorf("matrix_server_mc_unsent_total = %s after the drain, want 1: the request did not leave through toMC", got)
	}
}
