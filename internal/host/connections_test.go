package host

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/protocol"
	"matrix/internal/transport"
)

// TestWelcomeFindsItsConnection: a hello is registered before the tick that
// serves it. On a host without a tick loop, a hello and the client's updates
// sent at once wait for the test's tick; that one tick writes the welcome on
// the client's connection, and the updates behind it are served as the
// client's own, none as from an unknown client.
func TestWelcomeFindsItsConnection(t *testing.T) {
	spy := &spyNetwork{Network: transport.NewMemNetwork()}
	h := newServerOn(t, spy.Network, ServerConfig{Network: spy})
	conn := sendHello(t, spy.Network, h, 1, geom.Pt(100, 100))
	const k = 5
	for seq := id.PacketSeq(1); seq <= k; seq++ {
		x := 100 + float64(seq)
		if err := conn.Send(&protocol.GameUpdate{Client: 1, Seq: seq, Kind: protocol.KindMove, Origin: geom.Pt(x-1, 100), Dest: geom.Pt(x, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the registration in the funnel", func() bool {
		h.ingressMu.Lock()
		defer h.ingressMu.Unlock()
		return slices.ContainsFunc(h.ingress, func(im ingressMsg) bool { return im.fn != nil })
	})

	h.tick(time.Now())
	if frames := spy.framesOn(spy.clientConn(h, 1)); len(frames) != 1 || frames[0][0].MsgType() != protocol.TypeClientWelcome {
		t.Fatalf("one tick wrote %d frames to the client, want one opening with its welcome", len(frames))
	}
	tickUntil(t, h, "the updates served", func() bool { return h.Game().Stats().Processed == 1+k })
	if p, _ := clientPos(t, h, 1); p != geom.Pt(100+k, 100) {
		t.Errorf("client at %v after its moves, want (%d,100)", p, 100+k)
	}
	if got := h.Core().Stats().GamePacketsIn; got != k {
		t.Errorf("%d of %d updates reached the Matrix server as a local client's", got, k)
	}
}

// TestCloseWhileClientsRegister: Close returns promptly while clients are
// connecting, some of them mid-registration, and every connection the host
// accepted is closed.
func TestCloseWhileClientsRegister(t *testing.T) {
	mem := transport.NewMemNetwork()
	spy := &spyNetwork{Network: mem}
	h := startServerOn(t, mem, ServerConfig{Network: spy, TickInterval: 2 * time.Millisecond})
	accepted := func() []*spyConn {
		spy.mu.Lock()
		defer spy.mu.Unlock()
		return slices.Clone(spy.accepted)
	}

	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				conn, err := mem.Dial(h.Addr())
				if err != nil {
					return // the listener is closed
				}
				defer conn.Close()
				c := id.ClientID(1 + w*1000 + i)
				if conn.Send(&protocol.ClientHello{Client: c, Pos: geom.Pt(100, 100)}) != nil {
					return
				}
			}
		}()
	}
	waitFor(t, "clients connecting", func() bool { return len(accepted()) >= 20 })
	closed := make(chan struct{})
	go func() {
		h.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close still waits after 2 s")
	}
	wg.Wait()
	conns := accepted()
	open := 0
	for _, c := range conns {
		if !c.closed.Load() {
			open++
		}
	}
	if open != 0 {
		t.Errorf("%d of %d accepted connections left open by Close", open, len(conns))
	}
}

// TestServerCloseDoesNotWaitOnAStuckConnection: Close shuts every open
// connection from its own goroutine, so neither a client that stopped reading,
// whose welcome holds the tick goroutine in its flush, nor a connection that
// never sent its first frame, which holds its goroutine in Recv, keeps it
// waiting.
func TestServerCloseDoesNotWaitOnAStuckConnection(t *testing.T) {
	for _, stuck := range []string{"write", "first frame"} {
		t.Run(stuck, func(t *testing.T) {
			mem := transport.NewMemNetwork()
			nw := &stuckNetwork{Network: mem, writing: make(chan struct{}, 1)}
			h := startServerOn(t, mem, ServerConfig{Network: nw})
			conn, err := mem.Dial(h.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			if stuck == "write" {
				if err := conn.Send(&protocol.ClientHello{Client: 1, Pos: geom.Pt(100, 100)}); err != nil {
					t.Fatal(err)
				}
				select {
				case <-nw.writing: // the welcome, in the tick's flush
				case <-time.After(5 * time.Second):
					t.Fatal("the host never wrote the welcome")
				}
			}
			closed := make(chan struct{})
			go func() {
				h.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(2 * time.Second):
				t.Fatal("Close still waits after 2 s")
			}
		})
	}
}

// TestConnectionTablesHaveOneOwner: the tick goroutine alone touches the
// connection tables. Clients connect, reconnect and drop, the host dials a
// dead and a live peer, and /metrics is scraped, all at once; under -race that
// shows no other goroutine reads or writes a table. Once the clients are gone
// the tables hold exactly the live peer.
func TestConnectionTablesHaveOneOwner(t *testing.T) {
	mem := transport.NewMemNetwork()
	h := startServerOn(t, mem, ServerConfig{Network: mem, TickInterval: 2 * time.Millisecond, ReportInterval: 5 * time.Millisecond})
	addr, closer, err := h.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	peer, err := mem.Listen("peer:live")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	go func() {
		for {
			conn, err := peer.Accept()
			if err != nil {
				return
			}
			go func() { // drained until the host closes it
				for {
					if _, err := conn.Recv(); err != nil {
						return
					}
				}
			}()
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// run calls f until stop, failing the test if f errs or never ran.
	run := func(what string, f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					if n == 0 {
						t.Errorf("%s never ran", what)
					}
					return
				default:
				}
				if err := f(); err != nil {
					t.Errorf("%s: %v", what, err)
					return
				}
			}
		}()
	}
	var mu sync.Mutex
	var kept []transport.Conn // connections the host closes itself on a reconnect
	for w := range 2 {
		n := 0
		run(fmt.Sprintf("client churn %d", w), func() error {
			n++
			c := id.ClientID(1 + w*4 + n%4) // four clients per loop, each reconnecting
			conn, err := mem.Dial(h.Addr())
			if err != nil {
				return err
			}
			if err := conn.Send(&protocol.ClientHello{Client: c, Pos: geom.Pt(100, 100)}); err != nil {
				return err
			}
			if err := conn.Send(update(c, id.PacketSeq(n))); err != nil {
				return err
			}
			time.Sleep(200 * time.Microsecond)
			if n%2 == 0 {
				return conn.Close() // a drop
			}
			mu.Lock()
			kept = append(kept, conn)
			mu.Unlock()
			return nil
		})
	}
	run("peer sends", func() error {
		time.Sleep(time.Millisecond)
		return h.onTick(func() error {
			h.sendPeerMsgs("peer:dead", fwd(1))
			h.sendPeerMsgs("peer:live", fwd(2))
			return nil
		})
	})
	run("scrape", func() error {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	})
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	for _, conn := range kept {
		conn.Close()
	}
	waitFor(t, "every avatar evicted", func() bool { return h.Game().ClientCount() == 0 })
	waitFor(t, "the tables settled", func() (settled bool) {
		_ = h.onTick(func() error {
			_, live := h.peers["peer:live"]
			settled = len(h.clients) == 0 && len(h.evict) == 0 && len(h.out.clients) == 0 &&
				len(h.dialing) == 0 && len(h.peers) == 1 && live
			return nil
		})
		return settled
	})
	if h.backlogDrops.Load() == 0 {
		t.Error("no frame to the dead peer counted as dropped")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "\nmatrix_server_peer_conns 1\n") {
		t.Errorf("/metrics does not count the one live peer:\n%s", body)
	}
}

// TestClientConnectionSpeaksOnlyForItsSession: after its hello, a client
// connection carries its own client's game updates and nothing else. An
// update of another client, a state transfer or a range change sent on it is
// dropped at the pump and counted, so client 1 can neither move nor despawn
// client 2's avatar, plant one of its own making, nor re-range the server.
func TestClientConnectionSpeaksOnlyForItsSession(t *testing.T) {
	// session joins clients 1 and 2 to a host without a tick loop, sends the
	// frames on client 1's connection, then a move of client 1's own, and
	// ticks until that move has run: whatever was sent before it has then been
	// served or dropped.
	session := func(t *testing.T, frames ...protocol.Message) *ServerHost {
		nw := transport.NewMemNetwork()
		h := newServerOn(t, nw, ServerConfig{Network: nw})
		conn := sendHello(t, nw, h, 1, geom.Pt(100, 100))
		sendHello(t, nw, h, 2, geom.Pt(110, 100))
		tickUntil(t, h, "clients joined", func() bool { return h.Game().ClientCount() == 2 })
		for _, m := range append(frames, &protocol.GameUpdate{Client: 1, Seq: 9, Kind: protocol.KindMove, Origin: geom.Pt(100, 100), Dest: geom.Pt(102, 100)}) {
			if err := conn.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		tickUntil(t, h, "client 1's own move", func() bool { p, _ := clientPos(t, h, 1); return p == geom.Pt(102, 100) })
		return h
	}
	foreign := func(t *testing.T, h *ServerHost, want uint64) {
		t.Helper()
		if got := scrapeCounter(t, h, "matrix_server_client_foreign_total"); got != want {
			t.Errorf("matrix_server_client_foreign_total = %d, want %d", got, want)
		}
	}

	t.Run("another client's updates", func(t *testing.T) {
		h := session(t,
			&protocol.GameUpdate{Client: 2, Seq: 1, Kind: protocol.KindMove, Origin: geom.Pt(110, 100), Dest: geom.Pt(150, 100)},
			&protocol.GameUpdate{Client: 2, Seq: 2, Kind: protocol.KindDespawn, Origin: geom.Pt(150, 100), Dest: geom.Pt(150, 100)})
		if p, ok := clientPos(t, h, 2); !ok || p != geom.Pt(110, 100) {
			t.Errorf("client 2's avatar is at %v (present: %v), want it untouched at (110,100)", p, ok)
		}
		foreign(t, h, 2)
	})
	t.Run("a state transfer", func(t *testing.T) {
		h := session(t, &protocol.StateTransfer{From: 99, To: 1, Objects: []protocol.ObjectState{{Client: 77, Pos: geom.Pt(120, 100)}}, Final: true})
		if _, ok := clientPos(t, h, 77); ok || h.Game().ClientCount() != 2 {
			t.Errorf("client 1 planted avatar 77: %d avatars", h.Game().ClientCount())
		}
		foreign(t, h, 1)
	})
	t.Run("a range update", func(t *testing.T) {
		h := session(t, &protocol.RangeUpdate{Bounds: geom.R(0, 0, 200, 200)})
		var game geom.Rect
		_ = h.onTick(func() error { game = h.node.Game.Bounds(); return nil })
		if core := h.Core(); !core.Active() || game != core.Bounds() {
			t.Errorf("after a client's range update: server active %v, owning %v, its game server %v; want both unchanged", core.Active(), core.Bounds(), game)
		}
		foreign(t, h, 1)
	})
}
