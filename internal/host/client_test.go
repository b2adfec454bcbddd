package host

import (
	"sync"
	"testing"
	"time"

	"matrix/internal/gameclient"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/protocol"
	"matrix/internal/transport"
)

// TestClientHostPumpAndPlayerShareTheClient plays the one place two
// goroutines share a game client: the receive pump handles a stream of
// updates (echoes among them) and a redirect to a second server, while a
// player goroutine moves and reads the client. Run under -race it proves
// that ClientHost's lock covers every path, the state machine having none.
func TestClientHostPumpAndPlayerShareTheClient(t *testing.T) {
	const me, updates = id.ClientID(1), 200
	nw := transport.NewMemNetwork()
	done := make(chan struct{})
	defer close(done)
	// serve plays one game server: welcome the client, stream updates,
	// then send last (if any) and keep the connection until the test ends.
	serve := func(addr string, sid id.ServerID, last protocol.Message) (transport.Listener, chan error) {
		l, err := nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		errc := make(chan error, 1)
		go func() {
			conn, err := l.Accept()
			if err != nil {
				errc <- err
				return
			}
			defer conn.Close()
			errc <- func() error {
				if _, err := conn.Recv(); err != nil { // the hello
					return err
				}
				if err := conn.Send(&protocol.ClientWelcome{Server: sid}); err != nil {
					return err
				}
				for i := range updates {
					from := id.ClientID(2 + i%3)
					if i%4 == 0 {
						from = me // an echo: a latency sample
					}
					u := &protocol.GameUpdate{Client: from, Seq: id.PacketSeq(i + 1), Kind: protocol.KindMove, SentUnix: time.Now().UnixNano()}
					if err := conn.Send(u); err != nil {
						return err
					}
				}
				if last != nil {
					return conn.Send(last)
				}
				return nil
			}()
			<-done
		}()
		return l, errc
	}
	_, errb := serve("server-b", 2, nil)
	la, erra := serve("server-a", 1, &protocol.Redirect{Client: me, NewOwner: 2, NewAddr: "server-b"})

	ch, err := DialClient(ClientConfig{Network: nw, ServerAddr: la.Addr(), Client: gameclient.Config{ID: me}, RedialEvery: -1})
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer ch.Close()
	cl := ch.Client()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var moves uint64
	wg.Add(1)
	go func() { // the player
		defer wg.Done()
		for ; ; moves++ {
			select {
			case <-stop:
				return
			default:
			}
			if u := cl.MakeMove(geom.Pt(float64(moves), 1)); u.Client != me {
				t.Errorf("move from %v", u.Client)
			}
			_ = cl.Stats()
			_ = cl.Pos()
			_ = cl.Latencies()
			_, _ = cl.Connected(), cl.Server()
		}
	}()
	waitFor(t, "both servers' streams", func() bool {
		return cl.Server() == 2 && cl.Connected() && cl.Stats().Received == 2*updates
	})
	close(stop)
	wg.Wait()
	for _, errc := range []chan error{erra, errb} {
		if err := <-errc; err != nil {
			t.Fatalf("server: %v", err)
		}
	}
	st := cl.Stats()
	if st.Sent != moves || st.Switches != 1 || st.Welcomes != 2 || st.EchoCount != updates/2 {
		t.Errorf("stats = %+v after %d moves, want 1 switch, 2 welcomes, %d echoes", st, moves, updates/2)
	}
	if want := geom.Pt(float64(moves-1), 1); moves > 0 && cl.Pos() != want {
		t.Errorf("Pos = %v, want the last move's %v", cl.Pos(), want)
	}
	if n := len(cl.Latencies()); uint64(n) > st.EchoCount {
		t.Errorf("%d latency samples for %d echoes", n, st.EchoCount)
	}
}
