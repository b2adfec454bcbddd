package host

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"matrix/internal/clock"
	"matrix/internal/coordinator"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/protocol"
	"matrix/internal/transport"
)

// TestCoordinatorHasOneOwner: the host's lock owns the coordinator, fan-out
// included. Five servers register at once against a 2×2 static layout — the
// fourth to land fans tables out to all four — and each reads its
// RegisterReply before any other frame. Then every server's load reports and
// heartbeats, an admin drain, /metrics and /fleetz renders, view reads and the
// lease loop run side by side, and the space invariants hold at the end.
func TestCoordinatorHasOneOwner(t *testing.T) {
	nw := transport.NewMemNetwork()
	h, err := ServeCoordinator(nw, "", coordinator.Config{
		World:  geom.R(0, 0, 1000, 1000),
		Static: []geom.Rect{geom.R(0, 0, 500, 500), geom.R(500, 0, 1000, 500), geom.R(0, 500, 500, 1000), geom.R(500, 500, 1000, 1000)},
		// The lease loop ticks every millisecond on a clock that never
		// moves: Tick runs throughout and expires nobody.
		HeartbeatEvery: time.Millisecond,
		Clock:          clock.NewVirtual(time.Unix(0, 0)),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })

	const servers = 5 // the four static rectangles and one spare
	conns := make([]transport.Conn, servers)
	ids := make([]id.ServerID, servers)
	var drainee id.ServerID
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := nw.Dial(h.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			t.Cleanup(func() { conn.Close() })
			if err := conn.Send(&protocol.RegisterRequest{Addr: fmt.Sprintf("server-%d", i), Radius: 40}); err != nil {
				t.Error(err)
				return
			}
			first, err := conn.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			reply, ok := first.(*protocol.RegisterReply)
			if !ok {
				t.Errorf("server %d's first frame was %v, want its RegisterReply", i, first.MsgType())
				return
			}
			conns[i], ids[i] = conn, reply.Server
			mu.Lock()
			if !reply.Bounds.Empty() && !drainee.Valid() {
				drainee = reply.Server
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	stop := make(chan struct{})
	var running sync.WaitGroup
	// run calls f until stop, failing the test if f errs or never ran.
	run := func(what string, f func() error) {
		running.Add(1)
		go func() {
			defer running.Done()
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
	for i, conn := range conns {
		go func() { // the rest of the fan-out, read and dropped
			for {
				if _, err := conn.Recv(); err != nil {
					return
				}
			}
		}()
		run("reports", func() error {
			time.Sleep(100 * time.Microsecond)
			if err := conn.Send(&protocol.LoadReport{Server: ids[i], Clients: int32(i)}); err != nil {
				return err
			}
			return conn.Send(&protocol.Heartbeat{Server: ids[i], Clients: int32(i)})
		})
	}
	run("views", func() error {
		v := h.MC()
		_, _, _ = v.ActiveServers(), v.Partitions(), v.Parked()
		_, _, _, _, _ = v.Splits(), v.Reclaims(), v.Deaths(), v.Adoptions(), v.CheckpointSize(ids[0])
		time.Sleep(50 * time.Microsecond)
		return v.Validate()
	})
	run("scrapes", func() error {
		var metrics bytes.Buffer
		h.writeMetrics(&metrics)
		fleetz := httptest.NewRecorder()
		h.serveFleetz(fleetz, httptest.NewRequest("GET", "/fleetz", nil))
		if !strings.Contains(metrics.String(), "\nmatrix_mc_active_servers 4\n") || !strings.Contains(fleetz.Body.String(), `"regions"`) {
			return fmt.Errorf("a render missed the fleet:\n%s\n%s", metrics.String(), fleetz.Body.String())
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	time.Sleep(20 * time.Millisecond)
	if err := h.AdminDrain(drainee, false); err != nil {
		t.Errorf("AdminDrain(%v): %v", drainee, err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	running.Wait()

	v := h.MC()
	if err := v.Validate(); err != nil {
		t.Errorf("Validate = %v", err)
	}
	if got := v.Drains(); got != 1 {
		t.Errorf("Drains = %d, want 1", got)
	}
	if active := v.ActiveServers(); len(active) != 4 || v.Deaths() != 0 {
		t.Errorf("active = %v, deaths = %d: want the four rectangles owned and nobody dead", active, v.Deaths())
	}
}

// TestCoordinatorCloseDoesNotWaitOnAStuckWrite: a decision holds the host's
// lock until its frames are written, so a server that stops reading stalls
// the next decision — but not /readyz or shutdown. Close shuts the stuck
// server's conn, which fails the write and frees the lock.
func TestCoordinatorCloseDoesNotWaitOnAStuckWrite(t *testing.T) {
	inner := transport.NewMemNetwork()
	nw := &stuckNetwork{Network: inner, writing: make(chan struct{}, 1)}
	h, err := ServeCoordinator(nw, "", coordinatorConfigForTest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := inner.Dial(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.Send(&protocol.RegisterRequest{Addr: "server-1", Radius: 40}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-nw.writing: // the RegisterReply, inside the registration's decision
	case <-time.After(5 * time.Second):
		t.Fatal("the host never wrote the RegisterReply")
	}

	// within fails the test unless f returns promptly.
	within := func(what string, f func()) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s waited on the stuck write", what)
		}
	}
	within("Ready", func() {
		if err := h.Ready(); err != nil {
			t.Errorf("Ready = %v before Close, want nil", err)
		}
	})
	within("Close", func() { h.Close() })
	if h.Ready() == nil {
		t.Error("Ready = nil after Close")
	}
}

// stuckNetwork hands a listening host conns whose writes block until the
// conn is closed: servers that stopped reading, their socket buffers full.
// Each write that blocks is signalled on writing, when it has room.
type stuckNetwork struct {
	transport.Network
	writing chan struct{}
}

func (n *stuckNetwork) Listen(addr string) (transport.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return stuckListener{l, n.writing}, nil
}

type stuckListener struct {
	transport.Listener
	writing chan struct{}
}

func (l stuckListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &stuckConn{Conn: c, writing: l.writing, closed: make(chan struct{})}, nil
}

type stuckConn struct {
	transport.Conn
	writing chan struct{}
	once    sync.Once
	closed  chan struct{}
}

func (c *stuckConn) Send(protocol.Message) error {
	select {
	case c.writing <- struct{}{}:
	default:
	}
	<-c.closed
	return transport.ErrClosed
}

func (c *stuckConn) SendBatch([]protocol.Message) error { return c.Send(nil) }

func (c *stuckConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
