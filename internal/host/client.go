package host

import (
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"matrix/internal/gameclient"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/protocol"
	"matrix/internal/transport"
)

// ClientConfig configures a hosted game client.
type ClientConfig struct {
	// Network supplies transports.
	Network transport.Network
	// ServerAddr is the initial game server to join.
	ServerAddr string
	// Client is the client state machine's configuration.
	Client gameclient.Config
	// AuthToken is the session credential stamped on every hello (initial
	// join and every redirect rejoin), verified by servers running the
	// middleware auth stage. Empty keeps hellos token-free.
	AuthToken string
	// WelcomeTimeout bounds the join handshake (default 5s).
	WelcomeTimeout time.Duration
	// FallbackAddrs lists additional game servers to try when the live
	// connection dies without a redirect (the owner crashed). The redial
	// loop cycles last-known-owner, ServerAddr, then these until one
	// accepts the hello; the hello-retry path on any live server then
	// routes the client to its real owner.
	FallbackAddrs []string
	// RedialEvery is the crash-reconnect retry cadence (default 200ms,
	// negative disables redialing entirely).
	RedialEvery time.Duration
	// Logger receives diagnostics (nil = silent).
	Logger *log.Logger
}

// ClientHost drives one game client over the network, transparently
// reconnecting on redirects (the player never notices Matrix).
type ClientHost struct {
	cfg ClientConfig
	cl  Client

	mu        sync.Mutex
	conn      transport.Conn
	closed    bool
	redialing bool // one crash-redial loop at a time

	welcomed chan struct{} // closed on first welcome
	once     sync.Once
	wg       sync.WaitGroup
}

// DialClient connects, joins, and starts the receive pump. It returns once
// the first welcome arrives (the client is in the game).
func DialClient(cfg ClientConfig) (*ClientHost, error) {
	if cfg.WelcomeTimeout <= 0 {
		cfg.WelcomeTimeout = 5 * time.Second
	}
	if cfg.RedialEvery == 0 {
		cfg.RedialEvery = 200 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	cl, err := gameclient.New(cfg.Client)
	if err != nil {
		return nil, err
	}
	h := &ClientHost{cfg: cfg, cl: Client{cl: *cl}, welcomed: make(chan struct{})}
	if err := h.connect(cfg.ServerAddr); err != nil {
		return nil, err
	}
	select {
	case <-h.welcomed:
		return h, nil
	case <-time.After(cfg.WelcomeTimeout):
		_ = h.Close()
		return nil, ErrNotWelcomed
	}
}

// connect dials addr, sends the hello and starts the pump for that
// connection.
func (h *ClientHost) connect(addr string) error {
	conn, err := h.cfg.Network.Dial(addr)
	if err != nil {
		return fmt.Errorf("host: client dial %s: %w", addr, err)
	}
	hello := h.cl.hello()
	hello.Token = h.cfg.AuthToken
	if err := conn.Send(hello); err != nil {
		_ = conn.Close()
		return err
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		_ = conn.Close()
		return ErrClosed
	}
	old := h.conn
	h.conn = conn
	h.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	h.wg.Add(1)
	go h.recvLoop(conn)
	return nil
}

// recvLoop pumps one connection until it dies or is replaced. A connection
// that dies while still current (no redirect replaced it) means the server
// crashed under the client: the redial loop takes over.
func (h *ClientHost) recvLoop(conn transport.Conn) {
	defer h.wg.Done()
	for {
		m, err := conn.Recv()
		if err != nil {
			h.maybeRedial(conn)
			return
		}
		h.cl.mu.Lock()
		ev, err := h.cl.cl.Handle(m)
		h.cl.mu.Unlock()
		if err != nil {
			h.cfg.Logger.Printf("client %v: %v", h.cl.ID(), err)
			continue
		}
		switch ev {
		case gameclient.EventConnected:
			h.once.Do(func() { close(h.welcomed) })
		case gameclient.EventSwitchServer:
			// Transparent server switch: reconnect in the background so
			// this loop can drain and exit.
			addr := h.cl.serverAddr()
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				if err := h.connect(addr); err != nil && err != ErrClosed {
					h.cfg.Logger.Printf("client %v: reconnect %s: %v", h.cl.ID(), addr, err)
					// The redirect target is already gone too; fall back
					// to cycling every known address.
					h.startRedial()
				}
			}()
			return
		}
	}
}

// maybeRedial starts the crash-redial loop if dead is still the live
// connection — a redirect-replaced connection dying is routine, not a
// crash.
func (h *ClientHost) maybeRedial(dead transport.Conn) {
	h.mu.Lock()
	current := h.conn == dead && !h.closed
	h.mu.Unlock()
	if current {
		h.startRedial()
	}
}

// startRedial spawns at most one background redial loop. Only clients that
// made it into the game redial: a connection rejected at the hello (bad
// token, admission) surfaces as ErrNotWelcomed from DialClient instead of
// hammering the server with retries.
func (h *ClientHost) startRedial() {
	if h.cfg.RedialEvery <= 0 {
		return
	}
	select {
	case <-h.welcomed:
	default:
		return
	}
	h.mu.Lock()
	if h.closed || h.redialing {
		h.mu.Unlock()
		return
	}
	h.redialing = true
	h.mu.Unlock()
	h.cl.disconnect()
	h.wg.Add(1)
	go h.redialLoop()
}

// redialLoop cycles candidate servers until one accepts the hello again:
// the last-known owner first (it may come back), then the original join
// address, then the configured fallbacks. Any live Matrix server welcomes
// the client and, via the hello-retry path, migrates it to the partition
// owner — so reaching *any* survivor is enough to converge.
func (h *ClientHost) redialLoop() {
	defer h.wg.Done()
	defer func() {
		h.mu.Lock()
		h.redialing = false
		h.mu.Unlock()
	}()
	for attempt := 0; ; attempt++ {
		h.mu.Lock()
		closed := h.closed
		h.mu.Unlock()
		if closed {
			return
		}
		var cands []string
		if a := h.cl.serverAddr(); a != "" {
			cands = append(cands, a)
		}
		if h.cfg.ServerAddr != "" {
			cands = append(cands, h.cfg.ServerAddr)
		}
		cands = append(cands, h.cfg.FallbackAddrs...)
		if len(cands) == 0 {
			return
		}
		addr := cands[attempt%len(cands)]
		err := h.connect(addr)
		if err == nil {
			h.cfg.Logger.Printf("client %v: re-joined via %s", h.cl.ID(), addr)
			return
		}
		if err == ErrClosed {
			return
		}
		time.Sleep(h.cfg.RedialEvery)
	}
}

// Send transmits one update to the current game server.
func (h *ClientHost) Send(u *protocol.GameUpdate) error {
	h.mu.Lock()
	conn := h.conn
	closed := h.closed
	h.mu.Unlock()
	if closed || conn == nil {
		return ErrClosed
	}
	return conn.Send(u)
}

// Client exposes the client state machine (positions, latencies, stats).
func (h *ClientHost) Client() *Client { return &h.cl }

// Client is the game client a ClientHost's receive pump (recvLoop) and its
// player (every exported method) share, so the lock a gameclient.Client does
// not take lives here: each method is its gameclient namesake under the lock.
type Client struct {
	mu sync.Mutex
	cl gameclient.Client
}

func (c *Client) ID() id.ClientID              { return c.cl.ID() } // fixed at creation: no lock
func (c *Client) Pos() geom.Point              { c.mu.Lock(); defer c.mu.Unlock(); return c.cl.Pos() }
func (c *Client) Server() id.ServerID          { c.mu.Lock(); defer c.mu.Unlock(); return c.cl.Server() }
func (c *Client) Connected() bool              { c.mu.Lock(); defer c.mu.Unlock(); return c.cl.Connected() }
func (c *Client) Stats() gameclient.Stats      { c.mu.Lock(); defer c.mu.Unlock(); return c.cl.Stats() }
func (c *Client) hello() *protocol.ClientHello { c.mu.Lock(); defer c.mu.Unlock(); return c.cl.Hello() }
func (c *Client) serverAddr() string           { c.mu.Lock(); defer c.mu.Unlock(); return c.cl.ServerAddr() }
func (c *Client) disconnect()                  { c.mu.Lock(); defer c.mu.Unlock(); c.cl.Disconnect() }

func (c *Client) Latencies() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cl.Latencies()
}

func (c *Client) MakeMove(dest geom.Point) *protocol.GameUpdate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cl.MakeMove(dest)
}

func (c *Client) MakeAction(kind protocol.UpdateKind, dest geom.Point) *protocol.GameUpdate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cl.MakeAction(kind, dest)
}

// Close disconnects and waits for the pumps.
func (h *ClientHost) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	conn := h.conn
	h.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	h.wg.Wait()
	return nil
}
