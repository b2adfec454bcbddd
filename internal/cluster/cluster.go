// Package cluster is an in-process fleet harness: one Matrix Coordinator,
// K Matrix servers and a population of game clients, wired over the
// in-memory transport and running the exact hosts the cmd/ binaries run.
// Tests kill, zombify and drain servers and assert that the fleet heals —
// warm spares adopt the victim's regions from its last checkpoint and
// clients reconnect to whichever survivor owns their position.
package cluster

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"matrix/internal/clock"
	"matrix/internal/coordinator"
	"matrix/internal/gameclient"
	"matrix/internal/geom"
	"matrix/internal/host"
	"matrix/internal/id"
	"matrix/internal/load"
	"matrix/internal/protocol"
	"matrix/internal/trace"
	"matrix/internal/transport"
)

// Config sizes the fleet. The zero value is usable: defaults favour fast
// convergence under `go test` (10ms heartbeats, 25ms checkpoints, 2ms
// ticks) and a lease no scheduler stall can expire.
type Config struct {
	// Servers is the initial fleet size; the first owns the whole world,
	// the rest wait as warm spares (default 2).
	Servers int
	// Static, when non-empty, pins the i-th server to Static[i] (tiles that
	// cover World exactly) and makes the fleet that size: several active
	// servers from the start.
	Static []geom.Rect
	// HeartbeatEvery is both the servers' beat cadence and the
	// coordinator's lease tick (default 10ms).
	HeartbeatEvery time.Duration
	// LeaseMisses kills a lease after this many missed beats. The default,
	// 1000 (a 10s lease), outlasts every wait in the suites: a kill or a
	// drain is detected through the dropped connection, and on a loaded
	// machine a short wall-clock lease expires on healthy servers whose
	// heartbeat goroutine was merely starved. Only a test that zombifies a
	// server (connection up, beats paused) needs a short lease, and sets it.
	LeaseMisses int
	// Clock, when non-nil, is the coordinator's lease clock: beats and lease
	// checks keep their wall cadence, a lease runs out only when the test
	// advances this clock past it.
	Clock clock.Clock
	// CheckpointEvery is the servers' checkpoint-shipping cadence
	// (default 25ms).
	CheckpointEvery time.Duration
	// TickInterval is the servers' longest gap between game ticks (default 2ms).
	TickInterval time.Duration
	// RedialEvery is the clients' crash-reconnect cadence (default 20ms,
	// negative disables redialing — for tests that isolate the
	// checkpoint-restore path from client rejoins).
	RedialEvery time.Duration
	// World is the full game world (default 1000x1000).
	World geom.Rect
	// Radius is the visibility radius (default 40).
	Radius float64
	// Load tunes split/reclaim thresholds (zero = paper defaults).
	Load load.Config
	// Logger receives fleet diagnostics (nil = silent).
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if len(c.Static) > 0 {
		c.Servers = len(c.Static)
	}
	if c.Servers == 0 {
		c.Servers = 2
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 10 * time.Millisecond
	}
	if c.LeaseMisses == 0 {
		c.LeaseMisses = 1000
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 25 * time.Millisecond
	}
	if c.TickInterval == 0 {
		c.TickInterval = 2 * time.Millisecond
	}
	if c.RedialEvery == 0 {
		c.RedialEvery = 20 * time.Millisecond
	}
	if c.World.Empty() {
		c.World = geom.R(0, 0, 1000, 1000)
	}
	if c.Radius == 0 {
		c.Radius = 40
	}
	return c
}

// Cluster is a running in-process fleet.
type Cluster struct {
	cfg Config
	nw  transport.Network
	mc  *host.CoordinatorHost

	mu      sync.Mutex
	servers map[id.ServerID]*host.ServerHost
	clients map[id.ClientID]*host.ClientHost
	killed  map[id.ServerID]bool
}

// New starts a coordinator with health tracking on and cfg.Servers
// servers.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	nw := transport.NewMemNetwork()
	mc, err := host.ServeCoordinator(nw, "", coordinator.Config{
		World:          cfg.World,
		Static:         cfg.Static,
		HeartbeatEvery: cfg.HeartbeatEvery,
		LeaseMisses:    cfg.LeaseMisses,
		Clock:          cfg.Clock,
	}, cfg.Logger)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:     cfg,
		nw:      nw,
		mc:      mc,
		servers: make(map[id.ServerID]*host.ServerHost),
		clients: make(map[id.ClientID]*host.ClientHost),
		killed:  make(map[id.ServerID]bool),
	}
	for i := 0; i < cfg.Servers; i++ {
		if _, err := c.AddServer(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// AddServer registers one more server with the coordinator. It becomes a
// warm spare unless the world is unowned (first server, or a parked
// region waits — then it adopts immediately).
func (c *Cluster) AddServer() (id.ServerID, error) { return c.addServer(nil) }

// AddServerTraced is AddServer with a tracer attached from boot, so a test
// can follow a control-plane decision's correlation ID from the
// coordinator's trace into this server's.
func (c *Cluster) AddServerTraced(tr *trace.Tracer) (id.ServerID, error) { return c.addServer(tr) }

// SetCoordinatorTracer attaches a tracer to the coordinator host: every
// correlation-stamped control frame it fans out from now on gets an
// instant event (see host.CoordinatorHost.SetTracer).
func (c *Cluster) SetCoordinatorTracer(tr *trace.Tracer) { c.mc.SetTracer(tr) }

func (c *Cluster) addServer(tr *trace.Tracer) (id.ServerID, error) {
	h, err := host.StartServer(host.ServerConfig{
		Network:         c.nw,
		Coordinator:     c.mc.Addr(),
		Radius:          c.cfg.Radius,
		Load:            c.cfg.Load,
		TickInterval:    c.cfg.TickInterval,
		HeartbeatEvery:  c.cfg.HeartbeatEvery,
		CheckpointEvery: c.cfg.CheckpointEvery,
		ReportInterval:  c.cfg.HeartbeatEvery,
		Logger:          c.cfg.Logger,
		Tracer:          tr,
	})
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.servers[h.ID()] = h
	c.mu.Unlock()
	return h.ID(), nil
}

// AddClient joins one client at pos. Its redial fallback list is the
// address of every server alive right now, so it can survive the crash of
// its own server as long as any other is reachable.
func (c *Cluster) AddClient(cid id.ClientID, pos geom.Point) error {
	owner := c.ownerAddr(pos)
	if owner == "" {
		return errors.New("cluster: no active server owns that position")
	}
	h, err := host.DialClient(host.ClientConfig{
		Network:       c.nw,
		ServerAddr:    owner,
		Client:        gameclient.Config{ID: cid, Pos: pos},
		FallbackAddrs: c.Addrs(),
		RedialEvery:   c.cfg.RedialEvery,
		Logger:        c.cfg.Logger,
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.clients[cid] = h
	c.mu.Unlock()
	return nil
}

// ownerAddr finds the address of the active server owning pos.
func (c *Cluster) ownerAddr(pos geom.Point) string {
	for _, p := range c.mc.MC().Partitions() {
		if p.Bounds.Contains(pos) {
			c.mu.Lock()
			h := c.servers[p.Owner]
			c.mu.Unlock()
			if h != nil {
				return h.Addr()
			}
		}
	}
	return ""
}

// MC returns a locked view of the coordinator for assertions.
func (c *Cluster) MC() host.CoordinatorView { return c.mc.MC() }

// Server returns a server host by ID (nil after Kill).
func (c *Cluster) Server(sid id.ServerID) *host.ServerHost {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.servers[sid]
}

// Client returns a client host by ID.
func (c *Cluster) Client(cid id.ClientID) *host.ClientHost {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clients[cid]
}

// Addrs lists the addresses of every live server.
func (c *Cluster) Addrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, 0, len(c.servers))
	for _, h := range c.servers {
		addrs = append(addrs, h.Addr())
	}
	return addrs
}

// Kill takes a server down without ceremony — the in-process equivalent of
// kill -9: its listener and every connection drop dead. The coordinator
// sees the disconnect and remediates immediately.
func (c *Cluster) Kill(sid id.ServerID) error {
	c.mu.Lock()
	h := c.servers[sid]
	delete(c.servers, sid)
	c.killed[sid] = true
	c.mu.Unlock()
	if h == nil {
		return fmt.Errorf("cluster: no server %v", sid)
	}
	return h.Close()
}

// KillCoordinator takes the coordinator down the same way. Nothing restarts
// it; MC() goes on answering with the state it died in.
func (c *Cluster) KillCoordinator() error { return c.mc.Close() }

// Zombie pauses (or resumes) a server's heartbeats while keeping its
// connections alive — the partitioned-but-running failure mode. The
// coordinator can only catch it by lease expiry.
func (c *Cluster) Zombie(sid id.ServerID, paused bool) error {
	h := c.Server(sid)
	if h == nil {
		return fmt.Errorf("cluster: no server %v", sid)
	}
	h.PauseHeartbeats(paused)
	return nil
}

// AdminDrain drains target over the wire: it opens an admin connection to
// the coordinator with a DrainRequest frame, exactly like
// `matrix-coordinator -drain N`.
func (c *Cluster) AdminDrain(target id.ServerID, exit bool) error {
	conn, err := c.nw.Dial(c.mc.Addr())
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(&protocol.DrainRequest{Server: target, Exit: exit}); err != nil {
		return err
	}
	reply, err := conn.Recv()
	if err != nil {
		return err
	}
	dr, ok := reply.(*protocol.DrainReply)
	if !ok {
		return fmt.Errorf("cluster: unexpected drain reply %v", reply.MsgType())
	}
	if !dr.Granted {
		return fmt.Errorf("cluster: drain denied: %s", dr.Reason)
	}
	return nil
}

// Pulse makes every connected client send one small move around its
// current position — enough traffic to exercise routing and, after a
// topology change, the hello-retry migration to the new owner.
func (c *Cluster) Pulse() {
	c.mu.Lock()
	clients := make([]*host.ClientHost, 0, len(c.clients))
	for _, h := range c.clients {
		clients = append(clients, h)
	}
	c.mu.Unlock()
	for _, h := range clients {
		cl := h.Client()
		pos := cl.Pos()
		_ = h.Send(cl.MakeMove(geom.Pt(pos.X+1, pos.Y)))
	}
}

// ClientServers reports which server each client currently believes owns
// it.
func (c *Cluster) ClientServers() map[id.ClientID]id.ServerID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[id.ClientID]id.ServerID, len(c.clients))
	for cid, h := range c.clients {
		out[cid] = h.Client().Server()
	}
	return out
}

// WaitUntil polls cond (with a Pulse between polls, so client traffic
// keeps flowing) until it holds or the deadline passes.
func (c *Cluster) WaitUntil(d time.Duration, cond func() bool) bool {
	return c.wait(d, cond, true)
}

// WaitUntilQuiet is WaitUntil without the pulses: clients stay frozen, for
// tests that assert exact world state across a heal.
func (c *Cluster) WaitUntilQuiet(d time.Duration, cond func() bool) bool {
	return c.wait(d, cond, false)
}

func (c *Cluster) wait(d time.Duration, cond func() bool, pulse bool) bool {
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		if pulse {
			c.Pulse()
		}
		time.Sleep(c.cfg.TickInterval)
	}
}

// Close tears the whole fleet down, clients first.
func (c *Cluster) Close() {
	c.mu.Lock()
	clients := c.clients
	servers := c.servers
	c.clients = make(map[id.ClientID]*host.ClientHost)
	c.servers = make(map[id.ServerID]*host.ServerHost)
	c.mu.Unlock()
	for _, h := range clients {
		_ = h.Close()
	}
	for _, h := range servers {
		_ = h.Close()
	}
	_ = c.mc.Close()
}
