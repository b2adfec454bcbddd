package matrix

import (
	"io"
	"time"

	"matrix/internal/host"
)

// Coordinator is a running Matrix Coordinator.
type Coordinator struct {
	h *host.CoordinatorHost
}

// ServeCoordinator starts the MC. Servers dial Addr() to register; the
// first registered server owns the whole world, later ones join the spare
// pool (unless WithStaticPartitions pins them).
func ServeCoordinator(opts ...Option) (*Coordinator, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	cfg, err := o.coordinatorConfig()
	if err != nil {
		return nil, err
	}
	h, err := host.ServeCoordinator(o.network, o.addr, cfg, o.logger)
	if err != nil {
		return nil, err
	}
	if o.tracer != nil {
		h.SetTracer(o.tracer)
	}
	return &Coordinator{h: h}, nil
}

// Addr returns the address servers dial to register.
func (c *Coordinator) Addr() string { return c.h.Addr() }

// ActiveServers lists the servers currently owning partitions.
func (c *Coordinator) ActiveServers() []ServerID { return c.h.MC().ActiveServers() }

// Splits returns the number of granted splits so far.
func (c *Coordinator) Splits() int { return c.h.MC().Splits() }

// Reclaims returns the number of granted reclamations so far.
func (c *Coordinator) Reclaims() int { return c.h.MC().Reclaims() }

// Deaths returns the number of servers declared dead so far (health
// tracking must be on — see WithHeartbeatEvery).
func (c *Coordinator) Deaths() int { return c.h.MC().Deaths() }

// Adoptions returns the number of dead-server regions re-homed onto warm
// spares so far.
func (c *Coordinator) Adoptions() int { return c.h.MC().Adoptions() }

// Drains returns the number of operator drains granted so far.
func (c *Coordinator) Drains() int { return c.h.MC().Drains() }

// Parked lists regions whose owners died with no spare available; they are
// adopted the moment a spare registers.
func (c *Coordinator) Parked() []ServerID { return c.h.MC().Parked() }

// Drain migrates target's partition off it — to a warm spare via live
// handoff, or folded into its parent when the pool is empty — and returns
// the server to the spare pool, or retires it when exit is set. Requires
// health tracking (WithHeartbeatEvery).
func (c *Coordinator) Drain(target ServerID, exit bool) error {
	return c.h.AdminDrain(target, exit)
}

// Partitions snapshots the current world partitioning as (server, rect)
// pairs.
func (c *Coordinator) Partitions() map[ServerID]Rect {
	out := make(map[ServerID]Rect)
	for _, p := range c.h.MC().Partitions() {
		out[p.Owner] = p.Bounds
	}
	return out
}

// ServeMetrics starts a Prometheus-format /metrics HTTP endpoint for the
// coordinator on addr (host:0 picks an ephemeral port). It returns the
// bound address and a closer that stops the endpoint.
func (c *Coordinator) ServeMetrics(addr string) (string, io.Closer, error) {
	return c.h.ServeMetrics(addr)
}

// Close shuts the coordinator down.
func (c *Coordinator) Close() error { return c.h.Close() }

// Server is a running Matrix server with its co-located game server.
type Server struct {
	h *host.ServerHost
}

// StartServer registers a new server with the coordinator at mcAddr and
// starts serving game clients and peer Matrix servers.
func StartServer(mcAddr string, opts ...Option) (*Server, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	h, err := host.StartServer(host.ServerConfig{
		Network:         o.network,
		Coordinator:     mcAddr,
		ListenAddr:      o.addr,
		Radius:          o.radius,
		Load:            o.loadPolicy,
		Policy:          o.policy,
		TickInterval:    o.tick,
		ServiceRate:     o.serviceRate,
		MaxQueue:        o.maxQueue,
		ReportInterval:  o.report,
		Logger:          o.logger,
		Restore:         o.restore,
		Middleware:      o.mw,
		HeartbeatEvery:  o.heartbeat,
		CheckpointEvery: o.checkpoint,
		Tracer:          o.tracer,
	})
	if err != nil {
		return nil, err
	}
	return &Server{h: h}, nil
}

// ID returns the server's identity, assigned by the coordinator.
func (s *Server) ID() ServerID { return s.h.ID() }

// Addr returns the address game clients dial.
func (s *Server) Addr() string { return s.h.Addr() }

// Bounds returns the owned partition (empty while a spare).
func (s *Server) Bounds() Rect { return s.h.Core().Bounds() }

// Active reports whether the server currently owns a partition.
func (s *Server) Active() bool { return s.h.Core().Active() }

// ClientCount returns the number of connected game clients.
func (s *Server) ClientCount() int { return s.h.Game().ClientCount() }

// QueueLen returns the receive-queue length (the paper's load signal).
func (s *Server) QueueLen() int { return s.h.Game().QueueLen() }

// ServeMetrics starts a Prometheus-format /metrics HTTP endpoint for the
// server on addr (host:0 picks an ephemeral port), exposing the gauges and
// the middleware chain's verdict counters. It returns the bound address
// and a closer that stops the endpoint.
func (s *Server) ServeMetrics(addr string) (string, io.Closer, error) {
	return s.h.ServeMetrics(addr)
}

// Drain asks the coordinator to take this server out of rotation: its
// partition migrates to a spare (or folds into its parent), clients are
// redirected away, and the call returns once the server is empty. With
// exit the server is retired from the pool instead of becoming a spare.
func (s *Server) Drain(exit bool, timeout time.Duration) error { return s.h.Drain(exit, timeout) }

// Drained is closed once a requested drain has fully evacuated the server,
// and open again once the coordinator has handed it a partition back.
func (s *Server) Drained() <-chan struct{} { return s.h.Drained() }

// DrainEvents receives each time a drain finishes, however many the process
// lives through: true when the drain retired this server from the fleet (the
// process should exit), false when it returned it to the spare pool (it
// keeps serving as a spare).
func (s *Server) DrainEvents() <-chan bool { return s.h.DrainEvents() }

// Snapshot dumps the node's complete state (Matrix server + game server) as
// a versioned blob. Any peer can also fetch it over the wire by sending a
// SnapshotRequest frame; matrix-server's -dump flag does exactly that.
func (s *Server) Snapshot() ([]byte, error) { return s.h.Snapshot() }

// RestoreSnapshot loads a Snapshot blob into the node, overwriting its
// state — matrix-server's boot-time -restore flag.
func (s *Server) RestoreSnapshot(blob []byte) error { return s.h.RestoreSnapshot(blob) }

// Close shuts the server down.
func (s *Server) Close() error { return s.h.Close() }

// Client is a connected game client.
type Client struct {
	h *host.ClientHost
}

// Dial joins the game at serverAddr as clientID standing at pos. It returns
// once the server's welcome arrives. The client transparently follows
// Matrix redirects afterwards.
func Dial(serverAddr string, clientID ClientID, pos Point, opts ...Option) (*Client, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	h, err := host.DialClient(host.ClientConfig{
		Network:       o.network,
		ServerAddr:    serverAddr,
		Client:        clientConfig(clientID, pos),
		Logger:        o.logger,
		AuthToken:     o.authToken,
		FallbackAddrs: o.fallbacks,
		RedialEvery:   o.redialEvery,
	})
	if err != nil {
		return nil, err
	}
	return &Client{h: h}, nil
}

// ID returns the client's callsign.
func (c *Client) ID() ClientID { return c.h.Client().ID() }

// Pos returns the client's current position.
func (c *Client) Pos() Point { return c.h.Client().Pos() }

// Server returns the game server currently responsible for this client.
func (c *Client) Server() ServerID { return c.h.Client().Server() }

// Move walks the client to dest, notifying the game.
func (c *Client) Move(dest Point) error {
	return c.h.Send(c.h.Client().MakeMove(dest))
}

// Act performs a non-movement action (shot, interaction) landing at dest.
func (c *Client) Act(kind UpdateKind, dest Point) error {
	return c.h.Send(c.h.Client().MakeAction(kind, dest))
}

// Stats summarizes the client's traffic counters.
func (c *Client) Stats() ClientStats {
	st := c.h.Client().Stats()
	return ClientStats{
		Sent:     st.Sent,
		Received: st.Received,
		Echoes:   st.EchoCount,
		Switches: st.Switches,
	}
}

// Latencies returns the measured action→echo response times.
func (c *Client) Latencies() []time.Duration { return c.h.Client().Latencies() }

// Close disconnects the client.
func (c *Client) Close() error { return c.h.Close() }

// ClientStats summarizes a client's traffic.
type ClientStats struct {
	Sent     uint64
	Received uint64
	Echoes   uint64
	Switches uint64
}
