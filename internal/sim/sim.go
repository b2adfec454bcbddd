// Package sim is the evaluation harness: a deterministic, time-stepped
// simulator that drives a full Matrix deployment — coordinator, Matrix
// servers, game servers and hundreds of game clients — through scripted
// workloads on a virtual clock.
//
// The simulator substitutes for the paper's physical testbed. The
// middleware components are the production state machines from
// internal/core, internal/coordinator and internal/gameserver, driven
// synchronously; only the transport (direct delivery), the clock (virtual)
// and the client population (synthetic movers from internal/game) differ
// from a live deployment. Queue lengths, client counts, forwarded bytes and
// response latencies therefore measure the real protocol behaviour.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"matrix/internal/clock"
	"matrix/internal/coordinator"
	"matrix/internal/core"
	"matrix/internal/flight"
	"matrix/internal/game"
	"matrix/internal/gameclient"
	"matrix/internal/gameserver"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/load"
	"matrix/internal/metrics"
	"matrix/internal/middleware"
	"matrix/internal/netem"
	"matrix/internal/node"
	"matrix/internal/policy"
	"matrix/internal/protocol"
	"matrix/internal/trace"
)

// Config describes one simulation run.
type Config struct {
	// Profile is the game workload (bzflag, daimonin, quake2).
	Profile game.Profile
	// World is the full map rectangle.
	World geom.Rect
	// Seed makes the run reproducible.
	Seed int64
	// TickSeconds is the simulation step (default 0.1s).
	TickSeconds float64
	// DurationSeconds is the simulated run length.
	DurationSeconds float64
	// MaxServers is the total server fleet (first one starts active, the
	// rest wait in the MC's pool). In static mode all of them are active
	// from the start with fixed partitions.
	MaxServers int
	// ServiceRatePerTick is how many queued packets a game server can
	// process per tick (its service capacity).
	ServiceRatePerTick int
	// MaxQueue bounds each game server's receive queue (0 = unbounded).
	MaxQueue int
	// LoadReportEverySeconds is the load-report period (default 1s).
	LoadReportEverySeconds float64
	// BasePopulation is the number of clients roaming the world from t=0.
	BasePopulation int
	// Script schedules hotspot joins and leaves.
	Script game.Script
	// Static, when non-empty, runs the static-partitioning baseline with
	// these fixed partitions instead of adaptive Matrix.
	Static []geom.Rect
	// LoadPolicy tunes split/reclaim thresholds (zero = paper defaults).
	LoadPolicy load.Config
	// Policy names the decision policy (internal/policy) that judges every
	// split, reclaim, placement and spare pick. Empty means the paper's
	// rules. Unlike SimWorkers this IS simulation state — it changes
	// results — so snapshots record it (omitted when empty, keeping
	// pre-policy snapshots byte-identical).
	Policy string `json:",omitempty"`
	// SampleEverySeconds is the series sampling period (default 1s).
	SampleEverySeconds float64
	// LatencyIgnoreBeforeSeconds, when positive, excludes response-latency
	// samples measured before this time from Result.Latency. Experiments
	// use it to measure steady-state player experience rather than the
	// join-burst transient (the paper's user study rated ongoing play).
	LatencyIgnoreBeforeSeconds float64
	// Netem models degraded networks: per-link delay + jitter, i.i.d. and
	// burst loss, with partitions and server crashes driven by Script
	// events. The zero value is an exact pass-through — envelopes deliver
	// instantly over the untouched fast path and the run's fingerprint is
	// byte-identical to a netem-free configuration. Netem.Seed zero
	// derives the impairment streams from Seed. Timed impairment script
	// events activate the model even when this config is zero.
	Netem netem.Config
	// CheckpointEverySeconds, when positive, turns the production health
	// plane on (health.go): every server renews a lease with the coordinator
	// each second and ships it its full state on this period, so a server an
	// EventCrashLose kills is found by lease expiry and its region adopted
	// from that blob (cold when none was shipped yet) or parked. A script
	// with an EventCrashLose needs it.
	CheckpointEverySeconds float64
	// GhostExpirySeconds is the idle timeout after which a server expires a
	// ghost client — one whose despawn was lost by network emulation, or
	// one resurrected by an adoption from a checkpoint older than its
	// departure. Zero means the 30-second default; negative
	// disables expiry. Only runs with active network emulation can produce
	// ghosts, so netem-free fingerprints are unaffected.
	GhostExpirySeconds float64
	// Middleware, when non-nil and enabled, puts the wire-path admission
	// chain (internal/middleware) in front of every game server: per-client
	// token-bucket rate limiting on client updates and overload shedding of
	// data-plane traffic once a server's queue reaches ShedQueue. Every
	// admission decision runs on the stepping goroutine against virtual
	// time, so the judged run is deterministic — Result.Fingerprint stays
	// byte-identical for any SimWorkers value — and the decisions fold into
	// the fingerprint via the middleware counters.
	Middleware *MiddlewareConfig `json:",omitempty"`
	// SimWorkers bounds the intra-sim worker pool that fans each tick's
	// per-server work (game-server inbox processing and the co-located
	// Matrix server's packet/load logic) out across cores; <= 1 — the
	// default — runs the tick serially on the stepping goroutine. The
	// worker count NEVER affects results: Result.Fingerprint is
	// byte-identical for any value (see engine.go), so this is an
	// execution knob, not simulation state — snapshots do not record it
	// and a restored run picks its own.
	SimWorkers int `json:"-"`
}

// MiddlewareConfig selects which stages of the host middleware chain
// (internal/middleware) every simulated server mounts: the two deterministic
// ones, rate limiting and overload admission. Auth and audit are wire-host
// concerns with no simulation analogue. A zero field disables its stage.
type MiddlewareConfig struct {
	// RateLimitPerSec is each client's sustained update budget (updates per
	// simulated second); despawns are exempt. Zero disables rate limiting.
	RateLimitPerSec float64 `json:",omitempty"`
	// RateLimitBurst is the token-bucket depth (default 2× the rate).
	RateLimitBurst float64 `json:",omitempty"`
	// ShedQueue is the game-server queue length at which data-plane
	// messages (minus despawns) are shed. Zero disables admission control.
	ShedQueue int `json:",omitempty"`
}

// Enabled reports whether any middleware stage is active.
func (m *MiddlewareConfig) Enabled() bool { return m.chain().Enabled() }

// chain spells m as the host's own chain config (internal/middleware): only
// the stages m enables, in the host's order — the per-client token bucket
// first, then overload admission.
func (m *MiddlewareConfig) chain() middleware.Config {
	if m == nil {
		return middleware.Config{}
	}
	mc := middleware.Config{
		RateLimitPerSec: m.RateLimitPerSec,
		RateLimitBurst:  m.RateLimitBurst,
		ShedQueue:       m.ShedQueue,
	}
	if m.RateLimitPerSec > 0 {
		mc.Stages = append(mc.Stages, middleware.StageRateLimit)
	}
	if m.ShedQueue > 0 {
		mc.Stages = append(mc.Stages, middleware.StageAdmission)
	}
	return mc
}

// DefaultGhostExpirySeconds is the ghost-client idle timeout applied when
// Config.GhostExpirySeconds is zero.
const DefaultGhostExpirySeconds = 30

// sanitized fills defaults.
func (c Config) sanitized() (Config, error) {
	if err := c.Profile.Validate(); err != nil {
		return c, err
	}
	if c.World.Empty() {
		return c, errors.New("sim: empty world")
	}
	if c.TickSeconds <= 0 {
		c.TickSeconds = 0.1
	}
	if c.DurationSeconds <= 0 {
		return c, errors.New("sim: duration must be positive")
	}
	if c.MaxServers <= 0 {
		c.MaxServers = 1
	}
	if c.ServiceRatePerTick <= 0 {
		c.ServiceRatePerTick = 200
	}
	if c.LoadReportEverySeconds <= 0 {
		c.LoadReportEverySeconds = 1
	}
	if c.SampleEverySeconds <= 0 {
		c.SampleEverySeconds = 1
	}
	if err := c.Script.Validate(); err != nil {
		return c, err
	}
	if err := c.Netem.Validate(); err != nil {
		return c, err
	}
	if c.CheckpointEverySeconds < 0 {
		return c, errors.New("sim: negative checkpoint period")
	}
	if c.CheckpointEverySeconds == 0 && slices.ContainsFunc(c.Script, func(e game.Event) bool { return e.Kind == game.EventCrashLose }) {
		return c, errors.New("sim: a script with a crash-lose event needs CheckpointEverySeconds > 0 (the health plane is what heals it)")
	}
	if c.GhostExpirySeconds == 0 {
		c.GhostExpirySeconds = DefaultGhostExpirySeconds
	}
	if m := c.Middleware; m != nil {
		if m.RateLimitPerSec < 0 {
			return c, fmt.Errorf("sim: middleware rate limit must not be negative (got %v)", m.RateLimitPerSec)
		}
		if m.ShedQueue < 0 {
			return c, fmt.Errorf("sim: middleware shed queue must not be negative (got %d)", m.ShedQueue)
		}
	}
	if err := policy.Valid(c.Policy); err != nil {
		return c, fmt.Errorf("sim: %w", err)
	}
	return c, nil
}

// TopologyEvent records one split or reclamation.
type TopologyEvent struct {
	Time   float64
	Kind   string // "split" or "reclaim"
	Server id.ServerID
}

// Result carries everything the experiments report.
type Result struct {
	// Metrics holds the time series: "clients/server-N", "queue/server-N"
	// (the two panels of the paper's Figure 2) and "servers/active".
	Metrics *metrics.Registry
	// Latency is the distribution of client action→echo response times in
	// milliseconds.
	Latency *metrics.Histogram
	// SwitchLatency is the distribution of redirect→rejoin times in
	// milliseconds (the paper's switching-latency microbenchmark).
	SwitchLatency *metrics.Histogram
	// Events lists splits/reclaims in time order.
	Events []TopologyEvent
	// FinalServers is the active count at the end.
	FinalServers int
	// ForwardedBytes is the total inter-Matrix traffic.
	ForwardedBytes uint64
	// ForwardedPackets is the total inter-Matrix packet count.
	ForwardedPackets uint64
	// DroppedPackets counts queue-overflow losses (static mode's failure
	// signature).
	DroppedPackets uint64
	// DeliveredUpdates counts client-visible event deliveries.
	DeliveredUpdates uint64
	// OverlapAreaLast is the summed overlap area at the end of the run.
	OverlapAreaLast float64
	// RecoveryGap is the distribution of crash→reconnected times in
	// milliseconds for clients whose server died (the recovery gap).
	RecoveryGap *metrics.Histogram
	// Counters are the scalar accumulators that are live during a run.
	Counters
}

// Counters are the scalar accumulators of Result that are live during a run
// (the rest are derived at Finish). State.Counters stores this same struct,
// so its field names, order and tags are snapshot format.
type Counters struct {
	// PeakServers is the maximum simultaneously active server count.
	PeakServers int
	// Redirects counts client server-switches.
	Redirects uint64
	// ClientSeconds integrates connected clients over time (load measure).
	ClientSeconds float64
	// NetemActive records whether network emulation ran; the netem
	// counters join the fingerprint only when it did, so netem-free runs
	// keep their historical byte-identical fingerprints.
	NetemActive bool
	// NetemLost counts packets dropped by the random-loss models.
	NetemLost uint64
	// NetemSevered counts packets blackholed by partitions and crashes.
	NetemSevered uint64
	// NetemDelayed counts deliveries deferred by at least one tick.
	NetemDelayed uint64
	// GhostsExpired counts ghost clients culled by the idle timeout (see
	// Config.GhostExpirySeconds). Only possible when netem is active.
	GhostsExpired uint64
	// Restarts counts regions re-homed after a process death: adoptions
	// completed, from a checkpoint or cold (the name is CLI surface).
	Restarts uint64
	// RecoveryRejoins counts clients whose connection a process death reset
	// (the rejoin storm a crash causes).
	RecoveryRejoins uint64
	// MiddlewareActive records whether the admission chain ran; its
	// counters join the fingerprint only when it did, so middleware-free
	// runs keep their historical byte-identical fingerprints. The three
	// middleware counters are omitted from a snapshot when zero, so ones
	// captured before the chain existed re-encode byte-identically.
	MiddlewareActive bool `json:",omitempty"`
	// RateLimited counts client updates shed by per-client token buckets.
	RateLimited uint64 `json:",omitempty"`
	// AdmissionShed counts data-plane messages shed by overload admission.
	AdmissionShed uint64 `json:",omitempty"`
}

// simNode is one server slot: the node every driver runs (internal/node: a
// Matrix server, its co-located game server and — when Config.Middleware
// enables a stage — the production admission chain in front of the game
// server's queue) and what the simulator keeps about it. The chain is judged
// on the stepping goroutine only (see arrive), never inside phase A, and its
// per-client token buckets advance on virtual time, so decisions are identical
// for any SimWorkers value.
type simNode struct {
	*node.Node

	out        node.Out // this tick's phase-A output (see engine.go)
	activePrev bool     // active at the last sample

	// Health plane (health.go); idle in a run that does not checkpoint.
	dead   bool   // killed by EventCrashLose: never stepped or delivered to again
	cpTick uint64 // tick at which the last checkpoint shipped (0 = none yet)
}

// simClient is one synthetic player.
type simClient struct {
	cl        gameclient.Client // by value: a delivery touches one record
	mover     *game.Mover
	tag       string
	assigned  id.ServerID // game server currently responsible
	acc       float64     // fractional updates owed
	alive     bool
	helloAt   float64 // last hello send time (for retry)
	redirAt   float64 // redirect time, for switch-latency measurement
	redirOpen bool

	// Crash-recovery timers (only set when netem is active). A ghost is a
	// client some server still holds but the sim knows is gone from it (lost
	// despawn, or resurrected by an adoption from a stale checkpoint), timed
	// from when it appeared; a rejoining client is reconnecting after its
	// server died, timed for the recovery-gap histogram.
	ghost, rejoining  bool
	ghostAt, rejoinAt float64
}

// Sim is one in-flight simulation.
type Sim struct {
	cfg     Config
	clk     *clock.Virtual
	mc      *coordinator.Coordinator
	nodes   []*simNode   // every server, in registration order = ascending by ID (see node)
	clients []*simClient // every client ever spawned, ascending by ID (see client)
	gen     id.Generator
	reg     *metrics.Registry
	lat     *metrics.Histogram
	swLat   *metrics.Histogram
	events  []TopologyEvent
	res     Result
	now     float64
	rngSeed int64

	// latSkip[c-1] = how many of client c's leading latency samples fall
	// before the measurement window and must be dropped; sized when the
	// window opens, so it covers exactly the clients that existed then.
	latSkip     []int
	latWindowed bool

	// Stepping state (owned by Start/Step; see Run for the canonical loop).
	started     bool
	finished    *Result
	dt          float64
	tick        int
	ticks       int
	script      game.Script
	rng         netem.Rand // per-sim decisions that must not disturb the movers' streams
	reportEvery int
	sampleEvery int

	// Network emulation (nil when the run models a perfect network: every
	// send below then takes the untouched instant path). nq buckets
	// in-flight messages by due tick; within a bucket, insertion order is
	// send order, so delivery stays deterministic.
	nm *netem.Model
	nq map[int][]netemEntry

	// Crash recovery (the per-server and per-client marks live on node and
	// simClient).
	recGap     *metrics.Histogram
	chkEvery   int     // checkpoint period in ticks (0 = health plane off)
	beatEvery  int     // heartbeat and lease-check period in ticks
	ghostAfter float64 // ghost idle timeout in seconds (<= 0 = off)

	// live is the servers processing this tick (see engine.go).
	live []*simNode

	// mwReq is the request context every client frame's judgment reuses (see
	// arrive), so judging allocates nothing.
	mwReq middleware.Request

	// Tracing state (see trace.go; nil tr = tracing off, the default).
	// trTickBase/trAnchor anchor the virtual-first trace clock at the
	// current tick; trBusy accumulates per-worker busy microseconds for the
	// occupancy measure. Like SimWorkers, the tracer is an execution knob,
	// not simulation state: snapshots do not record it and results are
	// byte-identical with or without one.
	tr         *trace.Tracer
	trTickBase int64
	trAnchor   time.Time
	trBusy     []int64

	// Flight recorder (see record.go; nil = recording off, the default).
	// The same execution-knob contract as the tracer: observation only,
	// never serialized, results byte-identical with or without one.
	rec *flight.Recorder
}

// New builds a simulation.
func New(cfg Config) (*Sim, error) {
	cfg, err := cfg.sanitized()
	if err != nil {
		return nil, err
	}
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}

	// Register the fleet. In adaptive mode the first server becomes the
	// root and the rest are spares; in static mode every server gets its
	// fixed tile.
	fleet := cfg.MaxServers
	if len(cfg.Static) > 0 {
		fleet = len(cfg.Static)
	}
	for i := 0; i < fleet; i++ {
		if err := s.registerServer(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newSim builds the empty shell New and RestoreWith both start from: a
// sanitized config, a virtual clock at zero, fresh instruments and a
// coordinator with no servers yet.
func newSim(cfg Config) (*Sim, error) {
	s := &Sim{
		cfg:     cfg,
		clk:     clock.NewVirtual(time.Unix(0, 0)),
		reg:     metrics.NewRegistry(),
		lat:     &metrics.Histogram{},
		swLat:   &metrics.Histogram{},
		recGap:  &metrics.Histogram{},
		rngSeed: cfg.Seed,
	}
	mcPol, err := policy.New(cfg.Policy)
	if err != nil {
		return nil, err
	}
	mcCfg := coordinator.Config{World: cfg.World, Static: cfg.Static, Policy: mcPol}
	if cfg.CheckpointEverySeconds > 0 {
		// The production health plane on virtual time (see health.go).
		mcCfg.HeartbeatEvery, mcCfg.Clock = heartbeatEvery, s.clk
	}
	s.mc, err = coordinator.New(mcCfg)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// registerServer creates one server slot and registers it with the MC.
func (s *Sim) registerServer() error {
	addr := fmt.Sprintf("sim:%d", len(s.nodes)+1)
	reply, envs, err := s.mc.Register(addr, s.cfg.Profile.Radius)
	if err != nil {
		return err
	}
	if _, err := s.addNode(reply); err != nil {
		return err
	}
	s.fromMC(envs)
	return nil
}

// addNode builds the server a RegisterReply describes and appends its slot to
// the fleet.
func (s *Sim) addNode(reply *protocol.RegisterReply) (*simNode, error) {
	// Server n sits at index n-1 (see Sim.node): the sim is its MC's only
	// registrant, so IDs arrive 1, 2, 3, … — a snapshot must list them so.
	if reply.Server != id.ServerID(len(s.nodes)+1) {
		return nil, fmt.Errorf("sim: server %d is %v, want ascending IDs from 1", len(s.nodes), reply.Server)
	}
	nd, err := node.New(node.Config{
		Load:       s.cfg.LoadPolicy,
		Policy:     s.cfg.Policy,
		Radius:     s.cfg.Profile.Radius,
		MaxQueue:   s.cfg.MaxQueue,
		Middleware: s.cfg.Middleware.chain(),
		Clock:      s.clk,
	}, reply)
	if err != nil {
		return nil, err
	}
	n := &simNode{Node: nd}
	s.nodes = append(s.nodes, n)
	return n, nil
}

// count folds one admission verdict of the node's chain into the result (and
// thus the fingerprint), reporting whether the message was admitted.
func (s *Sim) count(v middleware.Verdict) bool {
	switch v {
	case middleware.DropRateLimited:
		s.res.RateLimited++
	case middleware.DropOverload:
		s.res.AdmissionShed++
	}
	return v.Admitted()
}

// deliverToCore hands a message to a server's node, which judges and queues
// what its core answers for the game server, and routes the rest.
// This is the general path: handlers build fresh envelope slices, which
// re-entrant deliveries (MC fallout, peer chains) require. The per-tick
// hot path does not come through here: node.Step hands every local update to
// the core on a reused buffer.
func (s *Sim) deliverToCore(to id.ServerID, from id.ServerID, m protocol.Message) {
	n := s.node(to)
	if n == nil || n.dead {
		return
	}
	if s.tr != nil {
		if fwd, isFwd := m.(*protocol.Forward); isFwd {
			s.tr.AsyncStep(tracePidServer(to), "packet", "peer-handle",
				trace.PacketID(fwd.Update.Client, fwd.Update.Seq), s.tr.Now())
		}
	}
	envs, handled, err := n.Handle(nil, from, m, s.now)
	s.count(handled.Verdict)
	a, isAdopt := m.(*protocol.Adopt)
	if err != nil {
		// Inactive servers legitimately reject packets that were in
		// flight across a topology change; everything else is counted
		// but must not stop the run.
		kind := "errors/core"
		if isAdopt {
			kind = "errors/adopt"
		}
		s.reg.Counter(kind).Inc()
	}
	if handled.Done {
		s.noteAdoption(n, a, handled.Bytes)
	}
	if err == nil {
		s.FromCore(n.Node, envs)
	}
}

// FromCore dispatches the outbox of n's Matrix server (the other half, with
// ToClient, of the node.Sink phase B routes through).
func (s *Sim) FromCore(n *node.Node, envs []core.Envelope) {
	from := n.Core.ID()
	for _, e := range envs {
		switch e.Dest {
		case core.DestCoordinator:
			s.toMC(from, e.Msg)
		case core.DestPeer:
			if s.tr != nil {
				// A forward crossing the server boundary: the cross-server
				// hop in the packet's span.
				if fwd, isFwd := e.Msg.(*protocol.Forward); isFwd {
					s.tr.AsyncStepArg(tracePidServer(from), "packet", "peer-forward",
						trace.PacketID(fwd.Update.Client, fwd.Update.Seq), s.tr.Now(),
						"peer", int64(e.Peer))
				}
			}
			s.send(netem.ServerEndpoint(from), netem.ServerEndpoint(e.Peer), netemToCore, e.Msg)
		}
	}
}

// toMC hands the coordinator one control message from server `from` and
// delivers what it answers. The MC link is never impaired.
func (s *Sim) toMC(from id.ServerID, m protocol.Message) {
	envs, err := s.mc.HandleMessage(from, m)
	if err != nil {
		s.reg.Counter("errors/mc").Inc()
		return
	}
	s.noteTopology(m, envs)
	s.fromMC(envs)
}

// fromMC delivers the coordinator's envelopes to their Matrix servers.
func (s *Sim) fromMC(envs []coordinator.Envelope) {
	for _, e := range envs {
		s.deliverToCore(e.To, id.None, e.Msg)
	}
}

// noteTopology records granted splits/reclaims from MC replies in the
// topology event log and — when a flight recorder is attached — audits every
// grant AND denial with the inputs that produced it (see record.go).
func (s *Sim) noteTopology(req protocol.Message, envs []coordinator.Envelope) {
	switch rr := req.(type) {
	case *protocol.SplitRequest:
		for _, e := range envs {
			rep, ok := e.Msg.(*protocol.SplitReply)
			if !ok {
				continue
			}
			if rep.Granted {
				s.events = append(s.events, TopologyEvent{Time: s.now, Kind: "split", Server: rep.Child})
			}
			if s.rec != nil {
				s.auditSplit(rr, rep)
			}
		}
	case *protocol.ReclaimRequest:
		// A granted reclaim's correlation ID rides the child's deactivating
		// RangeUpdate (the reply itself stays unstamped for the parent).
		var corr uint64
		for _, e := range envs {
			if ru, ok := e.Msg.(*protocol.RangeUpdate); ok && ru.Corr != 0 {
				corr = ru.Corr
			}
		}
		for _, e := range envs {
			rep, ok := e.Msg.(*protocol.ReclaimReply)
			if !ok {
				continue
			}
			if rep.Granted {
				s.events = append(s.events, TopologyEvent{Time: s.now, Kind: "reclaim", Server: rr.Child})
			}
			if s.rec != nil {
				s.auditReclaim(rr, rep, corr)
			}
		}
	}
}

// deliverToClient hands a message to a client and reacts to its events.
func (s *Sim) deliverToClient(cid id.ClientID, m protocol.Message) {
	sc := s.client(cid)
	if sc == nil || !sc.alive {
		return
	}
	if s.tr != nil {
		// The echo of the client's own update closes its packet span.
		if u, isUpdate := m.(*protocol.GameUpdate); isUpdate && u.Client == cid {
			s.tr.AsyncEnd(tracePidServer(sc.assigned), "packet", "packet",
				trace.PacketID(u.Client, u.Seq), s.tr.Now())
		}
	}
	ev, err := sc.cl.Handle(m)
	if err != nil {
		s.reg.Counter("errors/client").Inc()
		return
	}
	switch ev {
	case gameclient.EventSwitchServer:
		// Reconnect: hello the new server straight away.
		sc.assigned = sc.cl.Server()
		sc.redirAt = s.now
		sc.redirOpen = true
		s.res.Redirects++
		s.sendHello(sc)
	case gameclient.EventConnected:
		if sc.redirOpen {
			s.swLat.Observe((s.now - sc.redirAt) * 1000)
			sc.redirOpen = false
		}
		if sc.rejoining {
			// Back in the game after its server died: the recovery gap.
			s.recGap.Observe((s.now - sc.rejoinAt) * 1000)
			sc.rejoining = false
		}
	}
}

// sendHello (re)joins the client's assigned game server.
func (s *Sim) sendHello(sc *simClient) {
	if s.node(sc.assigned) == nil {
		return
	}
	sc.helloAt = s.now
	s.send(netem.ClientEndpoint(sc.cl.ID()), netem.ServerEndpoint(sc.assigned), netemToGS, sc.cl.Hello())
}

// ownerOf finds the active server owning a point (the "lobby" lookup a
// production deployment would do via DNS or a login service).
func (s *Sim) ownerOf(p geom.Point) id.ServerID {
	for _, part := range s.mc.Partitions() {
		if part.Bounds.Contains(p) {
			return part.Owner
		}
	}
	// Half-open boundary case: clamp slightly inward and retry.
	eps := 1e-9
	q := geom.Pt(
		min(p.X, s.cfg.World.MaxX-eps),
		min(p.Y, s.cfg.World.MaxY-eps),
	)
	for _, part := range s.mc.Partitions() {
		if part.Bounds.Contains(q) {
			return part.Owner
		}
	}
	return id.None
}

// node returns server sid's slot, nil when the sim never registered it: the
// MC hands out 1, 2, 3, … and slots never leave s.nodes, so server n sits at
// index n-1 and a plain range over the slice is registration order.
func (s *Sim) node(sid id.ServerID) *simNode {
	if i := int(sid) - 1; i >= 0 && i < len(s.nodes) {
		return s.nodes[i]
	}
	return nil
}

// client returns client cid's record, nil when the sim never spawned it.
// The generator hands out 1, 2, 3, … and entries never leave s.clients (a
// departed client just stops being alive), so client c sits at index c-1 and
// a plain range over the slice is the deterministic ascending-ID order.
func (s *Sim) client(cid id.ClientID) *simClient {
	if i := int(cid) - 1; i >= 0 && i < len(s.clients) {
		return s.clients[i]
	}
	return nil
}

// addClient spawns a client at pos, optionally attracted to a hotspot.
func (s *Sim) addClient(pos geom.Point, tag string, attract *geom.Point, spread float64) {
	cid := s.gen.NextClient()
	cl, err := gameclient.New(gameclient.Config{ID: cid, Pos: pos, Clock: s.clk})
	if err != nil {
		return
	}
	mover := game.NewMover(s.cfg.Profile, s.cfg.World, s.rngSeed+int64(cid)*7919)
	if attract != nil {
		mover.Attract(*attract, spread)
	}
	sc := &simClient{
		cl:       *cl,
		mover:    mover,
		tag:      tag,
		assigned: s.ownerOf(pos),
		alive:    true,
	}
	s.clients = append(s.clients, sc)
	s.sendHello(sc)
}

// removeClients despawns the count lowest-ID live clients with the given tag.
func (s *Sim) removeClients(tag string, count int) {
	for _, sc := range s.clients {
		if count == 0 {
			return
		}
		if !sc.alive || sc.tag != tag {
			continue
		}
		sc.alive = false
		if s.node(sc.assigned) != nil {
			leave := sc.cl.MakeAction(protocol.KindDespawn, sc.cl.Pos())
			s.send(netem.ClientEndpoint(sc.cl.ID()), netem.ServerEndpoint(sc.assigned), netemToGS, leave)
		}
		count--
	}
}

// netemDest says where a message lands when it arrives (see arrive).
type netemDest uint8

const (
	// netemToGS enqueues on the destination server's game server, once its
	// admission chain has judged the message.
	netemToGS netemDest = iota + 1
	// netemToClient delivers to the destination client.
	netemToClient
	// netemToCore hands the message to the destination Matrix server
	// (peer forwards).
	netemToCore
)

// netemEntry is one in-flight impaired message.
type netemEntry struct {
	from, to netem.Endpoint
	kind     netemDest
	msg      protocol.Message
}

// send puts m on the link from one endpoint to another. On a perfect network
// it arrives at once; with emulation on, impair judges the link first.
func (s *Sim) send(from, to netem.Endpoint, kind netemDest, m protocol.Message) {
	if s.nm != nil && s.impair(from, to, kind, m) {
		return
	}
	s.arrive(from, to, kind, m)
}

// arrive is where every message, instant or delayed, ends: a game server
// judges it (admission chain: the network delivered it, the server's chain
// decides) and queues it, a client handles it, a Matrix server handles it.
func (s *Sim) arrive(from, to netem.Endpoint, kind netemDest, m protocol.Message) {
	switch kind {
	case netemToGS:
		n := s.node(to.Server)
		if n == nil || n.dead {
			return
		}
		s.mwReq = middleware.Request{Source: middleware.SourceClient, Client: from.Client, Msg: m, Now: s.now}
		if !s.count(n.Enqueue(&s.mwReq)) {
			return
		}
		if s.tr != nil {
			// The packet span opens as a client's update enters its server's
			// inbox and ends when its echo reaches the client.
			if u, isUpdate := m.(*protocol.GameUpdate); isUpdate && u.Kind != protocol.KindDespawn {
				s.tr.AsyncBegin(tracePidServer(to.Server), "packet", "packet",
					trace.PacketID(u.Client, u.Seq), s.tr.Now())
			}
		}
	case netemToClient:
		s.deliverToClient(to.Client, m)
	case netemToCore:
		s.deliverToCore(to.Server, from.Server, m)
	}
}

// impair runs one send through the netem model. It returns true when the
// message must NOT arrive now: the packet was lost, blackholed, or scheduled
// for a later tick. Only send calls it, and only when s.nm != nil.
func (s *Sim) impair(from, to netem.Endpoint, kind netemDest, m protocol.Message) bool {
	v := s.nm.Judge(from, to, netem.DataPlane(m))
	if v.Severed {
		s.res.NetemSevered++
		s.noteLostDespawn(m)
		return true
	}
	if v.Drop {
		s.res.NetemLost++
		s.noteLostDespawn(m)
		return true
	}
	// Delays quantize UP to the tick grid (the simulator's delivery
	// quantum): any positive delay defers at least one tick, so sub-tick
	// impairment rounds up to the tick length rather than silently
	// vanishing. The epsilon keeps exact multiples (200ms on a 100ms
	// tick) from rounding an extra tick.
	t := int(math.Ceil(v.DelaySec/s.dt - 1e-9))
	if t < 1 {
		return false
	}
	s.res.NetemDelayed++
	due := s.tick + t
	s.nq[due] = append(s.nq[due], netemEntry{from: from, to: to, kind: kind, msg: m})
	return true
}

// pumpNetem delivers every in-flight message due this tick. Links severed
// while a message was in flight drop it on arrival (the packet was in the
// pipe when the cable was cut).
func (s *Sim) pumpNetem() {
	entries, ok := s.nq[s.tick]
	if !ok {
		return
	}
	delete(s.nq, s.tick)
	for _, e := range entries {
		if s.nm.Severed(e.from, e.to) {
			s.res.NetemSevered++
			s.noteLostDespawn(e.msg)
			continue
		}
		s.arrive(e.from, e.to, e.kind, e.msg)
	}
}

// noteLostDespawn registers the ghost a lost despawn leaves behind: the
// server never learns the client is gone, so the idle-expiry pass (see
// expireGhosts) must cull it later.
func (s *Sim) noteLostDespawn(m protocol.Message) {
	if u, ok := m.(*protocol.GameUpdate); ok && u.Kind == protocol.KindDespawn {
		s.markGhost(u.Client)
	}
}

// markGhost starts (or restarts) client cid's ghost timer, when expiry is on.
func (s *Sim) markGhost(cid id.ClientID) {
	if sc := s.client(cid); sc != nil && s.ghostAfter > 0 {
		sc.ghost, sc.ghostAt = true, s.now
	}
}

// expireGhosts culls ghost records past the idle timeout: every server
// still holding the avatar evicts it locally, exactly what a production
// server's idle reaper does. The cull is server-local by design — it emits
// no despawn traffic, so evicting a rollback-resurrected duplicate can
// never ripple to the client's live avatar on its current server (which is
// always skipped). Copies on crashed (frozen) servers wait for the
// recovery, a dead server holds nothing; the record clears once no stale
// copy remains.
func (s *Sim) expireGhosts() {
	for _, sc := range s.clients {
		if !sc.ghost || s.now-sc.ghostAt < s.ghostAfter {
			continue
		}
		cid := sc.cl.ID()
		found, cleared := false, true
		for _, n := range s.nodes {
			sid := n.Core.ID()
			if _, ok := n.Game.ClientPos(cid); !ok || n.dead {
				continue
			}
			if sc.alive && sid == sc.assigned {
				continue // the legitimate avatar, not a ghost copy
			}
			found = true
			if s.nm.Crashed(sid) {
				cleared = false // frozen: evict after recovery (or rollback)
				continue
			}
			n.Game.Evict(cid)
		}
		if found && cleared {
			s.res.GhostsExpired++
		}
		// Not found: already gone everywhere (state transfer raced the
		// expiry). Only a copy frozen on a crashed server keeps the timer.
		sc.ghost = found && !cleared
	}
}

// noteNetemEvent records a scripted impairment change in the topology
// event log (and thus the fingerprint).
func (s *Sim) noteNetemEvent(kind string, servers []id.ServerID) {
	if len(servers) == 0 {
		s.events = append(s.events, TopologyEvent{Time: s.now, Kind: kind})
		return
	}
	for _, sid := range servers {
		s.events = append(s.events, TopologyEvent{Time: s.now, Kind: kind, Server: sid})
	}
}

// Run executes the simulation to completion and returns the results:
// Start, StepUntil the end, Finish. Callers that need finer control
// (sweeps polling a context, snapshots mid-run, cluster co-simulation on
// a shared clock) drive those primitives directly.
func (s *Sim) Run() (*Result, error) {
	if err := s.Start(); err != nil {
		return nil, err
	}
	if err := s.StepUntil(context.Background(), math.Inf(1)); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}

// pollTicks is how many ticks StepUntil advances between context polls
// (5 simulated seconds at the default 0.1s tick).
const pollTicks = 50

// StepUntil is the stepping loop every driver shares: it Steps while the
// simulation is not Done and the next tick would run strictly before
// `until` virtual seconds (math.Inf(1) runs to the end), so on a nil return
// either Done() or NextTime() >= until holds — every script event with
// At >= until is still ahead, which is what a snapshot at a branch point
// needs. The context is polled every pollTicks steps, so cancellation
// lands mid-run; its error is returned as is.
func (s *Sim) StepUntil(ctx context.Context, until float64) error {
	for n := 0; !s.Done() && s.NextTime() < until; n++ {
		if n%pollTicks == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Start prepares the run: it spawns the base population and derives the
// tick, report and sample cadences. It must be called exactly once, before
// the first Step.
func (s *Sim) Start() error {
	if s.started {
		return errors.New("sim: Start called twice")
	}
	s.started = true
	s.initCadence()
	s.rng = netem.Rand{State: uint64(s.cfg.Seed)*2654435761 + 1}

	// Network emulation activates on a non-zero config or any scripted
	// impairment event; otherwise every send below keeps the historical
	// instant path (and its byte-identical fingerprint).
	if s.cfg.Netem.Enabled() || s.script.HasImpairment() {
		s.enableNetem()
	}

	// The admission chain (node.Enqueue, node.Handle) runs on an enabled
	// middleware config; runs without one keep the judge-free fingerprint.
	s.res.MiddlewareActive = s.cfg.Middleware.Enabled()

	// Base population scattered uniformly.
	for i := 0; i < s.cfg.BasePopulation; i++ {
		pos := geom.Pt(
			s.cfg.World.MinX+s.rng.Float()*s.cfg.World.Width(),
			s.cfg.World.MinY+s.rng.Float()*s.cfg.World.Height(),
		)
		s.addClient(pos, "base", nil, 0)
	}

	return nil
}

// enableNetem switches network emulation on with a fresh model (impairment
// streams seeded from Config.Seed unless Netem.Seed names its own).
func (s *Sim) enableNetem() {
	ncfg := s.cfg.Netem
	if ncfg.Seed == 0 {
		ncfg.Seed = s.cfg.Seed
	}
	s.nm = netem.NewModel(ncfg)
	s.nq = make(map[int][]netemEntry)
	s.res.NetemActive = true
}

// initCadence derives every tick-grid quantity from the sanitized config:
// tick length, total ticks, the sorted script, and the report, sample,
// checkpoint and ghost-expiry cadences. Start and the snapshot restore path
// share it, so a restored run steps on the identical grid.
func (s *Sim) initCadence() {
	s.dt = s.cfg.TickSeconds
	s.ticks = int(s.cfg.DurationSeconds/s.dt + 0.5)
	s.script = s.cfg.Script.Sorted()
	ticks := func(seconds float64) int { return max(int(seconds/s.dt+0.5), 1) }
	s.reportEvery = ticks(s.cfg.LoadReportEverySeconds)
	s.sampleEvery = ticks(s.cfg.SampleEverySeconds)
	s.chkEvery = 0
	if s.cfg.CheckpointEverySeconds > 0 {
		s.chkEvery, s.beatEvery = ticks(s.cfg.CheckpointEverySeconds), ticks(heartbeatEvery.Seconds())
	}
	s.ghostAfter = s.cfg.GhostExpirySeconds
}

// Done reports whether every tick has been stepped. A run of D seconds at
// tick dt spans round(D/dt)+1 steps (both endpoints are simulated).
func (s *Sim) Done() bool { return s.started && s.tick > s.ticks }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Tick returns the index of the next tick Step will execute.
func (s *Sim) Tick() int { return s.tick }

// NextTime returns the virtual time of the next tick Step will execute
// (what StepUntil compares against its bound). Valid after Start.
func (s *Sim) NextTime() float64 { return float64(s.tick) * s.dt }

// Step advances the simulation by one tick: script events, client traffic,
// queue processing, load reports, hello retries, sampling.
func (s *Sim) Step() error {
	if !s.started {
		return errors.New("sim: Step before Start")
	}
	if s.Done() {
		return errors.New("sim: Step after Done")
	}
	tick := s.tick
	dt := s.dt
	s.now = float64(tick) * dt

	// Re-anchor the trace clock at the tick's virtual start (trace.go).
	// Tracing is pure observation: nothing below branches on it.
	var tickStart int64
	if s.tr != nil {
		tickStart = s.traceTickStart()
	}

	// 1. Script events.
	for _, e := range s.script.Due(s.now, s.now+dt) {
		switch e.Kind {
		case game.EventJoin:
			for i := 0; i < e.Count; i++ {
				ang := s.rng.Float() * 2 * math.Pi
				r := math.Sqrt(s.rng.Float()) * e.Spread // area-uniform
				pos := s.cfg.World.Clamp(geom.Pt(
					e.Center.X+r*math.Cos(ang),
					e.Center.Y+r*math.Sin(ang),
				))
				c := e.Center
				s.addClient(pos, e.Tag, &c, e.Spread)
			}
		case game.EventLeave:
			s.removeClients(e.Tag, e.Count)
		case game.EventImpair:
			if s.nm != nil {
				s.nm.SetLink(e.Impair)
				s.noteNetemEvent("impair", nil)
			}
		case game.EventPartition:
			if s.nm != nil {
				s.nm.Cut(e.Servers)
				s.noteNetemEvent("partition", e.Servers)
			}
		case game.EventHeal:
			if s.nm != nil {
				s.nm.Heal(e.Servers)
				s.noteNetemEvent("heal", e.Servers)
			}
		case game.EventCrash:
			if s.nm != nil {
				s.nm.Crash(e.Servers)
				s.noteNetemEvent("crash", e.Servers)
			}
		case game.EventCrashLose:
			if s.nm != nil {
				s.nm.Crash(e.Servers)
				s.noteNetemEvent("crash-lose", e.Servers)
				for _, sid := range e.Servers {
					s.kill(sid)
				}
			}
		case game.EventRecover:
			if s.nm != nil {
				if err := s.recoverServers(e.Servers); err != nil {
					return err
				}
			}
		}
	}

	// 1b. In-flight impaired messages due this tick arrive.
	if s.nm != nil {
		s.pumpNetem()
	}

	// 1c. Ghost expiry: cull clients whose departure their server never saw.
	if s.nm != nil && s.ghostAfter > 0 {
		s.expireGhosts()
	}

	// 2. Client traffic.
	s.generateTraffic(dt)

	// 3. Game servers process their queues — the two-phase tick engine
	// (engine.go): phase A fans the per-server work out to the worker pool,
	// phase B routes each server's output in canonical server order.
	// Crashed servers are frozen: their queues keep whatever arrived before
	// the crash and resume draining on recovery.
	s.liveServers()
	stepNode := s.stepNode
	if s.tr != nil {
		stepNode = s.traceProcessNode
	}
	paStart := s.tr.Now()
	s.runPhaseA(stepNode)
	if s.tr != nil {
		s.tracePhaseA(paStart)
	}
	pbStart := s.tr.Now()
	s.routePhaseB()
	if s.tr != nil {
		s.tracePhaseB(pbStart)
	}

	// 4. Load reports, same two phases: every live active server runs its
	// split/reclaim policy against its own load in phase A, the MC traffic
	// routes canonically in phase B. Crashed servers report nothing, so
	// parents see a frozen last-known child load until recovery.
	if tick%s.reportEvery == 0 {
		lrStart := s.tr.Now()
		s.runPhaseA(s.reportNode)
		s.routePhaseB()
		if s.tr != nil {
			s.traceLoadReport(lrStart)
		}
	}

	// 5. Hello retries for clients stuck unconnected (dropped joins; a
	// client whose server died redials a survivor).
	for _, sc := range s.clients {
		if sc.alive && !sc.cl.Connected() && s.now-sc.helloAt >= 1.0 {
			s.redial(sc)
			s.sendHello(sc)
		}
	}

	// 6. Latency measurement window.
	if !s.latWindowed && s.cfg.LatencyIgnoreBeforeSeconds > 0 && s.now >= s.cfg.LatencyIgnoreBeforeSeconds {
		s.latWindowed = true
		s.latSkip = make([]int, len(s.clients))
		for i, sc := range s.clients {
			s.latSkip[i] = len(sc.cl.Latencies())
		}
	}

	// 7. Sampling (and the flight-recorder row, when one is attached).
	if tick%s.sampleEvery == 0 {
		s.sample()
		if s.rec != nil {
			s.recordSample(tick)
		}
	}

	// 8. The health plane, in a run that checkpoints: heartbeats, checkpoint
	// uploads, the coordinator's lease check (health.go).
	if s.chkEvery > 0 {
		s.healthStage(tick)
	}

	if s.tr != nil {
		s.traceTickEnd(tickStart)
	}

	s.clk.Advance(time.Duration(dt * float64(time.Second)))
	s.tick++
	return nil
}

// Finish aggregates and returns the result. Call it after Done (a pooled
// runner may also call it after an early cancellation to inspect the
// partial run). The aggregation runs once; repeat calls return the same
// Result, so a partial-run inspection cannot double-count.
func (s *Sim) Finish() *Result {
	if s.finished == nil {
		s.finished = s.finish()
	}
	return s.finished
}

// generateTraffic makes every connected client emit its due updates.
func (s *Sim) generateTraffic(dt float64) {
	for _, sc := range s.clients {
		if !sc.alive || !sc.cl.Connected() {
			continue
		}
		if s.node(sc.assigned) == nil {
			continue
		}
		from, to := netem.ClientEndpoint(sc.cl.ID()), netem.ServerEndpoint(sc.assigned)
		sc.acc += s.cfg.Profile.UpdatesPerSec * dt
		for sc.acc >= 1 {
			sc.acc--
			kind := sc.mover.PickKind()
			var u *protocol.GameUpdate
			switch kind {
			case protocol.KindMove:
				next := sc.mover.Step(sc.cl.Pos(), 1.0/s.cfg.Profile.UpdatesPerSec)
				u = sc.cl.MakeMove(next)
			case protocol.KindAction:
				u = sc.cl.MakeAction(protocol.KindAction, sc.mover.ActionTarget(sc.cl.Pos()))
			default:
				u = sc.cl.MakeAction(protocol.KindChat, sc.cl.Pos())
			}
			u.Payload = make([]byte, s.cfg.Profile.PayloadBytes)
			s.send(from, to, netemToGS, u)
		}
	}
}

// sample appends the per-server series points (Figure 2's panels).
func (s *Sim) sample() {
	active := 0
	var drops uint64
	for _, n := range s.nodes {
		sid, isActive := n.Core.ID(), n.Core.Active() && !n.dead
		if isActive {
			active++
			s.reg.Series(fmt.Sprintf("clients/%v", sid)).Append(s.now, float64(n.Game.ClientCount()))
			s.reg.Series(fmt.Sprintf("queue/%v", sid)).Append(s.now, float64(n.Game.QueueLen()))
			s.res.ClientSeconds += float64(n.Game.ClientCount()) * s.cfg.SampleEverySeconds
		} else if n.activePrev {
			// One zero sample on deactivation closes the line.
			s.reg.Series(fmt.Sprintf("clients/%v", sid)).Append(s.now, 0)
			s.reg.Series(fmt.Sprintf("queue/%v", sid)).Append(s.now, 0)
		}
		n.activePrev = isActive
		drops += n.Game.Stats().Dropped
	}
	s.reg.Series("servers/active").Append(s.now, float64(active))
	s.reg.Series("drops/total").Append(s.now, float64(drops))
	if active > s.res.PeakServers {
		s.res.PeakServers = active
	}
}

// finish aggregates the result.
func (s *Sim) finish() *Result {
	res := s.res
	res.Metrics = s.reg
	res.Latency = s.lat
	res.SwitchLatency = s.swLat
	res.RecoveryGap = s.recGap
	res.Events = s.events
	for _, n := range s.nodes {
		st := n.Core.Stats()
		res.ForwardedBytes += st.PeerBytesOut
		res.ForwardedPackets += st.PeerPacketsOut
		gst := n.Game.Stats()
		res.DeliveredUpdates += gst.Delivered
		res.DroppedPackets += gst.Dropped
		if n.dead {
			continue // what it did counts; what it held died with it
		}
		res.OverlapAreaLast += n.Core.OverlapArea()
		if n.Core.Active() {
			res.FinalServers++
		}
	}
	// Collect client latencies (ms), honouring the measurement window.
	for i, sc := range s.clients {
		lats := sc.cl.Latencies()
		if i < len(s.latSkip) {
			lats = lats[min(s.latSkip[i], len(lats)):]
		}
		for _, d := range lats {
			res.Latency.Observe(float64(d) / float64(time.Millisecond))
		}
	}
	return &res
}

// MC exposes the coordinator for assertions in tests and experiments.
func (s *Sim) MC() *coordinator.Coordinator { return s.mc }

// Node returns a server's components for inspection.
func (s *Sim) Node(sid id.ServerID) (*core.Server, *gameserver.Server, bool) {
	n := s.node(sid)
	if n == nil {
		return nil, nil, false
	}
	return n.Core, n.Game, true
}
