// Package matrix is an adaptive middleware for distributed multiplayer
// games, reproducing Balan, Ebling, Castro and Misra, "Matrix: Adaptive
// Middleware for Distributed Multiplayer Games" (Middleware 2005).
//
// Matrix lets a massively multiplayer game scale across servers without the
// game understanding distribution. The game world's spatial map is
// partitioned dynamically: each game server owns one rectangle, forwards
// every client packet — tagged with its world coordinates — to a co-located
// Matrix server, and Matrix routes the packet to the servers whose
// partitions fall within the packet's radius of visibility (its consistency
// set), resolved by an O(1) overlap-table lookup. When a server is
// overloaded, its Matrix server splits the partition and sheds half the map
// to a spare server from the pool; when load recedes, parents reclaim their
// children. A central Matrix Coordinator computes the overlap tables but
// stays off the latency-critical packet path.
//
// Three entry points cover the deployment modes:
//
//   - ServeCoordinator / StartServer / Dial run a production cluster over
//     TCP (or any Network), used by the cmd/ binaries;
//   - RunSimulation drives the identical middleware deterministically at
//     experiment scale (hundreds of clients on one machine);
//   - the re-exported building blocks (Profile, Script, LoadPolicy) shape
//     workloads and policies for either mode.
package matrix

import (
	"log"
	"time"

	"matrix/internal/coordinator"
	"matrix/internal/game"
	"matrix/internal/gameclient"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/middleware"
	"matrix/internal/netem"
	"matrix/internal/policy"
	"matrix/internal/protocol"
	"matrix/internal/sim"
	"matrix/internal/snapshot"
	"matrix/internal/staticpart"
	"matrix/internal/trace"
	"matrix/internal/transport"
)

// Re-exported spatial and identity types. Games tag packets with Points;
// partitions and worlds are Rects.
type (
	// Point is a location in the game world.
	Point = geom.Point
	// Rect is an axis-aligned rectangle (min-closed, max-open).
	Rect = geom.Rect
	// ServerID identifies a Matrix server / game server pair.
	ServerID = id.ServerID
	// ClientID is a player's globally unique callsign.
	ClientID = id.ClientID
	// UpdateKind classifies a game update (move, action, chat, ...).
	UpdateKind = protocol.UpdateKind
	// GameUpdate is one spatially tagged game packet.
	GameUpdate = protocol.GameUpdate
	// LoadPolicy tunes the split/reclaim thresholds; the zero value is the
	// paper's 300/150-client policy.
	LoadPolicy = policy.Thresholds
	// Network abstracts the transport (TCP or in-memory).
	Network = transport.Network
	// Profile is a game workload's traffic shape.
	Profile = game.Profile
	// Script schedules population changes (hotspots) for simulations.
	Script = game.Script
	// ScriptEvent is one scripted join/leave.
	ScriptEvent = game.Event
	// SimulationConfig parameterizes a deterministic simulation run.
	SimulationConfig = sim.Config
	// SimulationResult carries a simulation's series and aggregates.
	SimulationResult = sim.Result
	// NetemConfig models a degraded network in simulations (the zero value
	// is an exact pass-through).
	NetemConfig = netem.Config
	// NetemLink is one link's impairment: delay, jitter, i.i.d. and burst
	// loss.
	NetemLink = netem.LinkConfig
	// HostMiddleware configures the interceptor chain a server runs on
	// what enters its game server's queue (see WithMiddleware). The zero
	// value installs nothing.
	HostMiddleware = middleware.Config
	// SimMiddleware configures the simulation's deterministic admission
	// chain (SimulationConfig.Middleware).
	SimMiddleware = sim.MiddlewareConfig
	// Tracer is a ring-buffered packet-path and tick-phase tracer (see
	// NewTracer, WithTracer). Export with its WriteJSON (Perfetto-loadable
	// Chrome trace JSON), WriteText, or Serve methods.
	Tracer = trace.Tracer
)

// Update kinds.
const (
	KindMove    = protocol.KindMove
	KindAction  = protocol.KindAction
	KindChat    = protocol.KindChat
	KindSpawn   = protocol.KindSpawn
	KindDespawn = protocol.KindDespawn
)

// Script event kinds. The netem kinds change network conditions mid-run:
// impairment swaps, backbone partitions and server crash/recover cycles.
const (
	EventJoin      = game.EventJoin
	EventLeave     = game.EventLeave
	EventImpair    = game.EventImpair
	EventPartition = game.EventPartition
	EventHeal      = game.EventHeal
	EventCrash     = game.EventCrash
	EventRecover   = game.EventRecover
	EventCrashLose = game.EventCrashLose
)

// Pt builds a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// R builds a Rect.
func R(minX, minY, maxX, maxY float64) Rect { return geom.R(minX, minY, maxX, maxY) }

// TCP returns the production transport.
func TCP() Network { return transport.TCPNetwork{} }

// NewMemNetwork returns an isolated in-process transport, byte-compatible
// with TCP; ideal for tests and single-process demos.
func NewMemNetwork() Network { return transport.NewMemNetwork() }

// ImpairNetwork wraps any Network so every connection it produces runs
// under emulated impairment (delay, jitter, loss) — the live counterpart
// of SimulationConfig.Netem. A zero link returns nw unchanged.
func ImpairNetwork(nw Network, link NetemLink, seed int64) Network {
	return netem.WrapNetwork(nw, link, seed)
}

// ParseNetemSpec parses the CLI impairment syntax, e.g.
// "delay=40ms,jitter=25ms,loss=2%".
func ParseNetemSpec(spec string) (NetemLink, error) { return netem.ParseSpec(spec) }

// ParseMiddlewareSpec parses the CLI stage-list syntax behind -middleware,
// e.g. "auth,ratelimit,admission,audit". Order is preserved (it becomes
// request order); an empty spec disables the chain.
func ParseMiddlewareSpec(spec string) ([]string, error) { return middleware.ParseSpec(spec) }

// BzflagProfile returns the BzFlag-like workload (tank shooter).
func BzflagProfile() Profile { return game.Bzflag() }

// DaimoninProfile returns the Daimonin-like workload (RPG).
func DaimoninProfile() Profile { return game.Daimonin() }

// Quake2Profile returns the Quake 2-like workload (fast shooter).
func Quake2Profile() Profile { return game.Quake2() }

// Figure2Script reproduces the paper's Figure 2 hotspot schedule on world.
func Figure2Script(world Rect) Script { return game.Figure2Script(world) }

// DefaultLoadPolicy returns the paper's thresholds: overload at 300
// clients, underload below 150.
func DefaultLoadPolicy() LoadPolicy { return policy.DefaultThresholds() }

// PolicyNames lists the registered decision policies ("paper",
// "hysteresis", ...) in presentation order. Pass one to WithPolicy, a
// -policy flag, or SimulationConfig.Policy.
func PolicyNames() []string { return policy.Names() }

// DescribePolicy returns a registered policy's one-line description, or ""
// for unknown names.
func DescribePolicy(name string) string { return policy.Describe(name) }

// ValidatePolicy checks a policy name exactly like the constructors and
// -policy flags do: the empty string (meaning the paper policy) and every
// PolicyNames entry pass; anything else errors, naming the valid choices.
func ValidatePolicy(name string) error { return policy.Valid(name) }

// StaticGrid divides world into n fixed tiles for the static-partitioning
// baseline (see WithStaticPartitions).
func StaticGrid(world Rect, n int) ([]Rect, error) { return staticpart.Grid(world, n) }

// options collects the functional options shared by the constructors.
type options struct {
	network     Network
	addr        string
	world       Rect
	radius      float64
	loadPolicy  LoadPolicy
	policy      string
	static      []Rect
	extraRadii  []float64
	logger      *log.Logger
	tick        time.Duration
	serviceRate int
	maxQueue    int
	report      time.Duration
	restore     []byte
	tracer      *trace.Tracer
	mw          HostMiddleware
	authToken   string
	heartbeat   time.Duration
	leaseMisses int
	checkpoint  time.Duration
	fallbacks   []string
	redialEvery time.Duration
}

func defaultOptions() options {
	return options{
		network: transport.TCPNetwork{},
		world:   geom.R(0, 0, 1000, 1000),
		radius:  40,
	}
}

// Option configures ServeCoordinator, StartServer or Dial.
type Option func(*options)

// WithNetwork selects the transport (default TCP).
func WithNetwork(nw Network) Option { return func(o *options) { o.network = nw } }

// WithAddr sets the listen address (coordinator/server) — empty picks an
// ephemeral address.
func WithAddr(addr string) Option { return func(o *options) { o.addr = addr } }

// WithWorld sets the full game-world rectangle (coordinator only).
func WithWorld(w Rect) Option { return func(o *options) { o.world = w } }

// WithRadius sets the game's visibility radius (servers).
func WithRadius(r float64) Option { return func(o *options) { o.radius = r } }

// WithLoadPolicy tunes split/reclaim thresholds (servers).
func WithLoadPolicy(p LoadPolicy) Option { return func(o *options) { o.loadPolicy = p } }

// WithPolicy selects the named decision policy (see PolicyNames). On a
// server it judges when to split and reclaim; on a coordinator it picks
// spares and places children. Empty means the paper's rules. Unknown names
// fail the constructor.
func WithPolicy(name string) Option { return func(o *options) { o.policy = name } }

// WithStaticPartitions runs the coordinator as the static-partitioning
// baseline: the i-th registering server is pinned to tiles[i] forever.
func WithStaticPartitions(tiles []Rect) Option {
	return func(o *options) { o.static = append([]Rect(nil), tiles...) }
}

// WithExtraRadii registers additional visibility radii (the paper's
// per-class exceptions); the coordinator maintains one overlap-table set
// per radius.
func WithExtraRadii(radii ...float64) Option {
	return func(o *options) { o.extraRadii = append([]float64(nil), radii...) }
}

// WithLogger directs diagnostics (default: silent).
func WithLogger(l *log.Logger) Option { return func(o *options) { o.logger = l } }

// WithTickInterval sets the longest gap between arrival-driven game ticks (servers).
func WithTickInterval(d time.Duration) Option { return func(o *options) { o.tick = d } }

// WithServiceRate sets packets served per WithTickInterval of wall time (servers).
func WithServiceRate(n int) Option { return func(o *options) { o.serviceRate = n } }

// WithMaxQueue bounds the game server's receive queue (servers).
func WithMaxQueue(n int) Option { return func(o *options) { o.maxQueue = n } }

// WithReportInterval sets the load-report cadence (servers).
func WithReportInterval(d time.Duration) Option { return func(o *options) { o.report = d } }

// WithMiddleware installs the interceptor chain on a server: a client's
// frames, and what the Matrix server hands its game server (a peer's forward
// once range-checked, a state transfer, a range change), are judged by the
// configured stages: auth, ratelimit, admission, audit (servers only).
func WithMiddleware(cfg HostMiddleware) Option { return func(o *options) { o.mw = cfg } }

// WithAuthToken stamps the session token on the client's ClientHello —
// the initial join and every redirect rejoin — for servers running the
// auth stage (clients only).
func WithAuthToken(token string) Option { return func(o *options) { o.authToken = token } }

// WithHeartbeatEvery enables fleet health tracking. On a coordinator it
// sets the lease tick: servers that miss WithLeaseMisses consecutive beats
// are declared dead and their regions are adopted by warm spares. On a
// server it sets the heartbeat send cadence (default 1s; beats are ignored
// by coordinators with health off, so the default is always safe). Zero on
// the coordinator disables every health feature.
func WithHeartbeatEvery(d time.Duration) Option { return func(o *options) { o.heartbeat = d } }

// WithLeaseMisses sets how many consecutive missed heartbeats kill a
// server's lease (coordinator only, default 3).
func WithLeaseMisses(n int) Option { return func(o *options) { o.leaseMisses = n } }

// WithCheckpointEvery sets how often a partition-owning server ships a
// checkpoint of its full node state to the coordinator (default 10s,
// negative disables). A spare adopting a dead server's region restores
// from the victim's last checkpoint (servers only).
func WithCheckpointEvery(d time.Duration) Option { return func(o *options) { o.checkpoint = d } }

// WithFallbackAddrs lists additional game servers a client may redial when
// its live connection dies without a redirect — i.e. its server crashed.
// Reaching any survivor is enough: the hello-retry path routes the client
// to whichever server owns its position now (clients only).
func WithFallbackAddrs(addrs ...string) Option {
	return func(o *options) { o.fallbacks = append([]string(nil), addrs...) }
}

// WithRedialEvery sets the client's crash-reconnect retry cadence
// (default 200ms, negative disables redialing; clients only).
func WithRedialEvery(d time.Duration) Option { return func(o *options) { o.redialEvery = d } }

// NewTracer builds a tracer with the given ring capacity (rounded up to a
// power of two; <= 0 picks the default, large enough for a busy tick
// window). A nil *Tracer is the disabled tracer — every method is safe.
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// WithTracer attaches a tracer. On a server, tick phases become trace
// slices and /metrics summaries, and every client packet is followed
// across middleware, processing and peer forwards as an async span. On a
// coordinator, every correlation-stamped control frame (split, adoption,
// drain fan-out) gets an instant event, pairing with the receiving
// server's trace by corr value. Nil means tracing off, which costs
// nothing.
func WithTracer(tr *Tracer) Option { return func(o *options) { o.tracer = tr } }

// WithRestoreSnapshot makes a server adopt the game world (client avatars
// and map objects) from a snapshot blob before it starts serving, so no
// client can join into a window a later restore would wipe. Topology is
// not restored — the server registers freshly (servers only).
func WithRestoreSnapshot(blob []byte) Option {
	return func(o *options) { o.restore = append([]byte(nil), blob...) }
}

// RunSimulation executes one deterministic simulation and returns its
// result (series, latencies, topology events). It is how the bundled
// experiments regenerate the paper's figures.
func RunSimulation(cfg SimulationConfig) (*SimulationResult, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// NewSimulation builds a simulation without running it, for callers that
// want to inspect cluster state afterwards.
func NewSimulation(cfg SimulationConfig) (*sim.Sim, error) { return sim.New(cfg) }

// SimulationSnapshot is a complete captured simulation state, restorable
// into a run that continues byte-identically (see internal/snapshot).
type SimulationSnapshot = snapshot.Snapshot

// CaptureSimulation freezes a simulation built with NewSimulation (between
// steps, or after it finished) into a versioned snapshot.
func CaptureSimulation(s *sim.Sim) (*SimulationSnapshot, error) { return snapshot.Capture(s) }

// RestoreSimulation rebuilds a simulation from a snapshot; the restored
// run's Result.Fingerprint matches the uninterrupted run's byte for byte.
func RestoreSimulation(snap *SimulationSnapshot) (*sim.Sim, error) { return snapshot.Restore(snap) }

// internal glue shared by the constructors in cluster.go.
func (o options) coordinatorConfig() (coordinator.Config, error) {
	pol, err := policy.New(o.policy)
	if err != nil {
		return coordinator.Config{}, err
	}
	return coordinator.Config{
		World:          o.world,
		ExtraRadii:     o.extraRadii,
		Static:         o.static,
		HeartbeatEvery: o.heartbeat,
		LeaseMisses:    o.leaseMisses,
		Policy:         pol,
	}, nil
}

// clientConfig assembles a gameclient.Config.
func clientConfig(idv ClientID, pos Point) gameclient.Config {
	return gameclient.Config{ID: idv, Pos: pos}
}
