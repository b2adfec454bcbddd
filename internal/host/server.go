package host

import (
	"errors"
	"fmt"
	"io"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"matrix/internal/core"
	"matrix/internal/gameserver"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/load"
	"matrix/internal/metrics"
	"matrix/internal/middleware"
	"matrix/internal/node"
	"matrix/internal/nodeblob"
	"matrix/internal/protocol"
	"matrix/internal/trace"
	"matrix/internal/transport"
)

// ServerConfig configures a combined Matrix server + game server host.
type ServerConfig struct {
	// Network supplies transports (TCP in production, MemNetwork in tests).
	Network transport.Network
	// Coordinator is the MC's dial address.
	Coordinator string
	// ListenAddr is where peers and game clients reach this server
	// (empty = transport default; the resolved address is registered with
	// the MC).
	ListenAddr string
	// Radius is the game's visibility radius.
	Radius float64
	// Load tunes the split/reclaim policy (zero value = paper defaults).
	Load load.Config
	// Policy names the decision policy (internal/policy) that judges this
	// server's splits and reclaims. Empty means the paper's rules.
	Policy string
	// TickInterval is the longest the server goes without a game tick, and
	// the unit ServiceRate is quoted in (default 10ms). Ticks are driven by
	// arrivals (see tickLoop), so a busy server ticks far more often.
	TickInterval time.Duration
	// ServiceRate is the packets served per TickInterval of wall time,
	// however many ticks that takes (default 500).
	ServiceRate int
	// MaxQueue bounds the receive queue (0 = unbounded).
	MaxQueue int
	// ReportInterval is the load-report cadence (default 1s).
	ReportInterval time.Duration
	// Logger receives diagnostics (nil = silent).
	Logger *log.Logger
	// Restore, when non-nil, is a snapshot blob (see nodeblob.Marshal)
	// whose game-world state — client avatars and map objects — this node
	// adopts before it starts serving, so no client can join into a window
	// that a later restore would wipe. Topology is not restored: the node
	// registers freshly and owns whatever the MC assigns.
	Restore []byte
	// Middleware configures the interceptor chain judging what enters the
	// game server's queue (zero value = no chain). Without an AuditSink of
	// the caller's, the audit stage writes one line per verdict to Logger.
	Middleware middleware.Config
	// PeerDialTimeout bounds the background dial of a peer connection
	// (default 3s). On failure the queued frames are dropped, counted and
	// logged; the tick loop never waits on connection establishment.
	PeerDialTimeout time.Duration
	// HeartbeatEvery is the lease-renewal cadence towards the MC (default
	// 1s, negative disables). A coordinator with health tracking off
	// ignores the beats, so the default is always safe.
	HeartbeatEvery time.Duration
	// CheckpointEvery is how often this node ships its full state to the
	// MC as the recovery blob a warm spare adopts after a crash (default
	// 10s, negative disables). Only partition owners ship; spares have
	// nothing to lose.
	CheckpointEvery time.Duration
	// Tracer, when non-nil, records tick-phase slices and packet-path
	// events into its ring (wall-clock microseconds since tracer creation)
	// and turns on the tick-phase histograms in /metrics. Nil — the default
	// — costs nothing on the frame path.
	Tracer *trace.Tracer
}

func (c ServerConfig) sanitized() ServerConfig {
	if c.TickInterval <= 0 {
		c.TickInterval = 10 * time.Millisecond
	}
	if c.PeerDialTimeout <= 0 {
		c.PeerDialTimeout = 3 * time.Second
	}
	if c.ServiceRate <= 0 {
		c.ServiceRate = 500
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = time.Second
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	return c
}

// ServerHost runs one node (internal/node: a Matrix server, its co-located
// game server, the admission chain) over real transports. What a server does
// with a message is the node's; the host owns the sockets, when the node ticks
// and where its envelopes go. The tick goroutine alone calls the node, bar the
// receive queue the client pumps fill, and alone holds the connection tables:
// dumps, restores and connection events run there as funnel calls (onTick,
// await), and getters read the status it publishes (Core, Game).
type ServerHost struct {
	cfg     ServerConfig
	node    *node.Node
	mcConn  transport.Conn
	ln      transport.Listener
	ticking bool // a tick loop owns the node; without one boot's caller does

	// The node (and len(peers)) as published in every tick, report and funnel
	// call: copied in under statusMu, so that publishing allocates nothing.
	statusMu  sync.Mutex
	core      CoreView
	game      GameView
	peerConns int

	started time.Time // epoch of the middleware clock

	// Observability: tr mirrors cfg.Tracer (nil = off); treg holds the
	// tick-phase histograms, populated only while tracing and reset on
	// every /metrics scrape so the raw-sample store stays bounded; mcDown
	// flips when the coordinator connection dies (readiness signal) and
	// mcUnsent counts what the tick goroutine has withheld from it since
	// (see toMC).
	tr       *trace.Tracer
	treg     *metrics.Registry
	mcDown   atomic.Bool
	mcUnsent atomic.Uint64

	// ingress is the single-writer funnel: mcLoop and the peer pumps park
	// core-bound messages here and tickLoop alone routes them, so every
	// frame to a peer connection leaves from the tick goroutine in batch
	// order — an MC-triggered state transfer can no longer interleave with
	// (or overtake flushing of) the tick's batched traffic. ingressMu also
	// guards open, the connections accepted or dialed and not yet forgotten:
	// Close closes them, whatever a goroutine is blocked in (nil once closed).
	ingressMu    sync.Mutex
	ingress      []ingressMsg
	ingressSpare []ingressMsg
	open         map[transport.Conn]bool

	// Tick goroutine's (no locking): the connection tables, which connection
	// events change (funnel calls); what the node's last step or load report
	// emitted, the fallout of the ingress message being handled, the tick's
	// outbound traffic, flushed as one frame per connection per tick, and the
	// service budget with the time of the tick that last topped it up.
	peers   map[string]transport.Conn // outbound, keyed by dial address
	dialing map[string][]protocol.Message
	clients map[id.ClientID]transport.Conn
	// evict holds clients whose live connection dropped, keyed to the
	// game server's count of taken messages (gameserver.Server.Queued) at
	// which every frame they had queued has run; a new connection for the
	// client cancels its entry.
	evict   map[id.ClientID]uint64
	stepped node.Out
	handled []core.Envelope
	out     *egress
	budget  float64
	last    time.Time

	// Health state. ticks/cpTick are written by the tick goroutine (Adopt
	// frames and the checkpoint ticker both run there).
	beatsPaused atomic.Bool // test hook: simulate a zombie (alive, silent)
	// A drain is one cycle, owned by the tick goroutine: a grant starts the
	// evacuation, the settle check ending a tick closes the cycle's channel,
	// and the RangeUpdate that re-activates the node opens the next cycle.
	evacuating, drainDone bool
	drainSince            time.Time                     // since when the node has been evacuated; zero while it is not
	drained               atomic.Pointer[chan struct{}] // the current cycle's
	drainEvent            chan bool                     // one send per finished cycle: did its grant ask for exit
	drainExit             atomic.Bool                   // the grant asked for exit instead of re-pooling
	drainReply            chan *protocol.DrainReply
	// adoptDrops counts Adopt streams dropped for outgrowing
	// protocol.MaxBlobSize.
	adoptDrops atomic.Uint64
	ticks      atomic.Uint64 // game ticks processed (atomic: /metrics reads it)
	// ingressDrops and backlogDrops count the messages the ingress funnel and
	// the peer dial backlogs refused or lost; dropsLogged is the sum the tick
	// loop has already reported. foreign counts client frames for another
	// session (serveClient).
	ingressDrops, backlogDrops atomic.Uint64
	dropsLogged                uint64
	foreign                    atomic.Uint64
	// cpTick is the tick count when the last checkpoint shipped; atomic so
	// harnesses can watch checkpoint progress from outside the tick loop.
	cpTick atomic.Uint64
	// cpOversize counts checkpoints refused here for outgrowing
	// protocol.MaxBlobSize; cpTooBig says the latest one was (see Ready).
	cpOversize atomic.Uint64
	cpTooBig   atomic.Bool

	wg   sync.WaitGroup
	done chan struct{}
	wake chan struct{} // 1 slot: something arrived since the tick loop last looked
}

// minTickGap is the least time between two game ticks (W in docs/PERF.md):
// what arrives inside it leaves as one frame per connection.
const minTickGap = time.Millisecond

// wakeTick tells the tick loop that something has arrived. It never blocks:
// one pending signal covers every arrival before the tick that answers it.
func (h *ServerHost) wakeTick() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// StartServer registers with the MC and brings the pumps and the tick loop up.
func StartServer(cfg ServerConfig) (*ServerHost, error) { return boot(cfg, true) }

// boot registers with the MC and brings the pumps up, and the tick loop when
// ticking. Without one, boot's caller is the tick goroutine.
func boot(cfg ServerConfig, ticking bool) (_ *ServerHost, err error) {
	cfg = cfg.sanitized()
	ln, err := cfg.Network.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	mcConn, err := cfg.Network.Dial(cfg.Coordinator)
	if err != nil {
		_ = ln.Close()
		return nil, fmt.Errorf("host: dial coordinator: %w", err)
	}
	// From here on a failed start gives the listener and the connection back.
	defer func() {
		if err != nil {
			_ = ln.Close()
			_ = mcConn.Close()
		}
	}()
	if err := mcConn.Send(&protocol.RegisterRequest{Addr: ln.Addr(), Radius: cfg.Radius}); err != nil {
		return nil, err
	}
	first, err := mcConn.Recv()
	if err != nil {
		return nil, fmt.Errorf("host: registration reply: %w", err)
	}
	reply, ok := first.(*protocol.RegisterReply)
	if e, refused := first.(*protocol.ErrorMsg); refused {
		return nil, fmt.Errorf("host: registration refused: %s", e.Reason)
	} else if !ok {
		return nil, fmt.Errorf("host: unexpected registration reply %v", first.MsgType())
	}

	// The audit stage writes to the server log unless the caller took its feed.
	if cfg.Middleware.AuditSink == nil {
		cfg.Middleware.AuditSink = func(e middleware.Event) {
			from := e.Client.String()
			if e.Source == middleware.SourcePeer {
				from = "a peer"
			}
			cfg.Logger.Printf("server %v: audit: %v %v from %s at %.3fs", reply.Server, e.Verdict, e.Type, from, e.Time)
		}
	}
	// The policy clock stays the wall clock (nil).
	nd, err := node.New(node.Config{
		Load:       cfg.Load,
		Policy:     cfg.Policy,
		Radius:     cfg.Radius,
		MaxQueue:   cfg.MaxQueue,
		Middleware: cfg.Middleware,
	}, reply)
	if err != nil {
		return nil, err
	}

	// Boot-time restore runs before any pump starts: no client can have
	// joined yet, so the adopted world can never wipe a live session.
	if cfg.Restore != nil {
		if err := nodeblob.RestoreGame(cfg.Restore, nd.Game); err != nil {
			return nil, fmt.Errorf("host: restore snapshot: %w", err)
		}
	}

	h := &ServerHost{
		cfg:        cfg,
		node:       nd,
		ticking:    ticking,
		mcConn:     mcConn,
		ln:         ln,
		tr:         cfg.Tracer,
		treg:       metrics.NewRegistry(),
		started:    time.Now(),
		open:       make(map[transport.Conn]bool),
		peers:      make(map[string]transport.Conn),
		dialing:    make(map[string][]protocol.Message),
		clients:    make(map[id.ClientID]transport.Conn),
		evict:      make(map[id.ClientID]uint64),
		out:        newEgress(),
		budget:     float64(cfg.ServiceRate),
		last:       time.Now(),
		drainReply: make(chan *protocol.DrainReply, 1),
		drainEvent: make(chan bool, 1),
		done:       make(chan struct{}),
		wake:       make(chan struct{}, 1),
	}
	h.rearmDrain()
	if h.tr != nil {
		h.tr.NameProcess(hostTracePid, nd.Core.ID().String())
		h.tr.NameThread(hostTracePid, hostTraceTidTick, "tick")
		h.tr.NameThread(hostTracePid, hostTraceTidNet, "net")
	}
	h.publish()
	cfg.Logger.Printf("server %v up at %s (bounds %v)", nd.Core.ID(), ln.Addr(), nd.Core.Bounds())
	h.wg.Add(2)
	go h.mcLoop()
	go h.acceptLoop()
	if ticking {
		h.wg.Add(1)
		go h.tickLoop()
	}
	return h, nil
}

// ID returns the Matrix server's identity.
func (h *ServerHost) ID() id.ServerID { return h.node.Core.ID() }

// Addr returns the listener address.
func (h *ServerHost) Addr() string { return h.ln.Addr() }

// CoreView is a host's Matrix server as the tick goroutine last published it.
type CoreView struct {
	stats  core.Stats
	bounds geom.Rect
	active bool
}

// Stats, Bounds and Active return the traffic counters, the owned partition
// (empty when spare) and whether the server owns one.
func (v CoreView) Stats() core.Stats { return v.stats }
func (v CoreView) Bounds() geom.Rect { return v.bounds }
func (v CoreView) Active() bool      { return v.active }

// GameView is a host's game server as the tick goroutine last published it,
// bar the receive queue's length, which is read live.
type GameView struct {
	stats gameserver.Stats
	queue *gameserver.Server
}

// Stats, ClientCount and QueueLen return the counters, the number of
// connected clients and the receive queue's length now.
func (v GameView) Stats() gameserver.Stats { return v.stats }
func (v GameView) ClientCount() int        { return v.stats.ClientsCurrent }
func (v GameView) QueueLen() int           { return v.queue.QueueLen() }

// Core and Game return views of the node's components that any goroutine may
// read (status tooling).
func (h *ServerHost) Core() CoreView { c, _, _ := h.published(); return c }
func (h *ServerHost) Game() GameView { _, g, _ := h.published(); return g }

func (h *ServerHost) published() (CoreView, GameView, int) {
	h.statusMu.Lock()
	defer h.statusMu.Unlock()
	return h.core, h.game, h.peerConns
}

// publish copies the node's status out for other goroutines. Tick goroutine.
func (h *ServerHost) publish() {
	c, g := h.node.Core, h.node.Game
	cv, gv := CoreView{c.Stats(), c.Bounds(), c.Active()}, GameView{g.Stats(), g}
	h.statusMu.Lock()
	h.core, h.game, h.peerConns = cv, gv, len(h.peers)
	h.statusMu.Unlock()
}

// onTick runs fn on the tick goroutine between two funnel messages, then
// publishes, and returns fn's error once both are done; a host without a tick
// loop is called from its tick goroutine, and runs fn at once. A closed host
// refuses the call.
func (h *ServerHost) onTick(fn func() error) error {
	if !h.ticking {
		defer h.publish()
		return fn()
	}
	var err error
	if !h.await(func() { err = fn(); h.publish() }) {
		return ErrClosed
	}
	return err
}

// await posts fn to the funnel and waits until the tick goroutine has run
// it — on a host without a tick loop, until its caller next ticks. It reports
// false when the host closed first; fn may then never run.
func (h *ServerHost) await(fn func()) bool {
	ran := make(chan struct{})
	if !h.enqueueIngress(ingressMsg{fn: fn, ran: ran}) {
		return false
	}
	select {
	case <-ran:
		return true
	case <-h.done:
		return false
	}
}

// Snapshot dumps this node's complete state (Matrix server + game server)
// as a versioned blob — the payload of a protocol SnapshotData stream. It is
// taken on the tick goroutine, between two ticks.
func (h *ServerHost) Snapshot() ([]byte, error) {
	var blob []byte
	if err := h.onTick(func() (err error) { blob, err = nodeblob.Marshal(h.node.Core, h.node.Game); return err }); err != nil {
		return nil, err
	}
	return blob, nil
}

// sendSnapshot streams a snapshot blob as SnapshotData frames, the last one
// marked Final.
func sendSnapshot(conn transport.Conn, blob []byte) error {
	for chunk, final := range protocol.Chunks(blob) {
		if err := conn.Send(&protocol.SnapshotData{Blob: chunk, Final: final}); err != nil {
			return err
		}
	}
	return nil
}

// RestoreSnapshot re-adopts the game-world state (client avatars and map
// objects) from a Snapshot blob. Topology is NOT restored: this host
// registered freshly with the MC and owns whatever range that produced —
// the live crash-recovery semantic (the world state survives the crash).
// Boot-time restores should use ServerConfig.Restore instead, which
// applies before the host serves: a live RestoreSnapshot replaces the
// world wholesale, dropping the avatar of any client that joined since
// the blob was captured (it stays connected and must rejoin). It runs on the
// tick goroutine, between two ticks.
func (h *ServerHost) RestoreSnapshot(blob []byte) error {
	return h.onTick(func() error { return nodeblob.RestoreGame(blob, h.node.Game) })
}

// Close stops the host and waits for its goroutines. It closes every open
// connection itself, failing any write or read stuck on one; a connection
// accepted or dialed after the funnel shut is closed by track.
func (h *ServerHost) Close() error {
	h.ingressMu.Lock()
	if h.isClosed() {
		h.ingressMu.Unlock()
		return nil
	}
	close(h.done)
	open := h.open
	h.open = nil
	h.ingressMu.Unlock()
	err := h.ln.Close()
	_ = h.mcConn.Close()
	for c := range open {
		_ = c.Close()
	}
	h.wg.Wait()
	if h.node.MW != nil {
		h.node.MW.Close()
	}
	return err
}

func (h *ServerHost) isClosed() bool {
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

// track adds conn to the open set and reports whether it did: a closed host
// closes it instead.
func (h *ServerHost) track(conn transport.Conn) bool {
	h.ingressMu.Lock()
	defer h.ingressMu.Unlock()
	if h.isClosed() {
		_ = conn.Close()
		return false
	}
	h.open[conn] = true
	return true
}

// forget closes conn and drops it from the open set: its owner is done.
func (h *ServerHost) forget(conn transport.Conn) {
	_ = conn.Close()
	h.ingressMu.Lock()
	delete(h.open, conn)
	h.ingressMu.Unlock()
}

// clockSeconds is the middleware clock: monotonic seconds since the host
// started.
func (h *ServerHost) clockSeconds() float64 { return time.Since(h.started).Seconds() }

// ServeMetrics starts a Prometheus-format HTTP endpoint for this host on
// addr — /metrics plus /healthz (liveness) and /readyz (readiness, see
// Ready) — returning the bound address and a closer that stops the
// endpoint. Gauges are sampled at scrape time; the middleware chain's
// counters are included when a chain is configured. The queue length is the
// live one; every other node gauge reads as of the last tick.
func (h *ServerHost) ServeMetrics(addr string) (string, io.Closer, error) {
	return metrics.Serve(addr, h.writeMetrics, h.Ready, nil)
}

// writeMetrics renders one scrape. The tick-phase histograms (populated
// only while tracing) are reset after rendering, so a scrape reports the
// ticks since the last one (traceTick bounds them when nobody scrapes).
func (h *ServerHost) writeMetrics(w io.Writer) {
	_, game, peers := h.published()
	fmt.Fprintf(w, "# TYPE matrix_server_clients gauge\nmatrix_server_clients %d\n", game.ClientCount())
	fmt.Fprintf(w, "# TYPE matrix_server_queue_len gauge\nmatrix_server_queue_len %d\n", game.QueueLen())
	fmt.Fprintf(w, "# TYPE matrix_server_peer_conns gauge\nmatrix_server_peer_conns %d\n", peers)
	fmt.Fprintf(w, "# TYPE matrix_server_ticks counter\nmatrix_server_ticks %d\n", h.ticks.Load())
	fmt.Fprintf(w, "# TYPE matrix_server_processed_total counter\nmatrix_server_processed_total %d\n", game.stats.Processed)
	fmt.Fprintf(w, "# TYPE matrix_server_adopt_overflows_total counter\nmatrix_server_adopt_overflows_total %d\n", h.adoptDrops.Load())
	fmt.Fprintf(w, "# TYPE matrix_server_checkpoint_oversize_total counter\nmatrix_server_checkpoint_oversize_total %d\n", h.cpOversize.Load())
	fmt.Fprintf(w, "# TYPE matrix_server_ingress_overflows_total counter\nmatrix_server_ingress_overflows_total %d\n", h.ingressDrops.Load())
	fmt.Fprintf(w, "# TYPE matrix_server_peer_backlog_drops_total counter\nmatrix_server_peer_backlog_drops_total %d\n", h.backlogDrops.Load())
	fmt.Fprintf(w, "# TYPE matrix_server_mc_unsent_total counter\nmatrix_server_mc_unsent_total %d\n", h.mcUnsent.Load())
	fmt.Fprintf(w, "# TYPE matrix_server_client_foreign_total counter\nmatrix_server_client_foreign_total %d\n", h.foreign.Load())
	if h.node.MW != nil {
		h.node.MW.Stats().WritePrometheus(w)
	}
	if h.tr != nil {
		metrics.WritePrometheus(w, h.treg)
		for _, name := range hostPhaseHistograms {
			h.treg.Histogram(name).Reset()
		}
	}
	metrics.WriteRuntime(w)
}

// logDrops reports what the bounded queues refused since the last report:
// one line per tick at most, however many frames overflowed — the drops
// happen exactly when the tick is behind, which is no time for a log line
// per frame. Tick goroutine only.
func (h *ServerHost) logDrops() {
	in, bl := h.ingressDrops.Load(), h.backlogDrops.Load()
	if in+bl == h.dropsLogged {
		return
	}
	h.dropsLogged = in + bl
	h.cfg.Logger.Printf("server %v: bounded queues dropping: %d ingress message(s) (funnel full), %d peer message(s) (dial backlog full) in total", h.node.Core.ID(), in, bl)
}

// mcLoop pumps coordinator messages into the ingress funnel; the tick
// goroutine does the actual routing (see drainIngress).
func (h *ServerHost) mcLoop() {
	defer h.wg.Done()
	for {
		m, err := h.mcConn.Recv()
		if err != nil {
			select {
			case <-h.done: // our own Close
			default:
				h.mcLost(err)
			}
			return
		}
		h.enqueueIngress(ingressMsg{msg: m})
	}
}

// mcLost flags the coordinator link as dead, once: no more range updates or
// drain grants can arrive, so /readyz flips to 503, and toMC stops writing to
// it. Nothing redials (ROADMAP item 2b).
func (h *ServerHost) mcLost(err error) {
	if h.mcDown.CompareAndSwap(false, true) {
		h.cfg.Logger.Printf("server %v: coordinator connection lost: %v; still serving clients and peers, what is bound for the coordinator is withheld and counted from here on", h.node.Core.ID(), err)
	}
}

// toMC is the tick goroutine's one way to the coordinator — lease renewals,
// checkpoint chunks, everything the core addresses to it — and reports whether
// m went out. A send error is the link's (nothing bound there can fail to
// encode). Once the link is down it writes nothing and says nothing: the loss
// was logged when it happened, what is withheld is counted (mcUnsent).
func (h *ServerHost) toMC(m protocol.Message) bool {
	if !h.mcDown.Load() {
		err := h.mcConn.Send(m)
		if err == nil {
			return true
		}
		h.mcLost(err)
	}
	h.mcUnsent.Add(1)
	return false
}

// ingressMsg is one coordinator- or peer-originated message awaiting the
// tick goroutine, or a funnel call (fn; see onTick), closing ran once run.
type ingressMsg struct {
	from id.ServerID
	msg  protocol.Message
	fn   func()
	ran  chan struct{}
}

// maxIngress bounds the frames in the funnel between ticks; beyond it frames
// are dropped and counted (ingressDrops) rather than growing without bound
// while the tick goroutine is busy. A funnel call is never refused for room (a
// lost client exit would leak its avatar): each is a waiting caller's or a
// connection event, two per connection at most (registration and exit).
const maxIngress = 1 << 16

// enqueueIngress parks one coordinator- or peer-originated message, or a
// funnel call, for the tick goroutine and reports whether it did: a closed
// host takes nothing, and a frame beyond maxIngress does not fit. Routing
// core envelopes only there keeps every peer connection single-writer, so the
// state-before-redirect wire order cannot be broken by an mcLoop or peer-pump
// send racing the tick flush.
func (h *ServerHost) enqueueIngress(im ingressMsg) bool {
	h.ingressMu.Lock()
	if h.isClosed() {
		h.ingressMu.Unlock()
		return false
	}
	if im.fn == nil && len(h.ingress) >= maxIngress {
		h.ingressMu.Unlock()
		h.ingressDrops.Add(1)
		return false
	}
	h.ingress = append(h.ingress, im)
	h.ingressMu.Unlock()
	h.wakeTick()
	return true
}

// drainIngress feeds everything the funnel holds through the Matrix
// server, collecting peer-bound fallout into the tick's egress. Runs on the
// tick goroutine only; every backing slice is reused tick over tick.
func (h *ServerHost) drainIngress() {
	h.ingressMu.Lock()
	msgs := h.ingress
	h.ingress = h.ingressSpare[:0]
	h.ingressMu.Unlock()
	for _, im := range msgs {
		if im.fn != nil {
			im.fn()
			if im.ran != nil {
				close(im.ran)
			}
			continue
		}
		if h.tr != nil {
			// Correlation-stamped control frames mark their arrival, pairing
			// with the coordinator trace's departure instant (see corr.go).
			traceCorr(h.tr, hostTracePid, hostTraceTidTick, im.msg)
		}
		// Drain frames are the host's own cycle; the node never sees them.
		// Everything else is the node's, on the tick goroutine and in
		// arrival order — which is what lets it restore an Adopt's world
		// before the activating RangeUpdate that follows it on the MC
		// connection.
		switch m := im.msg.(type) {
		case *protocol.DrainReply:
			select {
			case h.drainReply <- m:
			default:
			}
			continue
		case *protocol.DrainRequest:
			h.startDrain(m.Exit)
			continue
		}
		if h.tr != nil {
			h.tracePeerHandle(im.msg)
		}
		envs, handled, err := h.node.Handle(h.handled, im.from, im.msg, h.clockSeconds())
		if a, isAdopt := im.msg.(*protocol.Adopt); isAdopt {
			h.logAdopt(a, handled, err)
		} else if err != nil {
			h.cfg.Logger.Printf("server %v: message %v: %v", h.node.Core.ID(), im.msg.MsgType(), err)
		}
		if h.drainDone && h.node.Core.Active() {
			h.rearmDrain()
		}
		h.routeCore(envs)
		clear(envs)
		h.handled = envs[:0]
	}
	for i := range msgs {
		msgs[i] = ingressMsg{}
	}
	h.ingressSpare = msgs[:0]
}

// acceptLoop admits peer and client connections; the first message
// disambiguates them.
func (h *ServerHost) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return
		}
		if !h.track(conn) {
			return
		}
		h.wg.Add(1)
		go h.serveConn(conn)
	}
}

// serveConn classifies one inbound connection, and forgets it when done.
func (h *ServerHost) serveConn(conn transport.Conn) {
	defer h.wg.Done()
	defer h.forget(conn)
	first, err := conn.Recv()
	if err != nil {
		return
	}
	switch m := first.(type) {
	case *protocol.ClientHello:
		h.serveClient(conn, m)
	case *protocol.SnapshotRequest:
		// Operator dump: stream this node's full state and close.
		blob, err := h.Snapshot()
		if err != nil {
			h.cfg.Logger.Printf("server %v: snapshot: %v", h.node.Core.ID(), err)
		} else if err := sendSnapshot(conn, blob); err != nil {
			h.cfg.Logger.Printf("server %v: snapshot send: %v", h.node.Core.ID(), err)
		}
	case *protocol.Forward, *protocol.StateTransfer:
		h.servePeer(conn, first)
	default:
		h.cfg.Logger.Printf("server %v: unexpected first message %v", h.node.Core.ID(), m.MsgType())
	}
}

// serveClient pumps one game client's connection into node.Enqueue, reusing
// one Request so the steady state does not allocate. The hello is admitted
// before its connection is registered, lest it displace a live session. After
// it the connection speaks for its session only: any frame but a GameUpdate of
// the hello's client is dropped and counted before it can spend a token.
func (h *ServerHost) serveClient(conn transport.Conn, hello *protocol.ClientHello) {
	req := middleware.Request{Source: middleware.SourceClient, Client: hello.Client, Msg: hello, Now: h.clockSeconds()}
	if v := h.node.Admit(&req); !v.Admitted() {
		h.cfg.Logger.Printf("server %v: client %v hello rejected: %v", h.node.Core.ID(), hello.Client, v)
		_ = conn.Send(&protocol.ErrorMsg{Of: protocol.TypeClientHello, Reason: "middleware: " + v.String()})
		return
	}
	if !h.await(func() { h.register(hello, conn) }) {
		return
	}
	for {
		m, err := conn.Recv()
		if err != nil {
			break
		}
		if u, ok := m.(*protocol.GameUpdate); !ok || u.Client != hello.Client {
			h.foreign.Add(1)
			continue
		}
		req.Msg, req.Now = m, h.clockSeconds()
		at := h.tr.Now() // the span opens before the tick can close it
		if !h.node.Enqueue(&req).Admitted() {
			continue // judged and counted; the frame is simply not delivered
		}
		if h.tr != nil {
			h.tracePacketIn(m, at)
		}
		h.wakeTick()
	}
	// The pump enqueues nothing more, so the count read now is past every
	// frame this client sent.
	accepted, _ := h.node.Game.Queued()
	h.enqueueIngress(ingressMsg{fn: func() { h.dropClient(hello.Client, conn, accepted) }})
}

// register makes conn the connection of the hello's client, closing any it
// held before, and queues the admitted hello: on the tick goroutine, ahead of
// the Step that serves it, so the welcome finds its connection.
func (h *ServerHost) register(hello *protocol.ClientHello, conn transport.Conn) {
	if old, ok := h.clients[hello.Client]; ok {
		_ = old.Close()
	}
	h.clients[hello.Client] = conn
	delete(h.evict, hello.Client)
	if err := h.node.Game.Enqueue(hello); err != nil {
		h.cfg.Logger.Printf("server %v: join %v dropped: %v", h.node.Core.ID(), hello.Client, err)
	}
}

// servePeer pumps a peer Matrix server's connection into the ingress funnel;
// on the tick goroutine, node.Handle judges what the core makes of each frame.
func (h *ServerHost) servePeer(conn transport.Conn, m protocol.Message) {
	for {
		from := id.None
		switch pm := m.(type) {
		case *protocol.Forward:
			from = pm.From
		case *protocol.StateTransfer:
			from = pm.From
		}
		h.enqueueIngress(ingressMsg{from: from, msg: m})
		var err error
		if m, err = conn.Recv(); err != nil {
			return
		}
	}
}

// tickLoop drives the tick goroutine's duties on the wall clock: tick, report,
// beat and shipCheckpoint. Everything that writes the MC connection runs here,
// keeping it single-writer.
//
// The game tick is arrival-driven: it runs once a pump has signalled wake and
// minTickGap has passed since the last one (arrivals denser than that, or a
// tick longer than it, coalesce by themselves), and after TickInterval with no
// arrival, so eviction, drain settling and drop logging keep their cadence.
func (h *ServerHost) tickLoop() {
	defer h.wg.Done()
	gap := min(minTickGap, h.cfg.TickInterval)
	next := time.NewTimer(h.cfg.TickInterval)
	report := time.NewTicker(h.cfg.ReportInterval)
	defer next.Stop()
	defer report.Stop()
	var beatC, cpC <-chan time.Time
	if h.cfg.HeartbeatEvery > 0 {
		beat := time.NewTicker(h.cfg.HeartbeatEvery)
		defer beat.Stop()
		beatC = beat.C
	}
	if h.cfg.CheckpointEvery > 0 {
		cp := time.NewTicker(h.cfg.CheckpointEvery)
		defer cp.Stop()
		cpC = cp.C
	}
	for {
		select {
		case <-h.done:
			return
		case <-beatC:
			h.beat()
		case <-cpC:
			h.shipCheckpoint()
		case <-h.wake:
			// A wait that is already over fires the timer at once.
			next.Reset(gap - time.Since(h.last))
		case <-next.C:
			next.Reset(h.cfg.TickInterval)
			h.tick(time.Now())
		case <-report.C:
			h.report()
		}
	}
}

// tick runs one game tick at now. Service capacity is wall time, not ticks:
// the budget accrues ServiceRate per TickInterval up to now, holds one
// TickInterval's worth at most and is spent by what the game server
// processed — the same packets per second at any cadence.
func (h *ServerHost) tick(now time.Time) {
	rate := float64(h.cfg.ServiceRate)
	h.budget = min(h.budget+rate*float64(now.Sub(h.last))/float64(h.cfg.TickInterval), rate)
	h.last = now
	h.ticks.Add(1)
	t0 := h.tr.Now()
	// Coordinator and peer fallout first: split/reclaim state transfers join
	// this tick's egress, whose flush writes them ahead of whatever redirects
	// the game server emits below.
	h.drainIngress()
	t1 := h.tr.Now()
	if n := int(h.budget); n > 0 { // Step reads 0 as "no limit"
		h.budget -= float64(h.node.Step(n, &h.stepped))
		h.logStepErrs("game->matrix")
	}
	if h.node.Game.QueueLen() > 0 {
		h.wakeTick() // what the budget left behind is served as it accrues
	}
	t2 := h.tr.Now()
	h.stepped.Route(h) // empty when nothing was stepped: Route leaves it so
	h.evictDropped()
	// Before the flush, so a client never sees a frame the status does not
	// show yet, and before settleDrain: a finished drain's waiter reads this
	// tick.
	h.publish()
	h.flush()
	h.settleDrain(now)
	h.logDrops()
	if h.tr != nil {
		h.traceTick(t0, t1, t2, h.tr.Now())
	}
}

// report sends the node's load report, batched and flushed like the game
// tick: a one-message batch frames byte-identically to a plain send.
func (h *ServerHost) report() {
	h.node.LoadReport(&h.stepped)
	h.logStepErrs("load report")
	h.stepped.Route(h)
	h.flush()
	h.publish()
}

// beat renews the node's lease, unless PauseHeartbeats holds it back.
func (h *ServerHost) beat() {
	if !h.beatsPaused.Load() {
		h.toMC(h.node.Heartbeat(h.cpTick.Load()))
	}
}

// logStepErrs reports what the node's last step or load report ran into: the
// game server's first processing error, and (as what) every message the Matrix
// server refused — an inactive one legitimately rejects packets in flight
// across a topology change. Tick goroutine, before the Route.
func (h *ServerHost) logStepErrs(what string) {
	if err := h.stepped.GameErr; err != nil {
		h.cfg.Logger.Printf("server %v: process: %v", h.node.Core.ID(), err)
	}
	for _, err := range h.stepped.CoreErrs {
		h.cfg.Logger.Printf("server %v: %s: %v", h.node.Core.ID(), what, err)
	}
}

// ToClient and FromCore are the node.Sink of the live tick: everything the
// node emitted is collected into the tick's egress for the flush behind it.
func (h *ServerHost) ToClient(_ *node.Node, c id.ClientID, m protocol.Message) {
	h.collectClient(c, m)
}

func (h *ServerHost) FromCore(_ *node.Node, envs []core.Envelope) { h.routeCore(envs) }

// routeCore delivers a Matrix server's envelopes. Peer-bound messages are
// collected into the tick's egress (keyed by dial address) for a later flush
// instead of being sent immediately; coordinator deliveries are not deferred.
func (h *ServerHost) routeCore(envs []core.Envelope) {
	for _, e := range envs {
		switch e.Dest {
		case core.DestCoordinator:
			h.toMC(e.Msg)
		case core.DestPeer:
			if h.tr != nil {
				h.tracePeerForward(e.Msg)
			}
			if e.Addr == "" {
				h.cfg.Logger.Printf("server %v: no address for peer (dropping %v)", h.node.Core.ID(), e.Msg.MsgType())
				continue
			}
			h.out.peers[e.Addr] = append(h.out.peers[e.Addr], e.Msg)
		}
	}
}

// collectClient puts one client delivery into the tick's egress for a later
// flush, on the connection the client holds now.
func (h *ServerHost) collectClient(c id.ClientID, m protocol.Message) {
	conn, ok := h.clients[c]
	if !ok {
		return // client disconnected; deliveries are best-effort
	}
	co := h.out.clients[conn]
	if co == nil {
		if n := len(h.out.free); n > 0 {
			co, h.out.free = h.out.free[n-1], h.out.free[:n-1]
		} else {
			co = &clientOut{msgs: make([]protocol.Message, 0, newOutboxCap)}
		}
		co.client = c
		h.out.clients[conn] = co
	}
	co.msgs = append(co.msgs, m)
}

// egress is one tick's outbound traffic, collected per connection by
// routeCore and collectClient and written by flush; entries and their slices are
// reused across ticks. Clients are keyed by connection, not ID: a reconnect
// before the flush must not inherit the old socket's frames. An entry whose
// pump has exited moves to free (see dropClient) for the next connection to
// pick up, so churn neither grows the table nor allocates.
type egress struct {
	peers   map[string][]protocol.Message // by dial address; small, stable set
	clients map[transport.Conn]*clientOut
	free    []*clientOut
}

// clientOut is one client connection's deliveries awaiting the flush.
type clientOut struct {
	client id.ClientID
	msgs   []protocol.Message
}

func newEgress() *egress {
	return &egress{peers: make(map[string][]protocol.Message), clients: make(map[transport.Conn]*clientOut)}
}

// An outbox starts at newOutboxCap slots — a dense crowd's busy tick, so a
// connection's first minute is not spent doubling its way there — and keeps
// at most maxRetainedOutbox between ticks, as transport.maxRetainedBuf does
// for encode buffers: one burst tick must not pin its backing array for ever.
const (
	newOutboxCap      = 32
	maxRetainedOutbox = 1024
)

// recycle empties a flushed outbox for reuse, dropping the message pointers.
func recycle(msgs []protocol.Message) []protocol.Message {
	if cap(msgs) > maxRetainedOutbox {
		return nil
	}
	clear(msgs)
	return msgs[:0]
}

// flush writes the tick's egress, one frame (and one write) per connection,
// the per-message cost amortized across the tick: peers first, then clients.
// That order is what makes a migration safe — the game server emits a client's
// state transfer before its redirect, so the state is on the peer's wire
// before the redirect can make the client rejoin there.
func (h *ServerHost) flush() {
	for addr, msgs := range h.out.peers {
		if len(msgs) > 0 {
			h.sendPeerMsgs(addr, msgs...)
		}
		h.out.peers[addr] = recycle(msgs)
	}
	for conn, co := range h.out.clients {
		if len(co.msgs) == 0 {
			continue
		}
		if h.tr != nil {
			for _, m := range co.msgs {
				// Stamped as the frame is written. A corr-stamped redirect
				// closes the handoff's server leg: the client now sees it.
				h.tracePacketOut(co.client, m)
				traceCorr(h.tr, hostTracePid, hostTraceTidTick, m)
			}
		}
		if err := conn.SendBatch(co.msgs); err != nil {
			// Only close: the client's pump sees it and posts its exit
			// (dropClient) — only the pump knows when the client's last
			// frame is queued.
			_ = conn.Close()
		}
		co.msgs = recycle(co.msgs)
	}
}

// maxDialBacklog bounds the frames queued behind an in-flight peer dial;
// a batch that does not fit is dropped whole and counted (backlogDrops).
const maxDialBacklog = 4096

// sendPeerMsgs sends msgs as one batch to a peer Matrix server. The first
// send to an unconnected address starts a background bounded-timeout dial
// and queues the messages behind it — the tick loop never blocks on a
// dead peer's dial — and sends issued while the dial is in flight join
// the queue, which dialed puts ahead of the tick's batch as it publishes the
// connection, so nothing sent later can overtake the backlog. Tick goroutine.
func (h *ServerHost) sendPeerMsgs(addr string, msgs ...protocol.Message) {
	if conn, ok := h.peers[addr]; ok {
		h.sendPeerConn(addr, conn, msgs)
		return
	}
	pending, inFlight := h.dialing[addr]
	if len(pending)+len(msgs) > maxDialBacklog {
		h.backlogDrops.Add(uint64(len(msgs)))
		return
	}
	// Copied, not aliased: the caller reuses its batch slices.
	h.dialing[addr] = append(pending, msgs...)
	if !inFlight {
		h.wg.Add(1)
		go h.dialPeer(addr)
	}
}

// dialPeer performs the background bounded dial for addr and hands its
// outcome to the tick goroutine (dialed); a host closed meanwhile refuses it.
func (h *ServerHost) dialPeer(addr string) {
	defer h.wg.Done()
	conn, err := h.dialTimeout(addr)
	if err == nil && !h.track(conn) {
		return
	}
	h.await(func() { h.dialed(addr, conn, err) }) // refused only by Close, which closes conn
}

// dialed ends addr's dial: on failure the backlog is dropped and counted
// (backlogDrops), otherwise the connection is published and the backlog leads
// the tick's batch to addr, ahead of anything sent later. Tick goroutine.
func (h *ServerHost) dialed(addr string, conn transport.Conn, err error) {
	pending := h.dialing[addr]
	delete(h.dialing, addr)
	if err != nil {
		h.backlogDrops.Add(uint64(len(pending)))
		h.cfg.Logger.Printf("server %v: dial peer %s: %v (dropped %d queued message(s))", h.node.Core.ID(), addr, err, len(pending))
		return
	}
	h.peers[addr] = conn
	h.out.peers[addr] = append(pending, h.out.peers[addr]...)
}

// dialTimeout dials addr within the configured bound: natively when the
// network supports deadlines, otherwise by racing Dial against a timer (a
// late success is then closed by a reaper goroutine — the dial may
// linger, the caller never does).
func (h *ServerHost) dialTimeout(addr string) (transport.Conn, error) {
	d := h.cfg.PeerDialTimeout
	if td, ok := h.cfg.Network.(transport.TimeoutDialer); ok {
		return td.DialTimeout(addr, d)
	}
	type result struct {
		conn transport.Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		conn, err := h.cfg.Network.Dial(addr)
		ch <- result{conn, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.conn, r.err
	case <-timer.C:
		go func() {
			if r := <-ch; r.conn != nil {
				_ = r.conn.Close()
			}
		}()
		return nil, fmt.Errorf("host: dial peer %s: timeout after %v", addr, d)
	}
}

// sendPeerConn transmits msgs on an established peer connection, salvaging
// encode failures individually and forgetting the connection when it is
// lost.
func (h *ServerHost) sendPeerConn(addr string, conn transport.Conn, msgs []protocol.Message) {
	err := conn.SendBatch(msgs)
	if err != nil && !errors.Is(err, transport.ErrClosed) {
		// Encode failure (an oversized message): the connection is still
		// healthy, and batch encoding is all-or-nothing, so salvage the
		// tick by sending individually — only the offending message is
		// lost, matching the old per-message path's isolation.
		h.cfg.Logger.Printf("server %v: batch to peer %s: %v; retrying individually", h.node.Core.ID(), addr, err)
		for _, m := range msgs {
			if err = conn.Send(m); err != nil {
				if errors.Is(err, transport.ErrClosed) {
					break
				}
				h.cfg.Logger.Printf("server %v: dropping %v to peer %s: %v", h.node.Core.ID(), m.MsgType(), addr, err)
				err = nil
			}
		}
	}
	if errors.Is(err, transport.ErrClosed) {
		h.cfg.Logger.Printf("server %v: peer %s connection lost: %v", h.node.Core.ID(), addr, err)
		delete(h.peers, addr)
		h.forget(conn)
	}
}

// logAdopt reports what the node made of one Adopt frame: a stream dropped
// for outgrowing protocol.MaxBlobSize (counted), a checkpoint that would not
// restore, or — on the last chunk — the adoption itself.
func (h *ServerHost) logAdopt(m *protocol.Adopt, adoption node.Handled, err error) {
	switch {
	case errors.Is(err, protocol.ErrBlobTooLarge):
		h.adoptDrops.Add(1)
		h.cfg.Logger.Printf("server %v: adopt stream for %v's region dropped: %v", h.node.Core.ID(), m.Victim, err)
	case err != nil:
		h.cfg.Logger.Printf("server %v: adopt restore of %v's checkpoint: %v", h.node.Core.ID(), m.Victim, err)
	case adoption.Done && adoption.Bytes == 0:
		h.cfg.Logger.Printf("server %v: cold-adopting %v's region %v (no checkpoint: world starts empty)",
			h.node.Core.ID(), m.Victim, m.Bounds)
	case adoption.Done:
		h.cfg.Logger.Printf("server %v: adopted %v's region %v from checkpoint (%d bytes)",
			h.node.Core.ID(), m.Victim, m.Bounds, adoption.Bytes)
	}
}

// shipCheckpoint streams the node's checkpoint to the MC as SnapshotData
// chunks, when it has one to ship. A state over protocol.MaxBlobSize does not:
// counted, and reported by /readyz. Tick goroutine.
func (h *ServerHost) shipCheckpoint() {
	blob, err := h.node.Checkpoint()
	oversize := errors.Is(err, nodeblob.ErrOversize)
	h.cpTooBig.Store(oversize)
	if err != nil {
		if oversize {
			h.cpOversize.Add(1)
		}
		h.cfg.Logger.Printf("server %v: checkpoint: %v", h.node.Core.ID(), err)
	}
	if blob == nil {
		return // a spare, or a state too big to ship
	}
	for chunk, final := range protocol.Chunks(blob) {
		if !h.toMC(&protocol.SnapshotData{Blob: chunk, Final: final}) {
			return
		}
	}
	h.cpTick.Store(h.ticks.Load())
}

// CheckpointTick reports the game tick at which the last checkpoint
// shipped to the coordinator (0 = none yet). A strictly increasing value
// means fresh checkpoints keep landing.
func (h *ServerHost) CheckpointTick() uint64 { return h.cpTick.Load() }

// PauseHeartbeats stops (or resumes) lease renewal without touching any
// connection: the zombie test hook — a process that is alive and serving
// but looks dead to the coordinator.
func (h *ServerHost) PauseHeartbeats(paused bool) { h.beatsPaused.Store(paused) }

// startDrain reacts to a drain grant from the MC: from now on the end of
// every tick checks whether the evacuation has finished.
func (h *ServerHost) startDrain(exit bool) {
	if h.drainDone {
		h.rearmDrain() // a drained spare ordered to retire: a cycle of its own, so that is signalled too
	}
	h.evacuating = true
	if exit {
		h.drainExit.Store(true)
	}
}

// settleDrain marks the host drained once the node holds no world
// responsibility — deactivated, no avatars left, no peer dials in flight —
// and has for a few tick lengths, so an in-flight state transfer cannot race
// the verdict.
func (h *ServerHost) settleDrain(now time.Time) {
	if !h.evacuating {
		return
	}
	switch {
	case h.node.Core.Active() || h.node.Game.ClientCount() != 0 || len(h.dialing) != 0:
		h.drainSince = time.Time{}
	case h.drainSince.IsZero():
		h.drainSince = now
	case now.Sub(h.drainSince) >= 3*max(2*h.cfg.TickInterval, 10*time.Millisecond):
		h.evacuating, h.drainDone, h.drainSince = false, true, time.Time{}
		close(*h.drained.Load())
		select {
		case h.drainEvent <- h.drainExit.Load():
		default: // nobody reads them: the host is embedded, not a process
		}
		h.cfg.Logger.Printf("server %v: drained (exit=%v)", h.node.Core.ID(), h.drainExit.Load())
	}
}

// rearmDrain opens a drain cycle: at start, and when the MC re-adopts the node.
func (h *ServerHost) rearmDrain() {
	ch := make(chan struct{})
	h.drained.Store(&ch)
	h.drainDone = false
}

// Drain asks the MC to evacuate this server, then blocks until the
// evacuation completes (or timeout). With exit set the server retires for
// good — the caller should Close it once Drain returns — otherwise it
// re-joins the MC's spare pool and keeps serving. The request leaves from the
// tick goroutine (toMC); on a lost coordinator link Drain fails at once.
func (h *ServerHost) Drain(exit bool, timeout time.Duration) error {
	if err := h.onTick(func() error {
		if !h.toMC(&protocol.DrainRequest{Server: h.node.Core.ID(), Exit: exit}) {
			return errors.New("host: drain request: coordinator connection lost")
		}
		return nil
	}); err != nil {
		return err
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case rep := <-h.drainReply:
		if !rep.Granted {
			return fmt.Errorf("host: drain denied: %s", rep.Reason)
		}
	case <-deadline.C:
		return errors.New("host: no drain reply before timeout")
	case <-h.done:
		return ErrClosed
	}
	select {
	case <-h.Drained():
		return nil
	case <-deadline.C:
		return errors.New("host: drain did not complete before timeout")
	case <-h.done:
		return ErrClosed
	}
}

// Drained returns the current drain cycle's channel, closed once a granted
// drain has fully evacuated this node; re-adoption starts a new cycle.
func (h *ServerHost) Drained() <-chan struct{} { return *h.drained.Load() }

// DrainEvents receives once per finished drain cycle, however many the
// process lives through: true when the grant asked it to exit rather than
// re-join the spare pool (Drained is the state, this is the event).
func (h *ServerHost) DrainEvents() <-chan bool { return h.drainEvent }

// dropClient is a client pump's exit: conn is never routed to again, so its
// outbox is retired, emptied. When conn was the client's live connection, the
// client's rate-limit bucket goes too (a reconnect starts fresh) and its
// avatar is evicted once the queue has taken the accepted frames, counted by
// the pump after its last enqueue. Tick goroutine.
func (h *ServerHost) dropClient(c id.ClientID, conn transport.Conn, accepted uint64) {
	if co := h.out.clients[conn]; co != nil {
		delete(h.out.clients, conn)
		co.msgs = recycle(co.msgs)
		h.out.free = append(h.out.free, co)
	}
	if h.clients[c] != conn {
		return
	}
	delete(h.clients, c)
	h.evict[c] = accepted
	if h.node.MW != nil {
		if l := h.node.MW.Limiter(); l != nil {
			l.Forget(c)
		}
	}
}

// evictDropped removes the avatars of clients whose connection dropped
// without a despawn, which would otherwise count as load for ever and block
// every later reclaim. An avatar goes only once the frames its client had
// queued have been processed — a queued despawn still runs as a local
// despawn and reaches the peers — and never when the client has reconnected
// (register cancels the entry); one that already migrated away is a
// no-op. A restore counts the queued frames it discards as taken, so it
// cannot park an entry. Tick goroutine.
func (h *ServerHost) evictDropped() {
	if len(h.evict) == 0 {
		return
	}
	_, taken := h.node.Game.Queued()
	for c, after := range h.evict {
		if taken >= after {
			delete(h.evict, c)
			h.node.Game.Evict(c)
		}
	}
}
