// Package gameserver implements the game-server substrate that Matrix
// assumes: the software that "stores the state of the game world and
// coordinates the activity of the players" (paper §3.2.2).
//
// The substrate is game-agnostic. It
//
//   - tracks connected clients by globally unique ID (the paper's callsign
//     requirement) and non-player map objects;
//   - spatially tags every client packet and hands it to the co-located
//     Matrix server;
//   - delivers events (local and peer-forwarded) to every client whose zone
//     of visibility contains the event, via a spatial hash grid;
//   - runs an explicit receive queue with a bounded per-tick service rate —
//     the queue length is exactly the metric of the paper's Figure 2(b);
//   - reacts to range changes by redirecting displaced clients and
//     transferring their state through Matrix.
//
// Like the Matrix server, it is a synchronous state machine returning
// envelopes; hosts (TCP pumps or the simulator) deliver them. One goroutine
// owns a server and makes every call; the receive queue (queue.go) is the one
// part other goroutines may reach, through Enqueue and QueueLen.
package gameserver

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/protocol"
	"matrix/internal/spatial"
)

// Game server errors.
var (
	ErrQueueOverflow = errors.New("gameserver: receive queue overflow")
	ErrNilMessage    = errors.New("gameserver: nil message")
)

// Dest says where a game-server envelope must be delivered.
type Dest uint8

// Envelope destinations.
const (
	// DestMatrix delivers to the co-located Matrix server.
	DestMatrix Dest = iota + 1
	// DestClient delivers to the client named in Envelope.Client.
	DestClient
)

// Envelope is one outbound message from the game server.
type Envelope struct {
	Dest   Dest
	Client id.ClientID // set when Dest == DestClient
	Msg    protocol.Message
}

// Config tunes a game server.
type Config struct {
	// Server is the co-located Matrix server's identity.
	Server id.ServerID
	// Bounds is the initial map range (empty for spares).
	Bounds geom.Rect
	// Radius is the game's visibility radius, used for interest
	// management when delivering events to clients.
	Radius float64
	// MaxQueue bounds the receive queue; packets beyond it are dropped
	// (and counted), modeling a server crashing under sustained overload
	// the way the paper's static baseline does. Zero means unbounded.
	MaxQueue int
	// TransferChunk is the max objects per StateTransfer message.
	// Zero defaults to 64.
	TransferChunk int
	// ResolveOwner, when set, lets the game server hand off clients whose
	// movement carries them across a partition boundary: it returns the
	// server (and address) owning a point outside our bounds. The
	// co-located Matrix server provides this ("Matrix provides the
	// identity of the appropriate game server"). When nil, wandering
	// clients stay connected until the next range change.
	ResolveOwner func(geom.Point) (id.ServerID, string, bool)
}

// Stats is a snapshot of game-server counters.
type Stats struct {
	Processed      uint64 // packets consumed from the queue
	Dropped        uint64 // packets lost to queue overflow
	Delivered      uint64 // event deliveries to clients
	Redirects      uint64 // clients redirected to other servers
	StateMoved     uint64 // objects sent in state transfers
	StateReceived  uint64 // objects adopted from state transfers
	JoinsAccepted  uint64
	ClientsCurrent int
	QueueLen       int
}

// clientState is the per-client record.
type clientState struct {
	id  id.ClientID
	pos geom.Point
}

// Server is one game server. One goroutine owns it and makes every call but
// two: Enqueue and QueueLen are safe from any goroutine.
type Server struct {
	cfg     Config
	bounds  geom.Rect
	clients map[id.ClientID]*clientState
	grid    *spatial.Grid[id.ClientID]
	objects map[id.ObjectID]protocol.ObjectState
	inbox   queue
	taken   []protocol.Message // Serve's reused batch from the queue
	stats   Stats              // bar the fields Stats derives
	scratch []id.ClientID      // reused query buffer
}

// New creates a game server.
func New(cfg Config) (*Server, error) {
	if !cfg.Server.Valid() {
		return nil, errors.New("gameserver: invalid server id")
	}
	if cfg.Radius < 0 {
		return nil, fmt.Errorf("gameserver: negative radius %v", cfg.Radius)
	}
	if cfg.TransferChunk <= 0 {
		cfg.TransferChunk = 64
	}
	return &Server{
		cfg:     cfg,
		bounds:  cfg.Bounds,
		clients: make(map[id.ClientID]*clientState),
		grid:    spatial.NewGrid[id.ClientID](cfg.Radius),
		objects: make(map[id.ObjectID]protocol.ObjectState),
		inbox:   queue{max: cfg.MaxQueue},
	}, nil
}

// Bounds returns the current map range.
func (s *Server) Bounds() geom.Rect { return s.bounds }

// ClientCount returns the number of connected clients — the paper's load
// metric.
func (s *Server) ClientCount() int { return len(s.clients) }

// QueueLen returns the current receive-queue length — the paper's Figure
// 2(b) metric. Safe from any goroutine.
func (s *Server) QueueLen() int {
	n, _, _, _ := s.inbox.counts()
	return n
}

// Queued returns how many messages the receive queue has accepted and how
// many of those Serve has taken, since the server was made: the message
// accepted as the n-th has been served once taken reaches n. A restore counts
// the messages it discards as taken. Safe from any goroutine.
func (s *Server) Queued() (accepted, taken uint64) {
	_, accepted, taken, _ = s.inbox.counts()
	return accepted, taken
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	st := s.stats
	st.ClientsCurrent = len(s.clients)
	st.QueueLen, _, _, st.Dropped = s.inbox.counts()
	return st
}

// ClientPos returns a connected client's position.
func (s *Server) ClientPos(c id.ClientID) (geom.Point, bool) {
	cs, ok := s.clients[c]
	if !ok {
		return geom.Point{}, false
	}
	return cs.pos, true
}

// ObjectCount returns the number of non-player objects held.
func (s *Server) ObjectCount() int { return len(s.objects) }

// AddObject installs a non-player map object (trees, buildings, NPC state).
func (s *Server) AddObject(o protocol.ObjectState) { s.objects[o.Object] = o }

// Evict removes a client record without emitting any traffic — the
// server-side idle reaper. Unlike a despawn update it is not forwarded
// anywhere, so evicting a stale duplicate can never affect the client's
// live avatar on another server. Reports whether the client was present.
func (s *Server) Evict(c id.ClientID) bool {
	if _, ok := s.clients[c]; !ok {
		return false
	}
	delete(s.clients, c)
	s.grid.Remove(c)
	return true
}

// ClientIDs returns the connected clients' IDs, sorted.
func (s *Server) ClientIDs() []id.ClientID {
	out := make([]id.ClientID, 0, len(s.clients))
	for c := range s.clients {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// ClientSnap is one connected client inside a State snapshot.
type ClientSnap struct {
	Client id.ClientID
	Pos    geom.Point
}

// State is a game server's serializable snapshot: bounds, the authoritative
// client and object records, the pending receive queue (encoded wire
// frames, in arrival order) and the traffic counters. Clients and objects
// are sorted by ID so encoding the same server twice is byte-identical.
type State struct {
	Bounds  geom.Rect
	Clients []ClientSnap
	Objects []protocol.ObjectState
	Inbox   [][]byte
	Stats   Stats
}

// CaptureState snapshots the server.
func (s *Server) CaptureState() (*State, error) {
	st := &State{Bounds: s.bounds, Stats: s.Stats()}
	st.Stats.ClientsCurrent, st.Stats.QueueLen = 0, 0 // derived fields stay out of the snapshot
	for c, cs := range s.clients {
		st.Clients = append(st.Clients, ClientSnap{Client: c, Pos: cs.pos})
	}
	sort.Slice(st.Clients, func(i, j int) bool { return st.Clients[i].Client < st.Clients[j].Client })
	for _, o := range s.objects {
		o.Payload = append([]byte(nil), o.Payload...)
		st.Objects = append(st.Objects, o)
	}
	sort.Slice(st.Objects, func(i, j int) bool { return st.Objects[i].Object < st.Objects[j].Object })
	for _, m := range s.inbox.pending() {
		frame, err := protocol.Marshal(m)
		if err != nil {
			return nil, fmt.Errorf("gameserver: encode queued %v: %w", m.MsgType(), err)
		}
		st.Inbox = append(st.Inbox, frame)
	}
	return st, nil
}

// RestoreState overwrites the server's mutable state from a snapshot,
// keeping its config (including the ResolveOwner binding). The snapshot is
// not retained — restoring the same state twice is safe.
func (s *Server) RestoreState(st *State) error {
	inbox := make([]protocol.Message, 0, len(st.Inbox))
	for _, frame := range st.Inbox {
		m, err := protocol.Unmarshal(frame)
		if err != nil {
			return fmt.Errorf("gameserver: decode queued frame: %w", err)
		}
		inbox = append(inbox, m)
	}
	s.bounds = st.Bounds
	s.clients = make(map[id.ClientID]*clientState, len(st.Clients))
	s.grid = spatial.NewGrid[id.ClientID](s.cfg.Radius)
	for _, cs := range st.Clients {
		s.clients[cs.Client] = &clientState{id: cs.Client, pos: cs.Pos}
		s.grid.Insert(cs.Client, cs.Pos)
	}
	s.objects = make(map[id.ObjectID]protocol.ObjectState, len(st.Objects))
	for _, o := range st.Objects {
		o.Payload = append([]byte(nil), o.Payload...)
		s.objects[o.Object] = o
	}
	s.inbox.reset(inbox, st.Stats.Dropped)
	s.stats = st.Stats // Stats derives ClientsCurrent, QueueLen and Dropped
	return nil
}

// Enqueue places an inbound message on the receive queue. It returns
// ErrQueueOverflow when the bounded queue is full (the packet is dropped
// and counted). Safe from any goroutine.
func (s *Server) Enqueue(m protocol.Message) error {
	if m == nil {
		return ErrNilMessage
	}
	return s.inbox.add(m)
}

// Process consumes up to budget queued messages (all of them when budget
// <= 0) and returns the resulting envelopes in a fresh slice. Hot loops
// that tick every few milliseconds should use Serve with a reused
// buffer instead.
func (s *Server) Process(budget int) ([]Envelope, error) {
	return s.ProcessAppend(nil, budget)
}

// ProcessAppend is Serve without the count.
func (s *Server) ProcessAppend(dst []Envelope, budget int) ([]Envelope, error) {
	dst, _, err := s.Serve(dst, budget)
	return dst, err
}

// Serve consumes up to budget queued messages (all of them when budget <= 0),
// appends the resulting envelopes to dst and returns them with how many
// messages it consumed. The budget models the server's finite service rate:
// under overload the queue grows, which is what the paper's Figure 2(b)
// plots. Passing the same buffer back every tick, after fully consuming it,
// makes the envelope path allocation-free in steady state. The messages are
// taken from the queue at once and processed outside its lock, so what is
// enqueued meanwhile waits for the next Serve.
func (s *Server) Serve(dst []Envelope, budget int) ([]Envelope, int, error) {
	s.taken = s.inbox.take(s.taken, budget)
	var firstErr error
	for _, m := range s.taken {
		var err error
		dst, err = s.handle(dst, m)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		s.stats.Processed++
	}
	n := len(s.taken)
	clear(s.taken)
	s.taken = s.taken[:0]
	return dst, n, firstErr
}

// LoadReport builds the periodic load report for the Matrix server.
func (s *Server) LoadReport() *protocol.LoadReport {
	return &protocol.LoadReport{
		Server:   s.cfg.Server,
		Clients:  int32(len(s.clients)),
		QueueLen: int32(s.QueueLen()),
	}
}

// handle dispatches one queued message, appending envelopes to dst.
func (s *Server) handle(dst []Envelope, m protocol.Message) ([]Envelope, error) {
	switch msg := m.(type) {
	case *protocol.ClientHello:
		return s.handleHello(dst, msg)
	case *protocol.GameUpdate:
		return s.handleUpdate(dst, msg)
	case *protocol.RangeUpdate:
		return s.handleRange(dst, msg)
	case *protocol.StateTransfer:
		return s.handleState(dst, msg)
	default:
		return dst, fmt.Errorf("gameserver: unexpected message %v", m.MsgType())
	}
}

// handleHello admits a client (or re-admits one migrating in).
func (s *Server) handleHello(dst []Envelope, h *protocol.ClientHello) ([]Envelope, error) {
	cs, ok := s.clients[h.Client]
	if !ok {
		cs = &clientState{id: h.Client}
		s.clients[h.Client] = cs
		s.stats.JoinsAccepted++
	}
	cs.pos = h.Pos
	s.grid.Insert(h.Client, h.Pos)
	return append(dst, Envelope{Dest: DestClient, Client: h.Client, Msg: &protocol.ClientWelcome{
		Server: s.cfg.Server,
		Bounds: s.bounds,
	}}), nil
}

// handleUpdate processes one game packet. Packets from local clients
// are applied, delivered to visible local clients, and forwarded to Matrix;
// packets forwarded in from peers are delivered to visible local clients
// only.
func (s *Server) handleUpdate(dst []Envelope, u *protocol.GameUpdate) ([]Envelope, error) {
	cs, local := s.clients[u.Client]
	if local {
		// The game server owns the authoritative position: apply movement
		// and spatially tag the packet from its own records.
		if u.Kind == protocol.KindMove {
			cs.pos = u.Dest
			s.grid.Insert(u.Client, u.Dest)
		}
		if u.Kind == protocol.KindDespawn {
			delete(s.clients, u.Client)
			s.grid.Remove(u.Client)
		}
		// Forward to Matrix for routing to peer servers.
		dst = append(dst, Envelope{Dest: DestMatrix, Msg: u})
		// Boundary crossing: a move that lands outside our range hands
		// the client off to the partition's owner.
		if u.Kind == protocol.KindMove && !s.bounds.Contains(cs.pos) && s.cfg.ResolveOwner != nil {
			if target, addr, ok := s.cfg.ResolveOwner(cs.pos); ok && target != s.cfg.Server {
				dst = s.migrateClient(dst, cs, target, addr)
			}
		}
	}
	// Local consistency: every client whose visibility circle contains the
	// event sees it, including the actor (its echo is the response-latency
	// signal the evaluation measures).
	// The grid returns the union of the two discs once each, in ascending
	// ClientID order, so fan-out order is deterministic for a fixed seed
	// without a per-packet sort.
	s.scratch = s.grid.QueryDiscs(u.Origin, u.Dest, s.cfg.Radius, s.scratch[:0])
	for _, c := range s.scratch {
		dst = append(dst, Envelope{Dest: DestClient, Client: c, Msg: u})
	}
	s.stats.Delivered += uint64(len(s.scratch))
	return dst, nil
}

// migrateClient hands one client to target: state first, then the
// redirect, mirroring the bulk path taken on range changes.
func (s *Server) migrateClient(dst []Envelope, cs *clientState, target id.ServerID, addr string) []Envelope {
	dst = append(dst,
		Envelope{Dest: DestMatrix, Msg: &protocol.StateTransfer{
			From:    s.cfg.Server,
			To:      target,
			Objects: []protocol.ObjectState{{Client: cs.id, Pos: cs.pos}},
			Final:   true,
		}},
		Envelope{Dest: DestClient, Client: cs.id, Msg: &protocol.Redirect{
			Client:   cs.id,
			NewOwner: target,
			NewAddr:  addr,
		}},
	)
	s.stats.StateMoved++
	s.stats.Redirects++
	delete(s.clients, cs.id)
	s.grid.Remove(cs.id)
	return dst
}

// handleRange applies a new map range: displaced clients are
// redirected to the handoff targets and their state is transferred through
// Matrix in chunks.
func (s *Server) handleRange(dst []Envelope, r *protocol.RangeUpdate) ([]Envelope, error) {
	s.bounds = r.Bounds

	// Find clients now outside our range.
	// The grid answers in ascending ClientID order; per-target grouping,
	// chunking and redirects all inherit it.
	s.scratch = s.grid.QueryOutsideRect(r.Bounds, s.scratch[:0])
	if len(s.scratch) == 0 {
		return dst, nil
	}

	// Group them by handoff target.
	perTarget := make(map[id.ServerID][]protocol.ObjectState)
	addrOf := make(map[id.ServerID]string, len(r.Handoff))
	for _, c := range s.scratch {
		cs, ok := s.clients[c]
		if !ok {
			continue
		}
		target, addr := resolveHandoff(r.Handoff, cs.pos)
		if !target.Valid() {
			// No target covers this client (shouldn't happen when the MC
			// is consistent); keep it rather than strand it.
			continue
		}
		perTarget[target] = append(perTarget[target], protocol.ObjectState{Client: cs.id, Pos: cs.pos})
		addrOf[target] = addr
	}
	for _, target := range slices.Sorted(maps.Keys(perTarget)) {
		// State first, then redirects: the receiving game server adopts
		// the avatars before the clients reconnect.
		dst = s.appendTransfers(dst, target, perTarget[target], true)
		for _, o := range perTarget[target] {
			// Range-change redirects inherit the decision's correlation ID
			// so one split/reclaim can be followed coordinator→server→client.
			dst = append(dst, Envelope{Dest: DestClient, Client: o.Client, Msg: &protocol.Redirect{
				Client:   o.Client,
				NewOwner: target,
				NewAddr:  addrOf[target],
				Corr:     r.Corr,
			}})
			s.stats.Redirects++
			delete(s.clients, o.Client)
			s.grid.Remove(o.Client)
		}
	}

	// Map objects outside the range migrate too.
	clear(perTarget)
	for oid, o := range s.objects {
		if r.Bounds.Contains(o.Pos) {
			continue
		}
		target, _ := resolveHandoff(r.Handoff, o.Pos)
		if !target.Valid() {
			continue
		}
		perTarget[target] = append(perTarget[target], o)
		delete(s.objects, oid)
	}
	for _, target := range slices.Sorted(maps.Keys(perTarget)) {
		objs := perTarget[target]
		slices.SortFunc(objs, func(a, b protocol.ObjectState) int { return cmp.Compare(a.Object, b.Object) })
		dst = s.appendTransfers(dst, target, objs, false)
	}
	return dst, nil
}

// appendTransfers cuts the state displaced to one handoff target into
// TransferChunk-sized StateTransfers, the last one marked Final. closeEmpty
// keeps the avatars' wire habit: a last chunk that fills up exactly does not
// carry the flag itself, an empty Final transfer follows it.
func (s *Server) appendTransfers(dst []Envelope, target id.ServerID, objs []protocol.ObjectState, closeEmpty bool) []Envelope {
	limit := len(objs)
	if closeEmpty {
		limit++
	}
	for start := 0; start < limit; start += s.cfg.TransferChunk {
		dst = append(dst, Envelope{Dest: DestMatrix, Msg: &protocol.StateTransfer{
			From:    s.cfg.Server,
			To:      target,
			Objects: objs[start:min(start+s.cfg.TransferChunk, len(objs))],
			Final:   start+s.cfg.TransferChunk >= limit,
		}})
	}
	s.stats.StateMoved += uint64(len(objs))
	return dst
}

// resolveHandoff finds the handoff target whose bounds contain p.
func resolveHandoff(handoff []protocol.HandoffTarget, p geom.Point) (id.ServerID, string) {
	for _, h := range handoff {
		if h.Bounds.Contains(p) {
			return h.Server, h.Addr
		}
	}
	return id.None, ""
}

// handleState adopts migrating state from another game server.
func (s *Server) handleState(dst []Envelope, st *protocol.StateTransfer) ([]Envelope, error) {
	for _, o := range st.Objects {
		if o.Client != 0 {
			cs, ok := s.clients[o.Client]
			if !ok {
				cs = &clientState{id: o.Client}
				s.clients[o.Client] = cs
			}
			cs.pos = o.Pos
			s.grid.Insert(o.Client, o.Pos)
		} else {
			s.objects[o.Object] = o
		}
		s.stats.StateReceived++
	}
	return dst, nil
}
