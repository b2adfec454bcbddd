// Package core implements the Matrix server, "the heart of our distributed
// middleware" (paper §3.2.3). A Matrix server
//
//   - receives spatially-tagged game packets from its co-located game server
//     and routes them to the peer Matrix servers in the packet's consistency
//     set via an O(1) overlap-table lookup;
//   - verifies the range of packets forwarded by peers before handing them
//     to its own game server;
//   - watches its game server's load and makes purely local split decisions
//     when overloaded, and reclaim decisions for its underloaded children;
//   - consults the Matrix Coordinator only for topology changes and rare
//     non-proximal interactions.
//
// The server is a synchronous state machine: handlers return envelopes (the
// messages to deliver) instead of doing I/O, so production transports and
// the deterministic simulation harness drive identical code. One goroutine
// owns a server and makes every call, so it takes no lock: the simulator's
// stepping goroutine, or a live host's tick goroutine.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"matrix/internal/clock"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/load"
	"matrix/internal/overlap"
	"matrix/internal/policy"
	"matrix/internal/protocol"
)

// Core server errors.
var (
	ErrInactive   = errors.New("core: server owns no partition")
	ErrNoTable    = errors.New("core: no overlap table installed")
	ErrBadPeer    = errors.New("core: unknown peer server")
	ErrNoPending  = errors.New("core: non-proximal reply without pending packet")
	ErrNilMessage = errors.New("core: nil message")
)

// Dest says where an envelope must be delivered.
type Dest uint8

// Envelope destinations.
const (
	// DestCoordinator delivers to the MC.
	DestCoordinator Dest = iota + 1
	// DestGameServer delivers to the co-located game server.
	DestGameServer
	// DestPeer delivers to the peer Matrix server named by Envelope.Peer.
	DestPeer
)

// String implements fmt.Stringer.
func (d Dest) String() string {
	switch d {
	case DestCoordinator:
		return "coordinator"
	case DestGameServer:
		return "game-server"
	case DestPeer:
		return "peer"
	default:
		return fmt.Sprintf("dest(%d)", uint8(d))
	}
}

// Envelope is one message a handler wants delivered.
type Envelope struct {
	Dest Dest
	Peer id.ServerID // set when Dest == DestPeer
	Addr string      // dialable address of Peer, when known
	Msg  protocol.Message
}

// peerInfo is what a Matrix server knows about a peer: where to dial it and
// which part of the world it currently owns.
type peerInfo struct {
	addr   string
	bounds geom.Rect
}

// Config tunes a Matrix server.
type Config struct {
	// Load is the split/reclaim thresholds (zero value = paper defaults).
	Load load.Config
	// Policy decides when this server splits and reclaims (nil = the
	// default paper policy). The instance must be exclusive to this
	// server — stateful policies snapshot per server.
	Policy policy.Policy
	// Clock drives the policy timers (nil = wall clock).
	Clock clock.Clock
	// KindRadius optionally overrides the visibility radius per update
	// kind — the paper's "different visibility radii for exceptions". A
	// kind without an entry uses the game's default radius.
	KindRadius map[protocol.UpdateKind]float64
}

// Stats is a snapshot of a server's traffic counters, used by the
// evaluation harness.
type Stats struct {
	GamePacketsIn    uint64 // packets received from the local game server
	PeerPacketsIn    uint64 // forwards received from peers
	PeerPacketsOut   uint64 // forwards sent to peers
	PeerBytesOut     uint64 // encoded bytes of forwards sent to peers
	DeliveredToGame  uint64 // peer packets handed to the local game server
	RangeRejected    uint64 // peer packets dropped by range verification
	NonProximalSent  uint64 // MC consistency-set queries
	SplitsRequested  uint64
	SplitsGranted    uint64
	ReclaimRequested uint64
	ReclaimGranted   uint64
}

// Server is one Matrix server. One goroutine owns it (see the package doc).
type Server struct {
	cfg    Config
	id     id.ServerID
	world  geom.Rect
	bounds geom.Rect
	active bool
	radius float64 // game default visibility radius
	tables map[float64]*overlap.Table
	peers  map[id.ServerID]peerInfo
	// peerOrder mirrors peers' keys, sorted: ResolveOwner runs per
	// boundary-crossing move and must scan peers in a deterministic order
	// without re-sorting on every call.
	peerOrder    []id.ServerID
	peersVersion uint64
	parent       id.ServerID
	child        map[id.ServerID]bool
	// childOrder records adoption order. Reclaims try children newest
	// first: splits always halve the parent's current rectangle, so only
	// the most recent unreclaimed child is guaranteed to merge back
	// cleanly (last-split-first order).
	childOrder []id.ServerID
	tracker    *load.Tracker

	pendingSplit   bool
	pendingReclaim id.ServerID // child being reclaimed, id.None when idle
	// reclaimDeniedUntil backs off children whose reclaim the MC denied
	// (not yet mergeable, or they have children of their own).
	reclaimDeniedUntil map[id.ServerID]time.Time
	pendingNonProx     []*protocol.GameUpdate
	union              overlap.Set   // AppendGameUpdate's scratch for a move's two lookups
	fwds               protocol.Slab // forward's shared Forwards: scratch, not state

	stats Stats
}

// NewServer creates a Matrix server from its registration reply.
func NewServer(cfg Config, reply *protocol.RegisterReply, radius float64) (*Server, error) {
	if reply == nil {
		return nil, errors.New("core: nil registration reply")
	}
	if !reply.Server.Valid() {
		return nil, errors.New("core: invalid server id in registration")
	}
	if radius < 0 {
		return nil, fmt.Errorf("core: negative radius %v", radius)
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	tracker, err := load.NewTracker(cfg.Load, cfg.Clock, cfg.Policy)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:                cfg,
		id:                 reply.Server,
		world:              reply.World,
		bounds:             reply.Bounds,
		active:             !reply.Bounds.Empty(),
		radius:             radius,
		tables:             make(map[float64]*overlap.Table),
		peers:              make(map[id.ServerID]peerInfo),
		child:              make(map[id.ServerID]bool),
		tracker:            tracker,
		reclaimDeniedUntil: make(map[id.ServerID]time.Time),
	}, nil
}

// ID returns the server's identity.
func (s *Server) ID() id.ServerID { return s.id }

// Bounds returns the currently owned partition (empty when spare).
func (s *Server) Bounds() geom.Rect { return s.bounds }

// Active reports whether the server currently owns a partition.
func (s *Server) Active() bool { return s.active }

// Parent returns the split-tree parent (id.None for root or spares).
func (s *Server) Parent() id.ServerID { return s.parent }

// Stats returns a copy of the traffic counters.
func (s *Server) Stats() Stats { return s.stats }

// Tracker exposes the load tracker, for the server's owner (the simulator's
// recorder reads it between steps).
func (s *Server) Tracker() *load.Tracker { return s.tracker }

// HandleMessage is AppendMessage into a fresh slice.
func (s *Server) HandleMessage(from id.ServerID, m protocol.Message) ([]Envelope, error) {
	return s.AppendMessage(nil, from, m)
}

// AppendMessage dispatches any message arriving at this Matrix server,
// appending the envelopes to deliver to dst; on error it appends nothing.
//
// The from argument identifies peer Matrix servers for Forward and
// StateTransfer messages; messages from the MC or the local game server
// pass id.None.
func (s *Server) AppendMessage(dst []Envelope, from id.ServerID, m protocol.Message) ([]Envelope, error) {
	var envs []Envelope
	var err error
	switch msg := m.(type) {
	case nil:
		return dst, ErrNilMessage
	case *protocol.GameUpdate:
		return s.AppendGameUpdate(dst, msg)
	case *protocol.Forward:
		return s.appendPeerForward(dst, msg)
	case *protocol.LoadReport:
		if msg.Server == s.id || !msg.Server.Valid() {
			envs, err = s.HandleLocalLoad(int(msg.Clients), int(msg.QueueLen))
		} else {
			envs, err = s.handleChildLoad(msg)
		}
	case *protocol.OverlapTable:
		err = s.handleOverlapTable(msg)
	case *protocol.SplitReply:
		envs, err = s.handleSplitReply(msg)
	case *protocol.ReclaimReply:
		envs, err = s.handleReclaimReply(msg)
	case *protocol.RangeUpdate:
		envs, err = s.handleRangeUpdate(msg)
	case *protocol.StateTransfer:
		envs, err = s.handleStateTransfer(from, msg)
	case *protocol.NonProximalReply:
		envs, err = s.handleNonProximalReply(msg)
	default:
		err = fmt.Errorf("core: unexpected message %v", m.MsgType())
	}
	return append(dst, envs...), err
}

// AppendGameUpdate routes one spatially-tagged packet from the local game
// server to every peer in its consistency set, appending the envelopes to
// dst. This is the latency-critical fast path: a table lookup and one
// Forward per peer, no MC involvement unless the destination is
// non-proximal. A caller that fully consumes the returned slice before the
// next call can pass the same buffer back (`buf = AppendGameUpdate(buf[:0],
// u)`) and forward without allocating in steady state, bar one chunk of
// Forwards per 32 packets; a move's origin and dest lookups merge into a
// scratch set.
func (s *Server) AppendGameUpdate(dst []Envelope, u *protocol.GameUpdate) ([]Envelope, error) {
	if !s.active {
		return dst, ErrInactive
	}
	s.stats.GamePacketsIn++

	radius := s.radiusFor(u.Kind)
	tab, ok := s.tables[radius]
	if !ok {
		return dst, fmt.Errorf("%w: radius %v", ErrNoTable, radius)
	}

	// Non-proximal destination: the table only covers our own partition,
	// so a far-away Dest needs the MC's global view (paper §3.2.4).
	if u.Dest != u.Origin && !s.bounds.Contains(u.Dest) && !tabCovers(tab, u.Dest, radius) {
		s.pendingNonProx = append(s.pendingNonProx, u)
		s.stats.NonProximalSent++
		return append(dst, Envelope{Dest: DestCoordinator, Msg: &protocol.NonProximalQuery{
			Server: s.id,
			Point:  u.Dest,
			Radius: radius,
		}}), nil
	}

	peers := tab.Lookup(u.Origin)
	if u.Dest != u.Origin {
		s.union = peers.AppendUnion(s.union[:0], tab.Lookup(u.Dest))
		peers = s.union
	}
	return s.forward(dst, u, peers)
}

// tabCovers reports whether p is close enough to our partition that the
// local table's conservative expansion already accounts for it.
func tabCovers(tab *overlap.Table, p geom.Point, radius float64) bool {
	return tab.Bounds().Expand(radius).ContainsClosed(p)
}

// forward appends Forward envelopes for every peer in set to dst.
// One Forward message, carved from the server's slab, is shared by every
// envelope (receivers never mutate it), so the fan-out costs one slot
// however wide the consistency set is.
func (s *Server) forward(dst []Envelope, u *protocol.GameUpdate, peers overlap.Set) ([]Envelope, error) {
	if len(peers) == 0 {
		return dst, nil
	}
	fwd := s.fwds.Forward()
	*fwd = protocol.Forward{From: s.id, Update: *u}
	size, err := protocol.Size(fwd)
	if err != nil {
		return dst, err
	}
	for _, p := range peers {
		dst = append(dst, Envelope{Dest: DestPeer, Peer: p, Addr: s.peers[p].addr, Msg: fwd})
		s.stats.PeerPacketsOut++
		s.stats.PeerBytesOut += uint64(size)
	}
	return dst, nil
}

// appendPeerForward verifies a peer-forwarded packet's range and, when
// valid, hands it to the local game server ("which then forward the packet,
// after verifying the packet's range, to their own game servers") — the
// Forward's own Update, not a copy: a decoded message is read-only.
func (s *Server) appendPeerForward(dst []Envelope, f *protocol.Forward) ([]Envelope, error) {
	if !s.active {
		return dst, ErrInactive
	}
	s.stats.PeerPacketsIn++
	radius := s.radiusFor(f.Update.Kind)
	reach := s.bounds.Expand(radius)
	if !reach.ContainsClosed(f.Update.Origin) && !reach.ContainsClosed(f.Update.Dest) {
		s.stats.RangeRejected++
		return dst, nil
	}
	s.stats.DeliveredToGame++
	return append(dst, Envelope{Dest: DestGameServer, Msg: &f.Update}), nil
}

// HandleLocalLoad ingests the local game server's load report and applies
// the split/reclaim policy. Splits are purely local decisions: the server
// asks the MC for a spare the moment its own tracker says so.
func (s *Server) HandleLocalLoad(clients, queueLen int) ([]Envelope, error) {
	s.tracker.SetLoad(clients, queueLen)
	if !s.active {
		return nil, nil
	}
	var out []Envelope
	// Report load to the MC (it relays child loads to parents).
	out = append(out, Envelope{Dest: DestCoordinator, Msg: &protocol.LoadReport{
		Server:   s.id,
		Clients:  int32(clients),
		QueueLen: int32(queueLen),
	}})
	if !s.pendingSplit && s.tracker.ShouldSplit() {
		s.pendingSplit = true
		s.stats.SplitsRequested++
		out = append(out, Envelope{Dest: DestCoordinator, Msg: &protocol.SplitRequest{
			Server:  s.id,
			Clients: int32(clients),
		}})
	}
	if s.pendingReclaim == id.None {
		// Try children newest-first: only the most recently split-off
		// piece is guaranteed to merge back into our current rectangle.
		now := s.cfg.Clock.Now()
		for i := len(s.childOrder) - 1; i >= 0; i-- {
			child := s.childOrder[i]
			if until, denied := s.reclaimDeniedUntil[child]; denied && now.Before(until) {
				continue
			}
			if s.tracker.ReclaimCandidate(child) {
				s.pendingReclaim = child
				s.stats.ReclaimRequested++
				out = append(out, Envelope{Dest: DestCoordinator, Msg: &protocol.ReclaimRequest{
					Parent: s.id,
					Child:  child,
				}})
				break
			}
		}
	}
	return out, nil
}

// handleChildLoad ingests a child's load report relayed by the MC.
func (s *Server) handleChildLoad(rep *protocol.LoadReport) ([]Envelope, error) {
	if !s.child[rep.Server] {
		// A report for a server we no longer parent; ignore.
		return nil, nil
	}
	s.tracker.SetChildLoad(rep.Server, int(rep.Clients), int(rep.QueueLen))
	return nil, nil
}

// handleOverlapTable installs a freshly pushed routing table.
func (s *Server) handleOverlapTable(msg *protocol.OverlapTable) error {
	if msg.Server != s.id {
		return fmt.Errorf("core: table for %v delivered to %v", msg.Server, s.id)
	}
	// Ignore stale pushes (the MC may race a split with a reclaim).
	if old, ok := s.tables[msg.Radius]; ok && old.Version() > msg.Version {
		return nil
	}
	tab, err := overlap.NewTableFromRegions(s.id, msg.Bounds, msg.Version, protocol.RegionsFromWire(msg.Regions))
	if err != nil {
		return fmt.Errorf("core: install table: %w", err)
	}
	s.tables[msg.Radius] = tab
	s.bounds = msg.Bounds
	s.active = true
	// A strictly newer topology version invalidates everything we knew
	// about peers (stale bounds would misroute client handoffs); same-
	// version pushes (per-radius tables of one topology) merge.
	if msg.Version > s.peersVersion {
		s.peers = make(map[id.ServerID]peerInfo, len(msg.Peers))
		s.peerOrder = s.peerOrder[:0]
		s.peersVersion = msg.Version
	}
	for _, p := range msg.Peers {
		s.setPeer(p.Server, peerInfo{addr: p.Addr, bounds: p.Bounds})
	}
	return nil
}

// setPeer records/updates a peer, keeping peerOrder sorted.
func (s *Server) setPeer(sid id.ServerID, info peerInfo) {
	if _, ok := s.peers[sid]; !ok {
		i := sort.Search(len(s.peerOrder), func(i int) bool { return s.peerOrder[i] >= sid })
		s.peerOrder = append(s.peerOrder, 0)
		copy(s.peerOrder[i+1:], s.peerOrder[i:])
		s.peerOrder[i] = sid
	}
	s.peers[sid] = info
}

// handleSplitReply finishes a split: adopt the kept bounds, remember the
// child, and tell the game server to shrink its range (which triggers the
// client redirects and state transfer).
func (s *Server) handleSplitReply(r *protocol.SplitReply) ([]Envelope, error) {
	s.pendingSplit = false
	if !r.Granted {
		return nil, nil
	}
	s.stats.SplitsGranted++
	s.tracker.NoteSplit()
	s.bounds = r.Keep
	if !s.child[r.Child] {
		s.childOrder = append(s.childOrder, r.Child)
	}
	s.child[r.Child] = true
	s.setPeer(r.Child, peerInfo{addr: r.ChildAddr, bounds: r.Give})
	return []Envelope{{Dest: DestGameServer, Msg: &protocol.RangeUpdate{
		Server: s.id,
		Bounds: r.Keep,
		Handoff: []protocol.HandoffTarget{{
			Server: r.Child,
			Addr:   r.ChildAddr,
			Bounds: r.Give,
		}},
		// The split decision's correlation ID follows the range change to
		// the game server, which stamps it on the redirects it causes.
		Corr: r.Corr,
	}}}, nil
}

// handleReclaimReply finishes a reclamation: adopt the merged bounds and
// widen the game server's range. The reclaimed child's clients are
// transferred by the child's own game server reacting to its empty range.
func (s *Server) handleReclaimReply(r *protocol.ReclaimReply) ([]Envelope, error) {
	child := s.pendingReclaim
	s.pendingReclaim = id.None
	if !r.Granted {
		// Back the denied child off for one dwell period so other
		// children get a turn on the next load report.
		if child.Valid() {
			s.reclaimDeniedUntil[child] = s.cfg.Clock.Now().Add(s.tracker.Config().ReclaimDwell)
		}
		return nil, nil
	}
	s.stats.ReclaimGranted++
	if child.Valid() {
		delete(s.child, child)
		delete(s.reclaimDeniedUntil, child)
		for i, c := range s.childOrder {
			if c == child {
				s.childOrder = append(s.childOrder[:i], s.childOrder[i+1:]...)
				break
			}
		}
		s.tracker.ForgetChild(child)
		s.tracker.NoteReclaim(child)
	}
	s.bounds = r.Merged
	return []Envelope{{Dest: DestGameServer, Msg: &protocol.RangeUpdate{
		Server: s.id,
		Bounds: r.Merged,
	}}}, nil
}

// handleRangeUpdate applies an MC-pushed range change: activation of a
// spare (split gave it a partition) or deactivation (it was reclaimed).
func (s *Server) handleRangeUpdate(r *protocol.RangeUpdate) ([]Envelope, error) {
	if r.Server != s.id {
		return nil, fmt.Errorf("core: range update for %v delivered to %v", r.Server, s.id)
	}
	s.bounds = r.Bounds
	wasActive := s.active
	s.active = !r.Bounds.Empty()
	// Handoff targets are peers we are about to ship state to.
	for _, h := range r.Handoff {
		s.setPeer(h.Server, peerInfo{addr: h.Addr, bounds: h.Bounds})
	}
	if !s.active && wasActive {
		// Deactivated: clear topology state; we are a spare again.
		s.child = make(map[id.ServerID]bool)
		s.childOrder = nil
		s.parent = id.None
		s.tables = make(map[float64]*overlap.Table)
		s.pendingSplit = false
		s.pendingReclaim = id.None
		s.reclaimDeniedUntil = make(map[id.ServerID]time.Time)
	}
	// The co-located game server always mirrors our range (handoff targets
	// and the decision's correlation ID included, so it can redirect
	// displaced clients and stamp those redirects).
	return []Envelope{{Dest: DestGameServer, Msg: &protocol.RangeUpdate{
		Server:  s.id,
		Bounds:  r.Bounds,
		Handoff: r.Handoff,
		Corr:    r.Corr,
	}}}, nil
}

// handleStateTransfer routes migrating game state: outbound chunks from the
// local game server go to the destination's Matrix server; inbound chunks
// are delivered to the local game server.
func (s *Server) handleStateTransfer(from id.ServerID, st *protocol.StateTransfer) ([]Envelope, error) {
	if st.To == s.id {
		return []Envelope{{Dest: DestGameServer, Msg: st}}, nil
	}
	// Outbound: must come from the local game server (from == id.None) or
	// be relayed on behalf of our own id.
	info, ok := s.peers[st.To]
	if !ok && !from.Valid() {
		return nil, fmt.Errorf("%w: %v", ErrBadPeer, st.To)
	}
	return []Envelope{{Dest: DestPeer, Peer: st.To, Addr: info.addr, Msg: st}}, nil
}

// handleNonProximalReply resolves the oldest pending non-proximal packet
// with the MC's consistency set. Replies arrive in request order because
// both the MC and the transports preserve ordering.
func (s *Server) handleNonProximalReply(r *protocol.NonProximalReply) ([]Envelope, error) {
	if len(s.pendingNonProx) == 0 {
		return nil, ErrNoPending
	}
	u := s.pendingNonProx[0]
	s.pendingNonProx = s.pendingNonProx[1:]
	for _, p := range r.Peers {
		s.setPeer(p.Server, peerInfo{addr: p.Addr, bounds: p.Bounds})
	}
	return s.forward(nil, u, overlap.NewSet(r.Servers...))
}

// TableState is one installed overlap table inside a State snapshot,
// carried as wire regions (the same representation the MC pushes).
type TableState struct {
	Radius  float64
	Version uint64
	Bounds  geom.Rect
	Regions []protocol.TableRegion
}

// PeerState is one known peer inside a State snapshot.
type PeerState struct {
	Server id.ServerID
	Addr   string
	Bounds geom.Rect
}

// DeniedState is one backed-off reclaim child inside a State snapshot.
type DeniedState struct {
	Child   id.ServerID
	UntilNs int64 // deadline, ns since the Unix epoch on the policy clock
}

// State is a Matrix server's serializable snapshot. Every collection is
// sorted (tables by radius, peers and denials by ID; children keep adoption
// order, which reclaim depends on), so encoding the same server twice is
// byte-identical.
type State struct {
	ID             id.ServerID
	World          geom.Rect
	Bounds         geom.Rect
	Active         bool
	Radius         float64
	PeersVersion   uint64
	Parent         id.ServerID
	Children       []id.ServerID // adoption order (newest last)
	Peers          []PeerState
	Tables         []TableState
	Tracker        load.TrackerState
	PendingSplit   bool
	PendingReclaim id.ServerID
	ReclaimDenied  []DeniedState
	PendingNonProx [][]byte // encoded GameUpdate frames, oldest first
	Stats          Stats
	// PolicyState is the split/reclaim policy's internal snapshot; nil for
	// stateless policies (paper, static), so pre-policy snapshots and the
	// default configuration encode byte-identically to version 1.
	PolicyState json.RawMessage `json:",omitempty"`
}

// CaptureState snapshots the server.
func (s *Server) CaptureState() (*State, error) {
	st := &State{
		ID:             s.id,
		World:          s.world,
		Bounds:         s.bounds,
		Active:         s.active,
		Radius:         s.radius,
		PeersVersion:   s.peersVersion,
		Parent:         s.parent,
		Children:       append([]id.ServerID(nil), s.childOrder...),
		PendingSplit:   s.pendingSplit,
		PendingReclaim: s.pendingReclaim,
		Stats:          s.stats,
		Tracker:        s.tracker.State(),
	}
	if ps := s.tracker.PolicyState(); len(ps) > 0 {
		st.PolicyState = json.RawMessage(ps)
	}
	for _, sid := range s.peerOrder {
		info := s.peers[sid]
		st.Peers = append(st.Peers, PeerState{Server: sid, Addr: info.addr, Bounds: info.bounds})
	}
	radii := make([]float64, 0, len(s.tables))
	for r := range s.tables {
		radii = append(radii, r)
	}
	sort.Float64s(radii)
	for _, r := range radii {
		tab := s.tables[r]
		st.Tables = append(st.Tables, TableState{
			Radius:  r,
			Version: tab.Version(),
			Bounds:  tab.Bounds(),
			Regions: protocol.RegionsToWire(tab.Regions()),
		})
	}
	denied := make([]id.ServerID, 0, len(s.reclaimDeniedUntil))
	for c := range s.reclaimDeniedUntil {
		denied = append(denied, c)
	}
	sort.Slice(denied, func(i, j int) bool { return denied[i] < denied[j] })
	for _, c := range denied {
		st.ReclaimDenied = append(st.ReclaimDenied, DeniedState{Child: c, UntilNs: s.reclaimDeniedUntil[c].UnixNano()})
	}
	for _, u := range s.pendingNonProx {
		frame, err := protocol.Marshal(u)
		if err != nil {
			return nil, fmt.Errorf("core: encode pending non-proximal: %w", err)
		}
		st.PendingNonProx = append(st.PendingNonProx, frame)
	}
	return st, nil
}

// RestoreState overwrites the server's mutable state from a snapshot,
// keeping its config and clock. Overlap tables are rebuilt from their wire
// regions — the same reconstruction AppendMessage performs on an MC push —
// so routing behavior is identical to the captured run. The snapshot is not
// retained; restoring the same state twice is safe.
func (s *Server) RestoreState(st *State) error {
	tables := make(map[float64]*overlap.Table, len(st.Tables))
	for _, ts := range st.Tables {
		tab, err := overlap.NewTableFromRegions(st.ID, ts.Bounds, ts.Version, protocol.RegionsFromWire(ts.Regions))
		if err != nil {
			return fmt.Errorf("core: rebuild table (r=%v): %w", ts.Radius, err)
		}
		tables[ts.Radius] = tab
	}
	pending := make([]*protocol.GameUpdate, 0, len(st.PendingNonProx))
	for _, frame := range st.PendingNonProx {
		m, err := protocol.Unmarshal(frame)
		if err != nil {
			return fmt.Errorf("core: decode pending non-proximal: %w", err)
		}
		u, ok := m.(*protocol.GameUpdate)
		if !ok {
			return fmt.Errorf("core: pending non-proximal frame holds %v", m.MsgType())
		}
		pending = append(pending, u)
	}
	if st.ID != s.id {
		return fmt.Errorf("core: state for %v restored into %v", st.ID, s.id)
	}
	s.world = st.World
	s.bounds = st.Bounds
	s.active = st.Active
	s.radius = st.Radius
	s.tables = tables
	s.peers = make(map[id.ServerID]peerInfo, len(st.Peers))
	s.peerOrder = s.peerOrder[:0]
	for _, p := range st.Peers {
		s.setPeer(p.Server, peerInfo{addr: p.Addr, bounds: p.Bounds})
	}
	s.peersVersion = st.PeersVersion
	s.parent = st.Parent
	s.child = make(map[id.ServerID]bool, len(st.Children))
	s.childOrder = append([]id.ServerID(nil), st.Children...)
	for _, c := range st.Children {
		s.child[c] = true
	}
	s.tracker.RestoreState(st.Tracker)
	if err := s.tracker.RestorePolicyState(st.PolicyState); err != nil {
		return fmt.Errorf("core: restore policy state: %w", err)
	}
	s.pendingSplit = st.PendingSplit
	s.pendingReclaim = st.PendingReclaim
	s.reclaimDeniedUntil = make(map[id.ServerID]time.Time, len(st.ReclaimDenied))
	for _, d := range st.ReclaimDenied {
		s.reclaimDeniedUntil[d.Child] = time.Unix(0, d.UntilNs)
	}
	s.pendingNonProx = pending
	s.stats = st.Stats
	return nil
}

// radiusFor resolves the visibility radius for an update kind.
func (s *Server) radiusFor(k protocol.UpdateKind) float64 {
	if r, ok := s.cfg.KindRadius[k]; ok {
		return r
	}
	return s.radius
}

// ResolveOwner returns the peer server whose partition contains p, with its
// address. It is how the co-located game server learns where to hand off a
// client whose movement carried it across a partition boundary ("Matrix
// provides the identity of the appropriate game server"). Movement is
// continuous, so the new owner is always an adjacent partition, which the
// overlap tables already name as a peer.
func (s *Server) ResolveOwner(p geom.Point) (id.ServerID, string, bool) {
	if s.bounds.Contains(p) {
		return s.id, "", false // still ours: no handoff
	}
	// Sorted iteration: across a topology change two peers' recorded bounds
	// can transiently both contain p, and map order must not pick the
	// winner (determinism for a fixed seed).
	for _, sid := range s.peerOrder {
		if info := s.peers[sid]; info.bounds.Contains(p) {
			return sid, info.addr, true
		}
	}
	return id.None, "", false
}

// TableVersion returns the installed table version for the default radius
// (0 when none).
func (s *Server) TableVersion() uint64 {
	if tab, ok := s.tables[s.radius]; ok {
		return tab.Version()
	}
	return 0
}

// OverlapArea returns the total overlap-region area of the default-radius
// table (the paper's traffic-predicting metric).
func (s *Server) OverlapArea() float64 {
	if tab, ok := s.tables[s.radius]; ok {
		return tab.OverlapArea()
	}
	return 0
}
