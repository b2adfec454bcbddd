// Package coordinator implements the Matrix Coordinator (MC).
//
// The MC is deliberately off the packet fast path: it only acts when the
// world partitioning changes (registration, split, reclamation) and for the
// rare non-proximal interaction queries. Its job is to own the authoritative
// space.Map, compute overlap tables with axis-aligned bounding-box
// arithmetic, and push the updated tables to every Matrix server after each
// topology change (paper §3.2.4).
//
// The Coordinator is a synchronous state machine: every handler returns the
// messages to deliver ("envelopes") instead of performing I/O, so the same
// code is driven by the TCP host in production, one call at a time, and by
// the deterministic simulation harness in the evaluation.
package coordinator

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"matrix/internal/clock"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/overlap"
	"matrix/internal/policy"
	"matrix/internal/protocol"
	"matrix/internal/space"
)

// Coordinator errors.
var (
	ErrPoolExhausted = errors.New("coordinator: no spare servers available")
	ErrUnknownServer = errors.New("coordinator: unknown server")
	ErrBadRadius     = errors.New("coordinator: bad radius")
	ErrNotActive     = errors.New("coordinator: server owns no partition")
)

// Envelope is one message the caller must deliver to a Matrix server.
type Envelope struct {
	To  id.ServerID
	Msg protocol.Message
}

// Config tunes the Coordinator.
type Config struct {
	// World is the full map rectangle of the game.
	World geom.Rect
	// ExtraRadii lists additional visibility radii beyond the game default
	// (the paper's "distinct sets of overlap regions, each for a different
	// R" for exceptional object classes).
	ExtraRadii []float64
	// Static, when non-empty, switches the coordinator into the paper's
	// static-partitioning baseline: the i-th registering server is pinned
	// to Static[i] forever, and all split/reclaim requests are denied.
	// The rectangles must tile World exactly.
	Static []geom.Rect
	// HeartbeatEvery is the interval servers are expected to beat at.
	// Zero disables every health feature (leases, death detection,
	// adoption, drain) — the pre-health behaviour, and what a simulation
	// that does not checkpoint runs with.
	HeartbeatEvery time.Duration
	// LeaseMisses is how many consecutive missed beats expire a lease.
	// Defaults to 3 when zero.
	LeaseMisses int
	// Clock supplies lease time. Defaults to the wall clock; the simulator
	// and tests inject a virtual clock to expire leases deterministically.
	Clock clock.Clock
	// Policy decides spare selection and child placement on splits (nil =
	// the default paper policy: FIFO spares, split-to-left). The instance
	// must be exclusive to this coordinator.
	Policy policy.Policy
}

// serverState tracks one registered server.
type serverState struct {
	id      id.ServerID
	addr    string
	radius  float64
	active  bool // owns a partition (vs. spare in the pool)
	clients int

	// Health state, all idle while Config.HeartbeatEvery == 0.
	draining bool      // evacuating its partition after a drain grant
	retired  bool      // drained with exit; never returns to the pool
	dead     bool      // lease expired or control connection dropped
	lastBeat time.Time // instant of the last heartbeat (or registration)
	beats    uint64    // heartbeats received
	cpTick   uint64    // checkpoint tick reported by the last heartbeat
}

// Coordinator is the MC. It takes no lock: its driver calls it one call at a
// time (the simulator's stepping goroutine, or host.CoordinatorHost under
// its lock).
type Coordinator struct {
	cfg     Config
	pol     policy.Policy // never nil; called only by the coordinator's driver
	gen     id.Generator
	m       *space.Map // nil until the first active server registers
	servers map[id.ServerID]*serverState
	spares  []id.ServerID // FIFO resource pool of registered, unassigned servers
	radius  float64       // the game's default visibility radius
	splits  int
	reclaim int

	// Static-baseline state: partitions assigned so far, pending map build.
	staticAssigned []space.Partition

	// Health/remediation state (idle while cfg.HeartbeatEvery == 0).
	checkpoints map[id.ServerID][]byte // last complete checkpoint blob per server
	// cpPartial holds in-flight chunked checkpoint uploads; cpOverflows
	// counts the ones dropped for outgrowing protocol.MaxBlobSize.
	cpPartial   map[id.ServerID]protocol.Reassembler
	cpOverflows int
	parked      []id.ServerID // dead owners awaiting a spare (FIFO)
	deaths      int
	adoptions   int
	drains      int

	// Decision audit state. corr numbers topology decisions (splits,
	// adoptions, drains); every control frame one decision fans out into
	// carries the same value, so a handoff is traceable
	// coordinator→server→client across process traces. decisions is a
	// bounded ring of the most recent decisions for /fleetz. Neither is
	// serialized into State: they are observability, not topology, and the
	// snapshot golden format must not change (a restored coordinator
	// renumbers from zero).
	corr      uint64
	decisions []Decision
}

// maxRecentDecisions bounds the /fleetz decision ring.
const maxRecentDecisions = 64

// Decision is one audited coordinator action, kept in the recent-decisions
// ring and served on /fleetz. Seq is the correlation ID stamped on the
// frames the decision produced (0 for denials, which send none).
type Decision struct {
	Seq     uint64             `json:"seq,omitempty"`
	Kind    string             `json:"kind"` // "split", "reclaim", "adopt", "drain"
	Server  id.ServerID        `json:"server"`
	Child   id.ServerID        `json:"child,omitempty"`
	Granted bool               `json:"granted"`
	Reason  string             `json:"reason,omitempty"`
	Inputs  map[string]float64 `json:"inputs,omitempty"`
	Policy  string             `json:"policy,omitempty"` // policy that decided (split/reclaim only)
}

// nextCorr numbers one granted decision.
func (c *Coordinator) nextCorr() uint64 {
	c.corr++
	return c.corr
}

// record appends d to the bounded recent-decisions ring.
func (c *Coordinator) record(d Decision) {
	if len(c.decisions) >= maxRecentDecisions {
		copy(c.decisions, c.decisions[1:])
		c.decisions = c.decisions[:len(c.decisions)-1]
	}
	c.decisions = append(c.decisions, d)
}

// New creates a Coordinator for the given world.
func New(cfg Config) (*Coordinator, error) {
	if cfg.World.Empty() {
		return nil, errors.New("coordinator: empty world")
	}
	for _, r := range cfg.ExtraRadii {
		if r <= 0 {
			return nil, fmt.Errorf("%w: %v", ErrBadRadius, r)
		}
	}
	if cfg.HeartbeatEvery < 0 {
		return nil, errors.New("coordinator: negative heartbeat interval")
	}
	if cfg.LeaseMisses < 0 {
		return nil, errors.New("coordinator: negative lease misses")
	}
	pol := cfg.Policy
	if pol == nil {
		var err error
		if pol, err = policy.New(""); err != nil {
			return nil, err
		}
	}
	return &Coordinator{
		cfg:         cfg,
		pol:         pol,
		servers:     make(map[id.ServerID]*serverState),
		checkpoints: make(map[id.ServerID][]byte),
		cpPartial:   make(map[id.ServerID]protocol.Reassembler),
	}, nil
}

// Register adds a server. The first registration becomes the active root
// server owning the whole world; later registrations join the spare pool
// (the paper's "non-Matrix external entity" that supplies available
// servers). The returned envelopes carry the initial overlap tables. The
// first registrant's radius is the fleet's; one that differs is refused.
func (c *Coordinator) Register(addr string, radius float64) (*protocol.RegisterReply, []Envelope, error) {
	if radius < 0 {
		return nil, nil, fmt.Errorf("%w: %v is negative", ErrBadRadius, radius)
	}
	if (c.m != nil || len(c.staticAssigned) > 0) && radius != c.radius {
		return nil, nil, fmt.Errorf("%w: %v, but the fleet runs at %v", ErrBadRadius, radius, c.radius)
	}
	sid := c.gen.NextServer()
	st := &serverState{id: sid, addr: addr, radius: radius, lastBeat: c.now()}
	c.servers[sid] = st

	if len(c.cfg.Static) > 0 {
		return c.registerStatic(st)
	}

	if c.m == nil {
		m, err := space.NewMap(c.cfg.World, sid)
		if err != nil {
			delete(c.servers, sid)
			return nil, nil, err
		}
		c.m = m
		c.radius = radius
		st.active = true
		reply := &protocol.RegisterReply{Server: sid, Bounds: c.cfg.World, World: c.cfg.World}
		envs, err := c.tableEnvelopes()
		if err != nil {
			return nil, nil, err
		}
		return reply, envs, nil
	}

	// Spare: no partition yet.
	c.spares = append(c.spares, sid)
	reply := &protocol.RegisterReply{Server: sid, Bounds: geom.Rect{}, World: c.cfg.World}
	if c.healthEnabled() && len(c.parked) > 0 {
		// A region is parked waiting for capacity; the new spare adopts it
		// immediately rather than waiting for the next lease tick.
		victim := c.parked[0]
		c.parked = c.parked[1:]
		return reply, c.adopt(victim), nil
	}
	return reply, nil, nil
}

// registerStatic pins registrations to the preset static partitions.
// Once every partition has an owner, the preset map is built and the
// overlap tables go out to everyone.
func (c *Coordinator) registerStatic(st *serverState) (*protocol.RegisterReply, []Envelope, error) {
	idx := len(c.staticAssigned)
	if idx >= len(c.cfg.Static) {
		// Extra servers beyond the static layout idle as spares forever.
		c.spares = append(c.spares, st.id)
		return &protocol.RegisterReply{Server: st.id, World: c.cfg.World}, nil, nil
	}
	bounds := c.cfg.Static[idx]
	st.active = true
	if idx == 0 {
		c.radius = st.radius
	}
	c.staticAssigned = append(c.staticAssigned, space.Partition{Owner: st.id, Bounds: bounds})
	reply := &protocol.RegisterReply{Server: st.id, Bounds: bounds, World: c.cfg.World}
	if len(c.staticAssigned) < len(c.cfg.Static) {
		return reply, nil, nil
	}
	m, err := space.NewPresetMap(c.cfg.World, c.staticAssigned)
	if err != nil {
		return nil, nil, fmt.Errorf("coordinator: static layout: %w", err)
	}
	c.m = m
	envs, err := c.tableEnvelopes()
	if err != nil {
		return nil, nil, err
	}
	return reply, envs, nil
}

// HandleMessage dispatches a control message from server `from` and returns
// the envelopes to deliver.
func (c *Coordinator) HandleMessage(from id.ServerID, m protocol.Message) ([]Envelope, error) {
	switch msg := m.(type) {
	case *protocol.SplitRequest:
		return c.handleSplit(from, msg)
	case *protocol.ReclaimRequest:
		return c.handleReclaim(from, msg)
	case *protocol.LoadReport:
		return c.handleLoadReport(from, msg)
	case *protocol.NonProximalQuery:
		return c.handleNonProximal(from, msg)
	case *protocol.Heartbeat:
		return c.handleHeartbeat(from, msg)
	case *protocol.SnapshotData:
		return c.handleCheckpoint(from, msg)
	case *protocol.DrainRequest:
		return c.handleDrainRequest(from, msg)
	default:
		return nil, fmt.Errorf("coordinator: unexpected message %v from %v", m.MsgType(), from)
	}
}

// placementPolicy adapts a policy.Placement into a space.SplitPolicy so
// the map validates a pluggable policy's placement exactly like one of
// its built-in split rules (non-empty pieces, minimum extent, tiling
// invariant). A policy that returns a bad placement gets its split
// denied with the map's error.
type placementPolicy struct {
	place policy.Placement
	name  string
}

func (p placementPolicy) Split(geom.Rect) (keep, give geom.Rect) {
	return p.place.Keep, p.place.Give
}

func (p placementPolicy) Name() string { return p.name }

// handleSplit services a split request: let the policy pick the spare
// and the placement, split the requester's partition, and broadcast
// fresh overlap tables.
func (c *Coordinator) handleSplit(from id.ServerID, req *protocol.SplitRequest) ([]Envelope, error) {
	deny := func(reason string) []Envelope {
		c.record(Decision{Kind: "split", Server: from, Reason: reason, Policy: c.pol.Name(),
			Inputs: map[string]float64{"clients": float64(req.Clients), "spares": float64(len(c.spares))}})
		return []Envelope{{To: from, Msg: &protocol.SplitReply{Granted: false, Reason: reason}}}
	}
	st, ok := c.servers[from]
	if !ok || !st.active || c.m == nil {
		return deny("unknown or inactive server"), fmt.Errorf("%w: %v", ErrUnknownServer, from)
	}
	st.clients = int(req.Clients)
	if len(c.cfg.Static) > 0 {
		return deny("static partitioning"), nil
	}
	if len(c.spares) == 0 {
		return deny("pool exhausted"), nil
	}
	childID := c.pol.PickSpare(policy.PoolView{Spares: append([]id.ServerID(nil), c.spares...)})
	idx := -1
	for i, s := range c.spares {
		if s == childID {
			idx = i
			break
		}
	}
	if idx < 0 {
		return deny(fmt.Sprintf("policy %q picked %v, which is not a spare", c.pol.Name(), childID)), nil
	}
	bounds, err := c.m.Bounds(from)
	if err != nil {
		return deny(err.Error()), nil
	}
	place := c.pol.PlaceChild(policy.SplitView{
		Parent:  from,
		Child:   childID,
		Bounds:  bounds,
		World:   c.cfg.World,
		Clients: int(req.Clients),
		Spares:  len(c.spares),
	})
	keep, give, err := c.m.Split(from, childID, placementPolicy{place: place, name: c.pol.Name()})
	if err != nil {
		return deny(err.Error()), nil
	}
	child := c.activateSpare(idx)
	c.splits++
	corr := c.nextCorr()
	c.record(Decision{Seq: corr, Kind: "split", Server: from, Child: childID, Granted: true,
		Policy: c.pol.Name(),
		Inputs: map[string]float64{"clients": float64(req.Clients), "spares": float64(len(c.spares))}})

	out := []Envelope{
		{To: from, Msg: &protocol.SplitReply{
			Granted:   true,
			Child:     childID,
			ChildAddr: child.addr,
			Keep:      keep,
			Give:      give,
			Corr:      corr,
		}},
		{To: childID, Msg: &protocol.RangeUpdate{Server: childID, Bounds: give, Corr: corr}},
	}
	tables, err := c.tableEnvelopes()
	if err != nil {
		return out, err
	}
	return append(out, tables...), nil
}

// handleReclaim folds child back into parent and rebroadcasts tables.
func (c *Coordinator) handleReclaim(from id.ServerID, req *protocol.ReclaimRequest) ([]Envelope, error) {
	deny := func(reason string) []Envelope {
		c.record(Decision{Kind: "reclaim", Server: req.Parent, Child: req.Child, Reason: reason, Policy: c.pol.Name()})
		return []Envelope{{To: from, Msg: &protocol.ReclaimReply{Granted: false, Reason: reason}}}
	}
	if c.m == nil {
		return deny("no active map"), nil
	}
	if len(c.cfg.Static) > 0 {
		return deny("static partitioning"), nil
	}
	if req.Parent != from {
		return deny("only the parent may reclaim"), nil
	}
	parent, err := c.m.Parent(req.Child)
	if err != nil || parent != req.Parent {
		return deny("not your child"), nil
	}
	if cs, ok := c.servers[req.Child]; ok && cs.dead {
		// Granting would pool a dead server; its region waits for a live one.
		return deny("child is dead"), nil
	}
	if !c.m.CanReclaim(req.Child) {
		if kids := c.m.Children(req.Child); len(kids) > 0 {
			return deny(fmt.Sprintf("child still has children %v", kids)), nil
		}
		return deny("child partition not mergeable yet"), nil
	}
	_, merged, err := c.m.Reclaim(req.Child)
	if err != nil {
		return deny(err.Error()), nil
	}
	child := c.servers[req.Child]
	childClients := child.clients
	child.active = false
	child.clients = 0
	c.spares = append(c.spares, req.Child)
	c.reclaim++
	corr := c.nextCorr()
	c.record(Decision{Seq: corr, Kind: "reclaim", Server: req.Parent, Child: req.Child, Granted: true,
		Policy: c.pol.Name(),
		Inputs: map[string]float64{"child_clients": float64(childClients), "spares": float64(len(c.spares))}})

	parentAddr := ""
	if ps, ok := c.servers[from]; ok {
		parentAddr = ps.addr
	}
	out := []Envelope{
		{To: from, Msg: &protocol.ReclaimReply{Granted: true, Merged: merged}},
		// The reclaimed child is deactivated (empty bounds) and told to
		// hand every client to the absorbing parent.
		{To: req.Child, Msg: &protocol.RangeUpdate{
			Server: req.Child,
			Bounds: geom.Rect{},
			Handoff: []protocol.HandoffTarget{{
				Server: from,
				Addr:   parentAddr,
				Bounds: merged,
			}},
			Corr: corr,
		}},
	}
	tables, err := c.tableEnvelopes()
	if err != nil {
		return out, err
	}
	return append(out, tables...), nil
}

// handleLoadReport records a server's load and relays it to the server's
// split-tree parent so reclaim decisions stay local to the parent.
func (c *Coordinator) handleLoadReport(from id.ServerID, rep *protocol.LoadReport) ([]Envelope, error) {
	st, ok := c.servers[from]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownServer, from)
	}
	st.clients = int(rep.Clients)
	if c.m == nil || !st.active {
		return nil, nil
	}
	parent, err := c.m.Parent(from)
	if err != nil || !parent.Valid() {
		return nil, nil
	}
	return []Envelope{{To: parent, Msg: &protocol.LoadReport{
		Server:   from,
		Clients:  rep.Clients,
		QueueLen: rep.QueueLen,
	}}}, nil
}

// handleNonProximal answers the consistency set for an arbitrary point —
// the paper's fallback for "uncommon cases involving non-proximal
// interactions".
func (c *Coordinator) handleNonProximal(from id.ServerID, q *protocol.NonProximalQuery) ([]Envelope, error) {
	if c.m == nil {
		return nil, errors.New("coordinator: no active map")
	}
	radius := q.Radius
	if radius <= 0 {
		radius = c.radius
	}
	set := overlap.ConsistencySet(q.Point, from, c.m.Partitions(), radius)
	reply := &protocol.NonProximalReply{
		Servers: set,
		Peers:   c.peerAddrs(set),
	}
	return []Envelope{{To: from, Msg: reply}}, nil
}

// tableEnvelopes recomputes and packages overlap tables for every
// active server, one per distinct radius in use.
func (c *Coordinator) tableEnvelopes() ([]Envelope, error) {
	parts := c.m.Partitions()
	version := c.m.Version()
	radii := c.radii()
	var out []Envelope
	for _, r := range radii {
		tables, err := overlap.BuildAll(parts, r, version)
		if err != nil {
			return nil, fmt.Errorf("coordinator: build tables (r=%v): %w", r, err)
		}
		for _, part := range parts {
			out = append(out, c.tableEnvelope(part.Owner, tables[part.Owner], r))
		}
	}
	// Deterministic delivery order helps tests and debugging.
	sort.SliceStable(out, func(i, j int) bool { return out[i].To < out[j].To })
	return out, nil
}

// tableEnvelope packages owner's overlap table for radius r with the
// addresses of every peer it can route to.
func (c *Coordinator) tableEnvelope(owner id.ServerID, tab *overlap.Table, r float64) Envelope {
	regions := tab.Regions()
	var peerSet overlap.Set
	for _, reg := range regions {
		peerSet = peerSet.Union(reg.Peers)
	}
	return Envelope{To: owner, Msg: &protocol.OverlapTable{
		Server:  owner,
		Version: tab.Version(),
		Bounds:  tab.Bounds(),
		Radius:  r,
		Regions: protocol.RegionsToWire(regions),
		Peers:   c.peerAddrs(peerSet),
	}}
}

// activateSpare takes spares[i] out of the pool to own a partition
// (the caller has put it in the map); any drain it was finishing is over.
func (c *Coordinator) activateSpare(i int) *serverState {
	st := c.servers[c.spares[i]]
	c.spares = append(c.spares[:i], c.spares[i+1:]...)
	st.active, st.draining = true, false
	return st
}

// radii returns the default radius plus configured extras, deduped.
func (c *Coordinator) radii() []float64 {
	radii := []float64{c.radius}
	for _, r := range c.cfg.ExtraRadii {
		dup := false
		for _, have := range radii {
			if have == r {
				dup = true
				break
			}
		}
		if !dup {
			radii = append(radii, r)
		}
	}
	return radii
}

// peerAddrs resolves addresses and current bounds for a set of
// servers.
func (c *Coordinator) peerAddrs(set overlap.Set) []protocol.PeerAddr {
	out := make([]protocol.PeerAddr, 0, len(set))
	for _, sid := range set {
		st, ok := c.servers[sid]
		if !ok {
			continue
		}
		var bounds geom.Rect
		if c.m != nil {
			if b, err := c.m.Bounds(sid); err == nil {
				bounds = b
			}
		}
		out = append(out, protocol.PeerAddr{Server: sid, Addr: st.addr, Bounds: bounds})
	}
	return out
}

// resync rebuilds the topology view of a zombie — declared dead, then
// heard from again (handleHeartbeat's revive and demote branches): the overlap
// tables it owes (when it still owns a partition) followed by a RangeUpdate
// carrying its authoritative bounds and a handoff target for every active
// partition, so it can immediately redirect clients it no longer owns. One
// that lost its partition while away gets only the deactivating RangeUpdate.
func (c *Coordinator) resync(sid id.ServerID) ([]Envelope, error) {
	if _, ok := c.servers[sid]; !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownServer, sid)
	}
	if c.m == nil {
		return nil, nil
	}
	bounds, err := c.m.Bounds(sid)
	if err != nil {
		// Not in the map: the server was reclaimed while down; it rejoins
		// as a deactivated spare and hands every client away.
		return []Envelope{c.rangeEnvelope(sid, geom.Rect{}, 0)}, nil
	}
	// Only this server's tables are rebuilt (one per radius) — recoveries
	// must not pay the whole-fleet recomputation a topology change does.
	parts := c.m.Partitions()
	version := c.m.Version()
	var out []Envelope
	for _, r := range c.radii() {
		tab, err := overlap.BuildTable(sid, parts, r, version)
		if err != nil {
			return nil, fmt.Errorf("coordinator: resync table (r=%v): %w", r, err)
		}
		out = append(out, c.tableEnvelope(sid, tab, r))
	}
	return append(out, c.rangeEnvelope(sid, bounds, 0)), nil
}

// rangeEnvelope tells sid its authoritative range (empty bounds
// deactivate it) with every other active partition as a handoff target.
func (c *Coordinator) rangeEnvelope(sid id.ServerID, bounds geom.Rect, corr uint64) Envelope {
	return Envelope{To: sid, Msg: &protocol.RangeUpdate{Server: sid, Bounds: bounds, Handoff: c.handoffTargets(sid), Corr: corr}}
}

// handoffTargets lists every active partition except exclude's as a
// handoff target, so the receiver can redirect any client it does not own.
func (c *Coordinator) handoffTargets(exclude id.ServerID) []protocol.HandoffTarget {
	var out []protocol.HandoffTarget
	for _, part := range c.m.Partitions() {
		if part.Owner == exclude {
			continue
		}
		addr := ""
		if st, ok := c.servers[part.Owner]; ok {
			addr = st.addr
		}
		out = append(out, protocol.HandoffTarget{Server: part.Owner, Addr: addr, Bounds: part.Bounds})
	}
	return out
}

// ServerSnap is one registered server inside a State snapshot. The health
// fields are omitted when zero so snapshots from health-disabled deployments
// (a simulation that does not checkpoint) stay byte-identical to the
// pre-health format.
type ServerSnap struct {
	ID      id.ServerID
	Addr    string
	Radius  float64
	Active  bool
	Clients int

	Draining bool   `json:",omitempty"`
	Retired  bool   `json:",omitempty"`
	Dead     bool   `json:",omitempty"`
	Beats    uint64 `json:",omitempty"`
	// LastBeatUnixNano is the lease's last renewal; nil = no lease yet. Zero
	// is an instant: the simulator's virtual clock starts at the Unix epoch.
	LastBeatUnixNano *int64 `json:",omitempty"`
	CheckpointTick   uint64 `json:",omitempty"`
}

// CheckpointSnap is one server's last shipped checkpoint blob inside a State
// snapshot.
type CheckpointSnap struct {
	ID   id.ServerID
	Blob []byte
}

// State is the Coordinator's serializable snapshot. Servers are sorted by
// ID; spares and parked regions keep their FIFO order.
type State struct {
	Gen      id.GeneratorState
	Radius   float64
	Splits   int
	Reclaims int
	Servers  []ServerSnap
	Spares   []id.ServerID
	Static   []space.Partition
	Map      *space.MapState

	Deaths      int              `json:",omitempty"`
	Adoptions   int              `json:",omitempty"`
	Drains      int              `json:",omitempty"`
	Parked      []id.ServerID    `json:",omitempty"`
	Checkpoints []CheckpointSnap `json:",omitempty"`

	// PolicyState is the placement policy's internal snapshot; nil for
	// stateless policies (including the default paper policy), so snapshots
	// taken before the policy engine existed and snapshots of the default
	// configuration encode byte-identically.
	PolicyState json.RawMessage `json:",omitempty"`
}

// CaptureState snapshots the coordinator.
func (c *Coordinator) CaptureState() *State {
	st := &State{
		Gen:       c.gen.State(),
		Radius:    c.radius,
		Splits:    c.splits,
		Reclaims:  c.reclaim,
		Spares:    append([]id.ServerID(nil), c.spares...),
		Static:    append([]space.Partition(nil), c.staticAssigned...),
		Deaths:    c.deaths,
		Adoptions: c.adoptions,
		Drains:    c.drains,
		Parked:    append([]id.ServerID(nil), c.parked...),
	}
	ids := make([]id.ServerID, 0, len(c.servers))
	for sid := range c.servers {
		ids = append(ids, sid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, sid := range ids {
		s := c.servers[sid]
		snap := ServerSnap{ID: sid, Addr: s.addr, Radius: s.radius, Active: s.active, Clients: s.clients}
		if c.healthEnabled() {
			snap.Draining = s.draining
			snap.Retired = s.retired
			snap.Dead = s.dead
			snap.Beats = s.beats
			snap.CheckpointTick = s.cpTick
			if !s.lastBeat.IsZero() {
				ns := s.lastBeat.UnixNano()
				snap.LastBeatUnixNano = &ns
			}
		}
		st.Servers = append(st.Servers, snap)
	}
	cpIDs := make([]id.ServerID, 0, len(c.checkpoints))
	for sid := range c.checkpoints {
		cpIDs = append(cpIDs, sid)
	}
	sort.Slice(cpIDs, func(i, j int) bool { return cpIDs[i] < cpIDs[j] })
	for _, sid := range cpIDs {
		st.Checkpoints = append(st.Checkpoints, CheckpointSnap{ID: sid, Blob: append([]byte(nil), c.checkpoints[sid]...)})
	}
	if c.m != nil {
		ms := c.m.State()
		st.Map = &ms
	}
	if ps := c.pol.State(); len(ps) > 0 {
		st.PolicyState = json.RawMessage(ps)
	}
	return st
}

// RestoreState overwrites the coordinator's mutable state from a snapshot,
// keeping its config. The snapshot is not retained.
func (c *Coordinator) RestoreState(st *State) error {
	var m *space.Map
	if st.Map != nil {
		var err error
		m, err = space.NewMapFromState(*st.Map)
		if err != nil {
			return fmt.Errorf("coordinator: restore map: %w", err)
		}
	}
	c.gen.SetState(st.Gen)
	c.radius = st.Radius
	c.splits = st.Splits
	c.reclaim = st.Reclaims
	c.spares = append([]id.ServerID(nil), st.Spares...)
	c.staticAssigned = append([]space.Partition(nil), st.Static...)
	c.deaths = st.Deaths
	c.adoptions = st.Adoptions
	c.drains = st.Drains
	c.parked = append([]id.ServerID(nil), st.Parked...)
	c.checkpoints = make(map[id.ServerID][]byte, len(st.Checkpoints))
	for _, cp := range st.Checkpoints {
		c.checkpoints[cp.ID] = append([]byte(nil), cp.Blob...)
	}
	c.cpPartial = make(map[id.ServerID]protocol.Reassembler)
	c.servers = make(map[id.ServerID]*serverState, len(st.Servers))
	for _, s := range st.Servers {
		ss := &serverState{
			id: s.ID, addr: s.Addr, radius: s.Radius, active: s.Active, clients: s.Clients,
			draining: s.Draining, retired: s.Retired, dead: s.Dead,
			beats: s.Beats, cpTick: s.CheckpointTick,
		}
		if s.LastBeatUnixNano != nil {
			ss.lastBeat = time.Unix(0, *s.LastBeatUnixNano)
		} else if c.healthEnabled() {
			// Pre-health snapshot restored into a health-enabled
			// coordinator: grant a fresh lease instead of an instant expiry.
			ss.lastBeat = c.now()
		}
		c.servers[s.ID] = ss
	}
	c.m = m
	if err := c.pol.RestoreState(st.PolicyState); err != nil {
		return fmt.Errorf("coordinator: restore policy state: %w", err)
	}
	return nil
}

// --- introspection (used by tooling, experiments and tests) ---

// ActiveServers returns the IDs of servers that currently own partitions,
// sorted.
func (c *Coordinator) ActiveServers() []id.ServerID {
	var out []id.ServerID
	for sid, st := range c.servers {
		if st.active {
			out = append(out, sid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SpareCount returns the number of servers waiting in the pool.
func (c *Coordinator) SpareCount() int {
	return len(c.spares)
}

// Partitions snapshots the current partitioning (empty before the first
// registration).
func (c *Coordinator) Partitions() []space.Partition {
	if c.m == nil {
		return nil
	}
	return c.m.Partitions()
}

// Splits returns the number of granted splits.
func (c *Coordinator) Splits() int {
	return c.splits
}

// Reclaims returns the number of granted reclamations.
func (c *Coordinator) Reclaims() int {
	return c.reclaim
}

// Validate checks the internal space invariants (used by tests and
// long-running soak tooling).
func (c *Coordinator) Validate() error {
	if c.m == nil {
		return nil
	}
	return c.m.Validate()
}
