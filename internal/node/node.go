// Package node is what one Matrix server does, whichever clock drives it: a
// Matrix server (internal/core), its co-located game server and the optional
// admission chain in front of the game server's queue, with the per-tick walk
// the paper draws — game-server queue → overlap lookup in the co-located
// Matrix server → peer / client / coordinator fallout — plus the load report,
// the heartbeat, the checkpoint and the adoption of a dead server's world.
//
// It is the one judge of what enters the game server's queue (Enqueue, Handle).
//
// Two drivers run it: the simulator (internal/sim) steps many nodes on a
// virtual clock, the live host (internal/host) one on the wall clock between
// its sockets. A driver owns when a node advances and where its envelopes go —
// links, connections, the coordinator — never what the node does with a message.
//
// A node has one owner, the goroutine that drives it (the live host's tick
// goroutine, the simulator's stepping goroutine); neither the core nor the
// game server takes a lock. Only Admit and Enqueue, which reach the game
// server's receive queue, are safe from any goroutine. The concurrency
// contract the simulator's parallel phase stands on lives here too: Step and
// LoadReport read and write only the node's own state (the game server, its
// interest grid, the core and the ResolveOwner binding between the two) and
// the Out they are handed. Distinct nodes may step on distinct goroutines at
// once; one node is stepped by one goroutine at a time.
package node

import (
	"matrix/internal/clock"
	"matrix/internal/core"
	"matrix/internal/gameserver"
	"matrix/internal/id"
	"matrix/internal/load"
	"matrix/internal/middleware"
	"matrix/internal/nodeblob"
	"matrix/internal/policy"
	"matrix/internal/protocol"
)

// Config is what both drivers know about every server they run.
type Config struct {
	Load       load.Config       // split/reclaim thresholds (zero value = paper defaults)
	Policy     string            // decision policy by name (internal/policy; empty = the paper's rules)
	Radius     float64           // the game's visibility radius
	MaxQueue   int               // bound of the game server's receive queue (0 = unbounded)
	Middleware middleware.Config // the admission chain in front of the queue (no stage = no chain)
	Clock      clock.Clock       // drives the policy timers (nil = wall clock)
}

// Node is one server. The components are the driver's too, on the goroutine
// that owns the node: status, snapshots and eviction read them directly.
type Node struct {
	Core *core.Server
	Game *gameserver.Server
	MW   *middleware.Chain // nil when Config.Middleware has no stage; the driver closes it

	adopt protocol.Reassembler // the Adopt stream in flight
	req   middleware.Request   // Handle's, reused message over message
}

// New builds the server a registration reply describes: its own policy
// instance, the Matrix server, the game server with boundary handoffs resolved
// against it and, last, so a failed start leaves nothing running, the chain.
func New(cfg Config, reply *protocol.RegisterReply) (*Node, error) {
	pol, err := policy.New(cfg.Policy)
	if err != nil {
		return nil, err
	}
	cs, err := core.NewServer(core.Config{Load: cfg.Load, Clock: cfg.Clock, Policy: pol}, reply, cfg.Radius)
	if err != nil {
		return nil, err
	}
	gs, err := gameserver.New(gameserver.Config{
		Server:       reply.Server,
		Bounds:       reply.Bounds,
		Radius:       cfg.Radius,
		MaxQueue:     cfg.MaxQueue,
		ResolveOwner: cs.ResolveOwner,
	})
	if err != nil {
		return nil, err
	}
	n := &Node{Core: cs, Game: gs}
	if cfg.Middleware.Enabled() {
		if n.MW, err = middleware.New(cfg.Middleware); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Admit judges one frame bound for the game server's queue: the chain decides
// against the queue as it stands and the clock the caller put in req.Now —
// wall seconds live, virtual time simulated, which keeps the token buckets
// deterministic there. A node without a chain admits everything.
func (n *Node) Admit(req *middleware.Request) middleware.Verdict {
	if n.MW == nil {
		return middleware.Admit
	}
	req.QueueLen = n.Game.QueueLen()
	return n.MW.Handle(req)
}

// Enqueue judges req.Msg (Admit) and queues it on the game server when it is
// admitted; a full queue drops it there, counted by the game server.
func (n *Node) Enqueue(req *middleware.Request) middleware.Verdict {
	v := n.Admit(req)
	if v.Admitted() {
		_ = n.Game.Enqueue(req.Msg)
	}
	return v
}

// Handled is what Handle reports: the verdict on what the core answered for
// the game server (Admit when nothing), and whether an Adopt frame closed its
// stream, with the checkpoint's size (0 is a cold adoption: an empty world).
type Handled struct {
	Verdict middleware.Verdict
	Done    bool
	Bytes   int
}

// Handle takes one message from the coordinator or a peer (from names the
// peer, id.None otherwise) at middleware clock now, and appends the envelopes
// to deliver to dst. What the core answers for its own game server — always
// that one envelope: a forward past its range check, a state transfer, a range
// change — is judged here as SourcePeer traffic and queued, never returned. An
// Adopt is the one frame the core never sees: its chunks are reassembled here
// and the victim's world restored into the game server on the last one, ahead
// of the overlap tables and the activating RangeUpdate the coordinator sends
// behind it. A stream over protocol.MaxBlobSize is dropped
// (protocol.ErrBlobTooLarge, once) and never reports Done; a blob that does
// not restore reports both Done and the error.
func (n *Node) Handle(dst []core.Envelope, from id.ServerID, m protocol.Message, now float64) (envs []core.Envelope, h Handled, err error) {
	if a, isAdopt := m.(*protocol.Adopt); isAdopt {
		blob, done, err := n.adopt.Add(a.Blob, a.Final)
		if err == nil && len(blob) > 0 {
			err = nodeblob.RestoreGame(blob, n.Game)
		}
		return dst, Handled{Done: done, Bytes: len(blob)}, err
	}
	envs, err = n.Core.AppendMessage(dst, from, m)
	if last := len(envs) - 1; last == len(dst) && envs[last].Dest == core.DestGameServer {
		n.req = middleware.Request{Source: middleware.SourcePeer, Msg: envs[last].Msg, Now: now}
		h.Verdict = n.Enqueue(&n.req)
		envs[last], envs = core.Envelope{}, envs[:last]
	}
	return envs, h, err
}

// Checkpoint returns the blob this node ships to the coordinator — what a
// warm spare restores should it die. A spare owns no world and ships nothing
// (nil, nil); a state over protocol.MaxBlobSize is refused here, at the sender
// (nodeblob.ErrOversize), because the coordinator would drop it every time.
func (n *Node) Checkpoint() ([]byte, error) {
	if !n.Core.Active() {
		return nil, nil
	}
	return nodeblob.Checkpoint(n.Core, n.Game)
}

// Heartbeat builds the lease renewal: the load the game server reports now
// and the driver's count of the tick at which its last checkpoint shipped.
func (n *Node) Heartbeat(checkpointTick uint64) *protocol.Heartbeat {
	rep := n.Game.LoadReport()
	return &protocol.Heartbeat{Server: n.Core.ID(), Clients: rep.Clients, QueueLen: rep.QueueLen, CheckpointTick: checkpointTick}
}

// Out is what one Step or LoadReport emitted, its backing arrays reused call
// over call: the game server's own envelope list, and the co-located Matrix
// server's fallout for every DestMatrix envelope in it, back to back.
type Out struct {
	node *Node
	game []gameserver.Envelope
	core []core.Envelope
	// coreEnds[k] is where the k-th DestMatrix envelope's fallout ends in
	// core (it starts where the previous one ended). A load report's fallout
	// has no game-server envelope in front of it and follows the last end.
	coreEnds []int

	GameErr  error   // the first error the game server hit processing its queue
	CoreErrs []error // one per message the Matrix server refused; that message's fallout was dropped
}

// reset empties o for n, clearing message pointers so a burst tick's
// envelopes are not pinned until the next equally large burst.
func (o *Out) reset(n *Node) {
	clear(o.game)
	clear(o.core)
	clear(o.CoreErrs)
	o.game, o.core, o.coreEnds, o.CoreErrs = o.game[:0], o.core[:0], o.coreEnds[:0], o.CoreErrs[:0]
	o.node, o.GameErr = n, nil
}

// Game returns the game server's envelopes of the last Step, in emission
// order, for a driver that observes them (tracing) before it routes.
func (o *Out) Game() []gameserver.Envelope { return o.game }

// Step is one tick of the node: drain up to budget messages from the game
// server's queue (all of them when budget <= 0) and hand every DestMatrix
// envelope that produces to the co-located Matrix server, keeping its fallout
// and where it ends. Whatever out held is discarded. It returns how many
// queued messages it served.
func (n *Node) Step(budget int, out *Out) (served int) {
	out.reset(n)
	out.game, served, out.GameErr = n.Game.Serve(out.game, budget)
	for i := range out.game {
		e := &out.game[i]
		if e.Dest != gameserver.DestMatrix {
			continue
		}
		var err error
		if out.core, err = n.Core.AppendMessage(out.core, id.None, e.Msg); err != nil {
			// Inactive servers legitimately reject packets in flight across
			// a topology change; keep the reason, route nothing.
			out.CoreErrs = append(out.CoreErrs, err)
		}
		out.coreEnds = append(out.coreEnds, len(out.core))
	}
	return served
}

// LoadReport is the periodic load report: the game server's client count and
// queue length run through the core's split/reclaim policy, keeping the
// coordinator traffic that emits. A spare reports nothing. Whatever out held
// is discarded.
func (n *Node) LoadReport(out *Out) {
	out.reset(n)
	if !n.Core.Active() {
		return
	}
	rep := n.Game.LoadReport()
	envs, err := n.Core.HandleLocalLoad(int(rep.Clients), int(rep.QueueLen))
	if err != nil {
		out.CoreErrs = append(out.CoreErrs, err)
		return
	}
	out.core = append(out.core, envs...)
}

// Sink is where a driver takes a node's output: a virtual network, or sockets.
type Sink interface {
	// ToClient delivers one message to a game client of n.
	ToClient(n *Node, c id.ClientID, m protocol.Message)
	// FromCore routes envelopes n's Matrix server emitted: to the coordinator
	// or to peers (what it answers for its own game server Handle queued).
	// envs is valid during the call only.
	FromCore(n *Node, envs []core.Envelope)
}

// Route walks o in emission order — the one canonical order, live and
// simulated: a DestMatrix envelope's fallout is routed where the envelope
// stood, before the next envelope's client delivery, and a load report's
// after everything. Every order-sensitive effect downstream (per-link loss
// draws, queue append order, coordinator grant order, a state transfer ahead
// of its client's redirect) rests on it. Route empties o, errors included.
func (o *Out) Route(sink Sink) {
	lo, k := 0, 0
	for i := range o.game {
		switch e := &o.game[i]; e.Dest {
		case gameserver.DestMatrix:
			hi := o.coreEnds[k]
			k++
			if hi > lo {
				sink.FromCore(o.node, o.core[lo:hi])
			}
			lo = hi
		case gameserver.DestClient:
			sink.ToClient(o.node, e.Client, e.Msg)
		}
	}
	if len(o.core) > lo {
		sink.FromCore(o.node, o.core[lo:])
	}
	o.reset(o.node)
}
