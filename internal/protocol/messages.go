// Package protocol defines the Matrix wire protocol: the spatially-tagged
// game packets that game servers hand to their Matrix servers, and the
// control-plane messages exchanged with peer Matrix servers and with the
// Matrix Coordinator (registration, load reports, overlap tables, splits,
// reclamations, client redirects and state transfer).
//
// Messages are encoded with a compact length-prefixed binary framing
// (encoding/binary, big endian) suitable both for TCP transports and for the
// in-process transport used by the simulation harness. Hot paths encode
// append-style into caller-owned buffers (AppendEncode, AppendBatches) so
// steady-state encoding is allocation-free, and the Batch frame packs a
// whole tick's traffic to one peer into a single frame.
package protocol

import (
	"fmt"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/overlap"
)

// MsgType discriminates message payloads on the wire.
type MsgType uint8

// Message type values. They start at 1 so a zero byte is detectably invalid.
const (
	TypeGameUpdate MsgType = iota + 1
	TypeForward
	TypeRegisterRequest
	TypeRegisterReply
	TypeLoadReport
	TypeOverlapTable
	TypeSplitRequest
	TypeSplitReply
	TypeReclaimRequest
	TypeReclaimReply
	TypeRedirect
	TypeStateTransfer
	TypeNonProximalQuery
	TypeNonProximalReply
	TypeClientHello
	TypeClientWelcome
	TypeRangeUpdate
	TypeAck
	TypeError
	TypeBatch
	TypeSnapshotRequest
	TypeSnapshotData
	TypeHeartbeat
	TypeDrainRequest
	TypeDrainReply
	TypeAdopt

	typeMax // sentinel for validation
)

// NumMsgTypes sizes arrays indexed by MsgType (values start at 1, so index
// 0 is unused). The middleware stats block uses it to pre-resolve one
// counter per message type with no map on the hot path.
const NumMsgTypes = int(typeMax)

// msgTypes is the one table of wire types, indexed by MsgType (index 0 is
// the detectably invalid zero byte): the name String prints and the
// constructor the decoder calls. A new message type is one new row.
var msgTypes = [typeMax]struct {
	name string
	new  func() Message
}{
	TypeGameUpdate:       {"game-update", func() Message { return new(GameUpdate) }},
	TypeForward:          {"forward", func() Message { return new(Forward) }},
	TypeRegisterRequest:  {"register-request", func() Message { return new(RegisterRequest) }},
	TypeRegisterReply:    {"register-reply", func() Message { return new(RegisterReply) }},
	TypeLoadReport:       {"load-report", func() Message { return new(LoadReport) }},
	TypeOverlapTable:     {"overlap-table", func() Message { return new(OverlapTable) }},
	TypeSplitRequest:     {"split-request", func() Message { return new(SplitRequest) }},
	TypeSplitReply:       {"split-reply", func() Message { return new(SplitReply) }},
	TypeReclaimRequest:   {"reclaim-request", func() Message { return new(ReclaimRequest) }},
	TypeReclaimReply:     {"reclaim-reply", func() Message { return new(ReclaimReply) }},
	TypeRedirect:         {"redirect", func() Message { return new(Redirect) }},
	TypeStateTransfer:    {"state-transfer", func() Message { return new(StateTransfer) }},
	TypeNonProximalQuery: {"non-proximal-query", func() Message { return new(NonProximalQuery) }},
	TypeNonProximalReply: {"non-proximal-reply", func() Message { return new(NonProximalReply) }},
	TypeClientHello:      {"client-hello", func() Message { return new(ClientHello) }},
	TypeClientWelcome:    {"client-welcome", func() Message { return new(ClientWelcome) }},
	TypeRangeUpdate:      {"range-update", func() Message { return new(RangeUpdate) }},
	TypeAck:              {"ack", func() Message { return new(Ack) }},
	TypeError:            {"error", func() Message { return new(ErrorMsg) }},
	TypeBatch:            {"batch", func() Message { return new(Batch) }},
	TypeSnapshotRequest:  {"snapshot-request", func() Message { return new(SnapshotRequest) }},
	TypeSnapshotData:     {"snapshot-data", func() Message { return new(SnapshotData) }},
	TypeHeartbeat:        {"heartbeat", func() Message { return new(Heartbeat) }},
	TypeDrainRequest:     {"drain-request", func() Message { return new(DrainRequest) }},
	TypeDrainReply:       {"drain-reply", func() Message { return new(DrainReply) }},
	TypeAdopt:            {"adopt", func() Message { return new(Adopt) }},
}

// String implements fmt.Stringer.
func (t MsgType) String() string {
	if t < typeMax && msgTypes[t].name != "" {
		return msgTypes[t].name
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// newMessage allocates the empty message for a wire type.
func newMessage(t MsgType) (Message, error) {
	if t < typeMax && msgTypes[t].new != nil {
		return msgTypes[t].new(), nil
	}
	return nil, fmt.Errorf("%w: %d", ErrBadType, uint8(t))
}

// Message is implemented by every protocol message.
type Message interface {
	// MsgType returns the wire discriminator for the message.
	MsgType() MsgType
	// fields walks the message body (without the envelope) through c, which
	// encodes, decodes or sizes it: the message's one statement of its wire
	// layout.
	fields(c coder) coder
}

// UpdateKind classifies a game update's role in the game, so workload models
// can mix traffic classes without the middleware understanding game logic.
type UpdateKind uint8

// Update kinds used by the bundled game workloads.
const (
	KindMove UpdateKind = iota + 1
	KindAction
	KindChat
	KindSpawn
	KindDespawn
)

// String implements fmt.Stringer.
func (k UpdateKind) String() string {
	switch k {
	case KindMove:
		return "move"
	case KindAction:
		return "action"
	case KindChat:
		return "chat"
	case KindSpawn:
		return "spawn"
	case KindDespawn:
		return "despawn"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// GameUpdate is the paper's spatially-tagged game packet: the game server
// forwards every client packet to its Matrix server "appropriately tagged
// with the spatial coordinates (in the game world) of the packet's origin
// and destination".
type GameUpdate struct {
	Client   id.ClientID  // the acting client's global ID (callsign)
	Seq      id.PacketSeq // per-client sequence number
	Kind     UpdateKind   // traffic class
	Origin   geom.Point   // where the event originates
	Dest     geom.Point   // where the event lands (== Origin for most)
	SentUnix int64        // send timestamp, ns since epoch (latency metric)
	Payload  []byte       // opaque game bytes (Matrix never reads them)
}

// MsgType implements Message.
func (*GameUpdate) MsgType() MsgType { return TypeGameUpdate }

// Forward wraps a GameUpdate traveling between Matrix servers, recording the
// origin server so receivers can verify ranges and account traffic.
type Forward struct {
	From   id.ServerID
	Update GameUpdate
}

// MsgType implements Message.
func (*Forward) MsgType() MsgType { return TypeForward }

// RegisterRequest is sent by a new Matrix server to the MC: "when a game
// server starts, it sends Matrix the visibility radius of clients in the
// game".
type RegisterRequest struct {
	Addr   string  // transport address peers should dial
	Radius float64 // the game's radius of visibility
}

// MsgType implements Message.
func (*RegisterRequest) MsgType() MsgType { return TypeRegisterRequest }

// RegisterReply assigns the server its ID and initial map range.
type RegisterReply struct {
	Server id.ServerID
	Bounds geom.Rect
	World  geom.Rect
}

// MsgType implements Message.
func (*RegisterReply) MsgType() MsgType { return TypeRegisterReply }

// LoadReport is the game server's periodic load notification.
type LoadReport struct {
	Server   id.ServerID
	Clients  int32 // connected clients
	QueueLen int32 // receive-queue length (the paper's Figure 2b metric)
}

// MsgType implements Message.
func (*LoadReport) MsgType() MsgType { return TypeLoadReport }

// TableRegion is one overlap region on the wire.
type TableRegion struct {
	Bounds geom.Rect
	Peers  []id.ServerID
}

// PeerAddr pairs a server with its dialable transport address and current
// partition bounds. The bounds let a Matrix server resolve "who owns this
// point" for adjacent partitions locally — used when a client's movement
// carries it across a partition boundary and the game server must hand it
// off ("each server is only responsible for clients located within its
// assigned partition").
type PeerAddr struct {
	Server id.ServerID
	Addr   string
	Bounds geom.Rect
}

// OverlapTable carries a server's freshly computed overlap regions plus the
// addresses of every peer it may need to forward to.
type OverlapTable struct {
	Server  id.ServerID
	Version uint64
	Bounds  geom.Rect
	Radius  float64
	Regions []TableRegion
	Peers   []PeerAddr
}

// MsgType implements Message.
func (*OverlapTable) MsgType() MsgType { return TypeOverlapTable }

// SplitRequest asks the MC for a fresh server to shed load onto. The
// decision to split is purely local to the requesting Matrix server.
type SplitRequest struct {
	Server  id.ServerID
	Clients int32 // current load, for the MC's records
}

// MsgType implements Message.
func (*SplitRequest) MsgType() MsgType { return TypeSplitRequest }

// SplitReply grants (or denies) a split. On success the requester keeps
// Keep and the new child server owns Give.
type SplitReply struct {
	Granted   bool
	Child     id.ServerID
	ChildAddr string
	Keep      geom.Rect
	Give      geom.Rect
	Reason    string // populated when denied
	// Corr is the coordinator decision's correlation ID: every frame a
	// single split/adopt/drain decision fans out into carries the same
	// value, so one handoff can be followed coordinator→server→client
	// across process traces. Zero (the pre-correlation encoding) means
	// unstamped; it is an optional trailing wire field on every message
	// that carries it.
	Corr uint64
}

// MsgType implements Message.
func (*SplitReply) MsgType() MsgType { return TypeSplitReply }

// ReclaimRequest asks the MC to fold child's partition back into parent.
type ReclaimRequest struct {
	Parent id.ServerID
	Child  id.ServerID
}

// MsgType implements Message.
func (*ReclaimRequest) MsgType() MsgType { return TypeReclaimRequest }

// ReclaimReply reports the outcome of a reclamation.
type ReclaimReply struct {
	Granted bool
	Merged  geom.Rect
	Reason  string
}

// MsgType implements Message.
func (*ReclaimReply) MsgType() MsgType { return TypeReclaimReply }

// Redirect tells a game client to reconnect to a different game server. The
// client never learns why (Matrix is transparent to players).
type Redirect struct {
	Client   id.ClientID
	NewOwner id.ServerID
	NewAddr  string
	// Corr carries the correlation ID of the topology decision that
	// displaced the client (see SplitReply.Corr); zero for boundary
	// crossings, which are client movement rather than a decision.
	Corr uint64
}

// MsgType implements Message.
func (*Redirect) MsgType() MsgType { return TypeRedirect }

// ObjectState is one migrating game object (client avatar or map object).
type ObjectState struct {
	Object  id.ObjectID
	Client  id.ClientID // zero for non-player objects
	Pos     geom.Point
	Payload []byte
}

// StateTransfer moves game state between game servers during splits and
// reclamations ("the overloaded game server will forward all game specific
// state ... to the new game server via Matrix").
type StateTransfer struct {
	From    id.ServerID
	To      id.ServerID
	Objects []ObjectState
	Final   bool // true on the last chunk of a transfer
}

// MsgType implements Message.
func (*StateTransfer) MsgType() MsgType { return TypeStateTransfer }

// NonProximalQuery asks the MC for the consistency set of an arbitrary
// point, used for the paper's "rare non-proximal interactions".
type NonProximalQuery struct {
	Server id.ServerID // asking server
	Point  geom.Point
	Radius float64
}

// MsgType implements Message.
func (*NonProximalQuery) MsgType() MsgType { return TypeNonProximalQuery }

// NonProximalReply carries the consistency set for a NonProximalQuery.
type NonProximalReply struct {
	Servers []id.ServerID
	Peers   []PeerAddr
}

// MsgType implements Message.
func (*NonProximalReply) MsgType() MsgType { return TypeNonProximalReply }

// ClientHello is a game client joining a game server.
type ClientHello struct {
	Client id.ClientID
	Pos    geom.Point
	// Token is the optional session credential the middleware auth stage
	// verifies. It rides the wire only when non-empty, so token-free hellos
	// encode byte-identically to the historical format.
	Token string
}

// MsgType implements Message.
func (*ClientHello) MsgType() MsgType { return TypeClientHello }

// ClientWelcome acknowledges a join and tells the client its server.
type ClientWelcome struct {
	Server id.ServerID
	Bounds geom.Rect
}

// MsgType implements Message.
func (*ClientWelcome) MsgType() MsgType { return TypeClientWelcome }

// HandoffTarget names the server that takes over a region the receiver is
// giving up, so the game server can redirect the right clients to the right
// place ("Matrix provides the identity of the appropriate game server").
type HandoffTarget struct {
	Server id.ServerID
	Addr   string
	Bounds geom.Rect
}

// RangeUpdate tells a game server its new map range after a split or
// reclamation. Handoff lists where displaced clients must be redirected:
// after a split it names the new child and its piece; after a reclamation
// (empty Bounds) it names the parent that absorbed the partition.
type RangeUpdate struct {
	Server  id.ServerID
	Bounds  geom.Rect
	Handoff []HandoffTarget
	// Corr carries the correlation ID of the decision that produced this
	// bounds change (see SplitReply.Corr); zero when unstamped.
	Corr uint64
}

// MsgType implements Message.
func (*RangeUpdate) MsgType() MsgType { return TypeRangeUpdate }

// Ack is a generic positive acknowledgement keyed by the request type.
type Ack struct {
	Of MsgType
}

// MsgType implements Message.
func (*Ack) MsgType() MsgType { return TypeAck }

// ErrorMsg is a generic failure reply.
type ErrorMsg struct {
	Of     MsgType
	Reason string
}

// MsgType implements Message.
func (*ErrorMsg) MsgType() MsgType { return TypeError }

// Batch packs any number of messages into one frame, so a transport can
// send everything destined for the same peer in a tick as a single write
// (the paper's per-message marshalling cost amortized across the tick).
// Batches never nest. Transports unpack batches transparently on receive:
// Conn.Recv hands back the contained messages one at a time.
type Batch struct {
	Msgs []Message
}

// MsgType implements Message.
func (*Batch) MsgType() MsgType { return TypeBatch }

// SnapshotRequest asks a live Matrix server to dump its complete state (its
// own state plus its co-located game server's) as a snapshot blob. Operators
// use it to checkpoint or inspect a running server without stopping it.
type SnapshotRequest struct{}

// MsgType implements Message.
func (*SnapshotRequest) MsgType() MsgType { return TypeSnapshotRequest }

// SnapshotData carries a snapshot blob, chunked so a node whose state
// exceeds MaxFrameSize still dumps cleanly (like StateTransfer, for the
// same reason): the sender streams consecutive Blob chunks and sets Final
// on the last one; the receiver concatenates. The assembled blob's format
// is owned by internal/nodeblob (versioned; see nodeblob.Marshal).
type SnapshotData struct {
	Blob  []byte
	Final bool
}

// MsgType implements Message.
func (*SnapshotData) MsgType() MsgType { return TypeSnapshotData }

// Heartbeat is a server's periodic proof of life to the MC, piggybacking
// its load signals. The MC renews the server's lease on every beat; a
// server that misses enough beats is declared dead and its partition is
// adopted by a warm spare (see internal/coordinator). CheckpointTick counts
// the checkpoints the server has shipped so far, so operators can see how
// stale a crash restore would be.
type Heartbeat struct {
	Server         id.ServerID
	Clients        int32
	QueueLen       int32
	CheckpointTick uint64
}

// MsgType implements Message.
func (*Heartbeat) MsgType() MsgType { return TypeHeartbeat }

// DrainRequest asks the MC to migrate every region owned by Server away via
// the live handoff path. A server sends it for itself on its registered
// connection (operator-initiated drain relayed by the host); the MC also
// sends it server-bound to announce an admin-initiated drain, so the
// drained host knows whether to retire into the spare pool or exit once
// its evacuation completes.
type DrainRequest struct {
	Server id.ServerID
	Exit   bool // exit after draining instead of re-joining the spare pool
	// Corr carries the drain decision's correlation ID (see
	// SplitReply.Corr); zero when unstamped (operator-originated admin
	// frames — the coordinator stamps the copy it forwards).
	Corr uint64
}

// MsgType implements Message.
func (*DrainRequest) MsgType() MsgType { return TypeDrainRequest }

// DrainReply reports a drain decision.
type DrainReply struct {
	Granted bool
	Reason  string // populated when denied
}

// MsgType implements Message.
func (*DrainReply) MsgType() MsgType { return TypeDrainReply }

// Adopt tells a warm spare it is taking over a dead server's partition,
// carrying the victim's last checkpoint blob (chunked like SnapshotData;
// empty on the final chunk when no checkpoint was ever shipped — a cold
// adoption that serves the region with a fresh world). The activating
// RangeUpdate follows the final chunk on the same connection, so the world
// is restored before the bounds arrive.
type Adopt struct {
	Victim id.ServerID
	Bounds geom.Rect
	Blob   []byte
	Final  bool
	// Corr carries the adoption decision's correlation ID (see
	// SplitReply.Corr); zero when unstamped.
	Corr uint64
}

// MsgType implements Message.
func (*Adopt) MsgType() MsgType { return TypeAdopt }

// RegionsToWire converts overlap regions to their wire form.
func RegionsToWire(regions []overlap.Region) []TableRegion {
	out := make([]TableRegion, len(regions))
	for i, r := range regions {
		peers := make([]id.ServerID, len(r.Peers))
		copy(peers, r.Peers)
		out[i] = TableRegion{Bounds: r.Bounds, Peers: peers}
	}
	return out
}

// RegionsFromWire converts wire regions back to overlap regions.
func RegionsFromWire(regions []TableRegion) []overlap.Region {
	out := make([]overlap.Region, len(regions))
	for i, r := range regions {
		out[i] = overlap.Region{Bounds: r.Bounds, Peers: overlap.NewSet(r.Peers...)}
	}
	return out
}
