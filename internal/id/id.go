// Package id defines the strongly-typed identifiers shared by every Matrix
// component: servers, game clients, game objects and packets.
//
// The paper requires game servers to "identify players using globally unique
// IDs (such as callsigns) instead of locally generated IDs" so that players
// can migrate between servers; this package is that global namespace.
package id

import (
	"fmt"
	"sync/atomic"
)

// ServerID identifies one Matrix server / game server pair. The Matrix
// Coordinator allocates ServerIDs; ID 0 is reserved as "none".
type ServerID uint32

// None is the zero ServerID, meaning "no server".
const None ServerID = 0

// String implements fmt.Stringer.
func (s ServerID) String() string {
	if s == None {
		return "server(none)"
	}
	return fmt.Sprintf("server-%d", uint32(s))
}

// Valid reports whether the ID refers to an actual server.
func (s ServerID) Valid() bool { return s != None }

// ClientID is the globally unique identity of a game client (the paper's
// "callsign"). It never changes when the client migrates between servers.
type ClientID uint64

// String implements fmt.Stringer.
func (c ClientID) String() string { return fmt.Sprintf("client-%d", uint64(c)) }

// ObjectID identifies a non-player game object (tree, building, NPC, ...).
type ObjectID uint64

// String implements fmt.Stringer.
func (o ObjectID) String() string { return fmt.Sprintf("object-%d", uint64(o)) }

// PacketSeq is a per-sender monotonically increasing packet sequence number,
// used to measure losses and reorderings in the evaluation harness.
type PacketSeq uint64

// Generator hands out unique identifiers. It is safe for concurrent use and
// its zero value is ready to use (first ID is 1, so the zero value of each
// ID type is never allocated).
type Generator struct {
	server atomic.Uint32
	client atomic.Uint64
	object atomic.Uint64
}

// NextServer returns a fresh ServerID.
func (g *Generator) NextServer() ServerID { return ServerID(g.server.Add(1)) }

// NextClient returns a fresh ClientID.
func (g *Generator) NextClient() ClientID { return ClientID(g.client.Add(1)) }

// GeneratorState is a Generator's serializable snapshot: the last ID handed
// out in each namespace.
type GeneratorState struct {
	Server uint32
	Client uint64
	Object uint64
}

// State snapshots the generator's counters.
func (g *Generator) State() GeneratorState {
	return GeneratorState{
		Server: g.server.Load(),
		Client: g.client.Load(),
		Object: g.object.Load(),
	}
}

// SetState restores previously snapshotted counters, so a restored component
// continues the exact ID sequence of the captured run.
func (g *Generator) SetState(st GeneratorState) {
	g.server.Store(st.Server)
	g.client.Store(st.Client)
	g.object.Store(st.Object)
}
