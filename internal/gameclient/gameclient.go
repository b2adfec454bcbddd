// Package gameclient implements the game-client substrate: the player-side
// state machine that talks to game servers, transparently switches servers
// when redirected (the client "is informed of these switches by its current
// game server and is unaware of Matrix"), and measures the response latency
// the paper's user-study proxy evaluates.
//
// A Client has one owning goroutine and takes no lock; the live host, whose
// receive pump and player share one, locks around it (host.Client).
package gameclient

import (
	"errors"
	"fmt"
	"time"

	"matrix/internal/clock"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/protocol"
)

// ErrNilMessage is what Handle returns for a nil message.
var ErrNilMessage = errors.New("gameclient: nil message")

// Event is what a Handle call tells the host to do next.
type Event uint8

// Event values.
const (
	// EventNone requires no action.
	EventNone Event = iota + 1
	// EventConnected means the welcome arrived; the client is in the game.
	EventConnected
	// EventSwitchServer means the host must reconnect the transport to
	// Client.ServerAddr and re-send Hello (Matrix redirected us).
	EventSwitchServer
	// EventUpdate means a game update was delivered (visible world event).
	EventUpdate
)

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e {
	case EventNone:
		return "none"
	case EventConnected:
		return "connected"
	case EventSwitchServer:
		return "switch-server"
	case EventUpdate:
		return "update"
	default:
		return fmt.Sprintf("event(%d)", uint8(e))
	}
}

// Config tunes a client.
type Config struct {
	// ID is the globally unique callsign.
	ID id.ClientID
	// Pos is the starting position.
	Pos geom.Point
	// Clock stamps outgoing packets (nil = wall clock).
	Clock clock.Clock
}

// Stats is a snapshot of client-side counters.
type Stats struct {
	Sent      uint64
	Received  uint64
	EchoCount uint64
	Switches  uint64
	Welcomes  uint64
}

// Client is one game client; one goroutine owns it (see the package doc).
type Client struct {
	id         id.ClientID
	pos        geom.Point
	clk        clock.Clock
	seq        id.PacketSeq
	connected  bool
	server     id.ServerID
	serverAddr string
	stats      Stats
	latencies  []time.Duration
}

// New creates a client.
func New(cfg Config) (*Client, error) {
	if cfg.ID == 0 {
		return nil, errors.New("gameclient: zero client id")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Wall{}
	}
	return &Client{id: cfg.ID, pos: cfg.Pos, clk: clk}, nil
}

// ID returns the client's callsign.
func (c *Client) ID() id.ClientID { return c.id }

// Pos returns the client's current position.
func (c *Client) Pos() geom.Point { return c.pos }

// Connected reports whether a welcome has been received from the current
// server.
func (c *Client) Connected() bool { return c.connected }

// Server returns the current game server's identity.
func (c *Client) Server() id.ServerID { return c.server }

// ServerAddr returns the address of the server the client should be
// connected to (set by redirects).
func (c *Client) ServerAddr() string { return c.serverAddr }

// Stats returns a snapshot of the counters.
func (c *Client) Stats() Stats { return c.stats }

// Latencies returns a copy of all measured action→echo response latencies
// (the paper's player-experience metric).
func (c *Client) Latencies() []time.Duration { return append([]time.Duration{}, c.latencies...) }

// Disconnect marks the client as not connected (its transport died — e.g.
// the server restarted and reset every connection). The host is expected to
// re-send Hello to rejoin; server identity and address are kept.
func (c *Client) Disconnect() { c.connected = false }

// State is a Client's serializable snapshot.
type State struct {
	ID          id.ClientID
	Pos         geom.Point
	Seq         id.PacketSeq
	Connected   bool
	Server      id.ServerID
	ServerAddr  string
	Stats       Stats
	LatenciesNs []int64
}

// State snapshots the client.
func (c *Client) State() State {
	st := State{
		ID:         c.id,
		Pos:        c.pos,
		Seq:        c.seq,
		Connected:  c.connected,
		Server:     c.server,
		ServerAddr: c.serverAddr,
		Stats:      c.stats,
	}
	st.LatenciesNs = make([]int64, len(c.latencies))
	for i, d := range c.latencies {
		st.LatenciesNs[i] = int64(d)
	}
	return st
}

// NewFromState rebuilds a client from a snapshot; clk stamps packets from
// now on (nil = wall clock).
func NewFromState(st State, clk clock.Clock) (*Client, error) {
	c, err := New(Config{ID: st.ID, Pos: st.Pos, Clock: clk})
	if err != nil {
		return nil, err
	}
	c.seq, c.connected, c.server, c.serverAddr, c.stats = st.Seq, st.Connected, st.Server, st.ServerAddr, st.Stats
	c.latencies = make([]time.Duration, len(st.LatenciesNs))
	for i, ns := range st.LatenciesNs {
		c.latencies[i] = time.Duration(ns)
	}
	return c, nil
}

// Hello builds the join message for the current position.
func (c *Client) Hello() *protocol.ClientHello {
	return &protocol.ClientHello{Client: c.id, Pos: c.pos}
}

// MakeMove builds a movement update to dest, locally adopting the new
// position (the game server remains authoritative on its side).
func (c *Client) MakeMove(dest geom.Point) *protocol.GameUpdate {
	u := c.newUpdate(protocol.KindMove, dest)
	c.pos = dest
	return u
}

// MakeAction builds a non-movement update (shot, interaction) targeted at
// dest.
func (c *Client) MakeAction(kind protocol.UpdateKind, dest geom.Point) *protocol.GameUpdate {
	return c.newUpdate(kind, dest)
}

// newUpdate stamps the next update from the current position to dest.
func (c *Client) newUpdate(kind protocol.UpdateKind, dest geom.Point) *protocol.GameUpdate {
	c.seq++
	c.stats.Sent++
	return &protocol.GameUpdate{
		Client:   c.id,
		Seq:      c.seq,
		Kind:     kind,
		Origin:   c.pos,
		Dest:     dest,
		SentUnix: c.clk.Now().UnixNano(),
	}
}

// Handle processes one message from the server and says what to do next.
func (c *Client) Handle(m protocol.Message) (Event, error) {
	if m == nil {
		return EventNone, ErrNilMessage
	}
	switch msg := m.(type) {
	case *protocol.ClientWelcome:
		c.connected = true
		c.server = msg.Server
		c.stats.Welcomes++
		return EventConnected, nil
	case *protocol.Redirect:
		if msg.Client != c.id {
			return EventNone, fmt.Errorf("gameclient: redirect for %v delivered to %v", msg.Client, c.id)
		}
		c.connected = false
		c.server = msg.NewOwner
		c.serverAddr = msg.NewAddr
		c.stats.Switches++
		return EventSwitchServer, nil
	case *protocol.GameUpdate:
		c.stats.Received++
		if msg.Client == c.id {
			// Echo of our own action: the response-latency sample.
			c.stats.EchoCount++
			lat := c.clk.Now().Sub(time.Unix(0, msg.SentUnix))
			if lat >= 0 {
				c.latencies = append(c.latencies, lat)
			}
		}
		return EventUpdate, nil
	default:
		return EventNone, fmt.Errorf("gameclient: unexpected message %v", m.MsgType())
	}
}
