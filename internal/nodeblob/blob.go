// Package nodeblob is the versioned image of one Matrix server + game server
// pair: what a server ships to the coordinator as its checkpoint, a warm spare
// restores from an Adopt stream, `matrix-server -dump` prints and `-restore`
// loads. It sits below internal/sim in the import graph (internal/snapshot
// imports sim), so a simulated fleet checkpoints and adopts through the codec
// the live one uses.
package nodeblob

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"matrix/internal/core"
	"matrix/internal/gameserver"
	"matrix/internal/protocol"
)

// Version is the blob's format version. Bump it on any incompatible change
// to core.State or gameserver.State.
const Version = 1

// ErrVersion reports a node blob whose format version this build cannot read.
var ErrVersion = errors.New("nodeblob: unsupported blob version")

// ErrOversize reports a checkpoint over protocol.MaxBlobSize, which the
// coordinator and every spare would refuse.
var ErrOversize = errors.New("checkpoint exceeds MaxBlobSize: region is not recoverable")

// Blob is the wire envelope for one server's state.
type Blob struct {
	Version int
	Core    *core.State
	Game    *gameserver.State
}

// Marshal captures one Matrix server + game server pair into a
// deterministic blob. Its caller is the pair's owner, live or simulated, and
// calls it between ticks, so the two sections are one consistent cut.
func Marshal(c *core.Server, g *gameserver.Server) ([]byte, error) {
	cs, err := c.CaptureState()
	if err != nil {
		return nil, err
	}
	gs, err := g.CaptureState()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(Blob{Version: Version, Core: cs, Game: gs}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Checkpoint is Marshal for the blob a server ships to the coordinator: one
// over protocol.MaxBlobSize is refused here, at the sender (ErrOversize),
// instead of being dropped by the receiver every interval for ever.
func Checkpoint(c *core.Server, g *gameserver.Server) ([]byte, error) {
	blob, err := Marshal(c, g)
	if err == nil && len(blob) > protocol.MaxBlobSize {
		return nil, fmt.Errorf("%w (%d bytes)", ErrOversize, len(blob))
	}
	return blob, err
}

// Decode parses a Marshal blob, rejecting unknown versions.
func Decode(blob []byte) (*Blob, error) {
	var n Blob
	if err := json.Unmarshal(blob, &n); err != nil {
		return nil, fmt.Errorf("nodeblob: decode blob: %w", err)
	}
	if n.Version != Version {
		return nil, fmt.Errorf("%w: %d (this build reads %d)", ErrVersion, n.Version, Version)
	}
	if n.Core == nil || n.Game == nil {
		return nil, errors.New("nodeblob: blob incomplete")
	}
	return &n, nil
}

// Restore loads a Marshal blob into a server pair wholesale — both
// components, identity included, so they must carry the ServerID the blob
// was captured from. Only the benchmark's snapshot.restore_node_us probe
// calls it (through snapshot.RestoreNode); an adopter uses RestoreGame.
func Restore(blob []byte, c *core.Server, g *gameserver.Server) error {
	n, err := Decode(blob)
	if err != nil {
		return err
	}
	if err := c.RestoreState(n.Core); err != nil {
		return err
	}
	return g.RestoreState(n.Game)
}

// RestoreGame loads only the game-world state (client avatars and map
// objects) from a Marshal blob into a game server, keeping the server's own
// identity, bounds and traffic counters. This is the crash-recovery semantic,
// live and simulated: the adopter registered with the MC under its own ID
// (topology is always fresh) and takes over the world from the victim's last
// checkpoint; the old queue's packets belong to connections that died with
// the old process, and what the victim had delivered is the victim's count.
func RestoreGame(blob []byte, g *gameserver.Server) error {
	n, err := Decode(blob)
	if err != nil {
		return err
	}
	st := *n.Game
	st.Bounds = g.Bounds()
	st.Inbox = nil
	st.Stats = g.Stats()
	return g.RestoreState(&st)
}
