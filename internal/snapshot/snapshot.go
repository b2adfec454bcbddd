// Package snapshot is the versioned, deterministic serialization layer for
// complete simulation state: Capture freezes a running sim.Sim into a
// Snapshot, Encode/Decode move snapshots through files or wires, and
// Restore rebuilds a simulation that continues byte-identically to the
// captured run (the Result.Fingerprint contract).
//
// The format is versioned JSON: a Snapshot envelope carrying the format
// version around sim.State, whose collections are all deterministically
// ordered slices — encoding the same state twice is byte-identical, the
// property the golden-file tests pin. Version bumps accompany any
// incompatible State change; Decode rejects versions it does not know, and
// the checked-in testdata goldens guarantee old snapshots keep decoding.
//
// Two consumers build on it (the simulator's own state-losing crash
// recovery does not: it keeps per-server core/gameserver States in memory
// and calls their RestoreState directly):
//
//   - branching sweeps (internal/experiments) run a shared warmup once,
//     Capture, and fan scenario tails out via sim.RestoreWith;
//   - the CLI surface: matrix-bench -snapshot/-restore files, and the
//     protocol's SnapshotRequest/SnapshotData frames, which carry a live
//     matrix-server's node state as a MarshalNode blob.
package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"matrix/internal/core"
	"matrix/internal/gameserver"
	"matrix/internal/sim"
)

// Version is the current snapshot format version. Bump it on any
// incompatible change to sim.State or the component states it embeds, and
// add a decoder shim plus a testdata golden for the old version.
const Version = 1

// ErrVersion reports a snapshot whose format version this build cannot read.
var ErrVersion = errors.New("snapshot: unsupported format version")

// Snapshot is the versioned envelope around a complete simulation state.
type Snapshot struct {
	Version int
	Sim     *sim.State
}

// Capture freezes a running simulation (between two ticks, or after Done)
// into a Snapshot. The snapshot shares no mutable memory with the sim.
func Capture(s *sim.Sim) (*Snapshot, error) {
	st, err := s.CaptureState()
	if err != nil {
		return nil, err
	}
	return &Snapshot{Version: Version, Sim: st}, nil
}

// Restore rebuilds a simulation that continues the captured run
// byte-identically. The snapshot is not consumed: one snapshot may seed any
// number of restores.
func Restore(snap *Snapshot) (*sim.Sim, error) {
	if err := check(snap); err != nil {
		return nil, err
	}
	return sim.Restore(snap.Sim)
}

// RestoreWith rebuilds a simulation with a replaced script tail and/or run
// length — the branching-sweep primitive (see sim.RestoreOptions).
func RestoreWith(snap *Snapshot, opts sim.RestoreOptions) (*sim.Sim, error) {
	if err := check(snap); err != nil {
		return nil, err
	}
	return sim.RestoreWith(snap.Sim, opts)
}

func check(snap *Snapshot) error {
	if snap == nil || snap.Sim == nil {
		return errors.New("snapshot: empty snapshot")
	}
	if snap.Version != Version {
		return fmt.Errorf("%w: %d (this build reads %d)", ErrVersion, snap.Version, Version)
	}
	return nil
}

// Encode writes the snapshot. The output is deterministic: encoding the
// same snapshot twice produces byte-identical bytes.
func Encode(w io.Writer, snap *Snapshot) error {
	enc := json.NewEncoder(w)
	return enc.Encode(snap)
}

// Marshal renders the snapshot to deterministic bytes.
func Marshal(snap *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode reads one snapshot, rejecting unknown format versions.
func Decode(r io.Reader) (*Snapshot, error) {
	dec := json.NewDecoder(r)
	var snap Snapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	if snap.Version != Version {
		return nil, fmt.Errorf("%w: %d (this build reads %d)", ErrVersion, snap.Version, Version)
	}
	if snap.Sim == nil {
		return nil, errors.New("snapshot: no simulation state")
	}
	return &snap, nil
}

// Unmarshal parses snapshot bytes.
func Unmarshal(data []byte) (*Snapshot, error) {
	return Decode(bytes.NewReader(data))
}

// WriteFile captures nothing itself — it persists an existing snapshot.
func WriteFile(path string, snap *Snapshot) error {
	data, err := Marshal(snap)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile loads a snapshot from disk.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}

// Node is the wire envelope for one live server's state: what a
// matrix-server returns for a protocol SnapshotRequest and accepts at boot
// via -restore. It shares the simulation snapshot's versioning.
type Node struct {
	Version int
	Core    *core.State
	Game    *gameserver.State
}

// MarshalNode captures one Matrix server + game server pair into a
// deterministic blob. The two components are captured sequentially under
// their own locks, so on a *live* node the Core and Game sections can
// straddle an in-flight topology change or migration (the simulator's
// checkpoints are immune — it captures between ticks). Each section is
// internally consistent, and the live restore path (RestoreNodeGame)
// consumes only the Game section, so the skew is observable only to
// tooling that correlates the two sections of a busy node's dump.
func MarshalNode(c *core.Server, g *gameserver.Server) ([]byte, error) {
	cs, err := c.CaptureState()
	if err != nil {
		return nil, err
	}
	gs, err := g.CaptureState()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(Node{Version: Version, Core: cs, Game: gs}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeNode parses a MarshalNode blob, rejecting unknown versions.
func DecodeNode(blob []byte) (*Node, error) {
	var n Node
	if err := json.Unmarshal(blob, &n); err != nil {
		return nil, fmt.Errorf("snapshot: decode node: %w", err)
	}
	if n.Version != Version {
		return nil, fmt.Errorf("%w: %d (this build reads %d)", ErrVersion, n.Version, Version)
	}
	if n.Core == nil || n.Game == nil {
		return nil, errors.New("snapshot: node blob incomplete")
	}
	return &n, nil
}

// RestoreNode loads a MarshalNode blob into a server pair wholesale — both
// components, identity included. The components must carry the same
// ServerID the blob was captured from. Its only caller is the benchmark's
// snapshot.restore_node_us probe (benchmark/probes.go): a live host that
// re-registered under a fresh ID uses RestoreNodeGame, and the simulator
// restores its in-memory checkpoints with RestoreState.
func RestoreNode(blob []byte, c *core.Server, g *gameserver.Server) error {
	n, err := DecodeNode(blob)
	if err != nil {
		return err
	}
	if err := c.RestoreState(n.Core); err != nil {
		return err
	}
	return g.RestoreState(n.Game)
}

// RestoreNodeGame loads only the game-world state (client avatars and map
// objects) from a MarshalNode blob into a live game server, keeping the
// server's current identity, bounds and receive queue. This is the live
// crash-recovery semantic: a restarted matrix-server re-registers with the
// MC (topology is always fresh) and re-adopts the world from its last
// checkpoint; the old queue's packets belong to connections that died with
// the old process.
func RestoreNodeGame(blob []byte, g *gameserver.Server) error {
	n, err := DecodeNode(blob)
	if err != nil {
		return err
	}
	st := *n.Game
	st.Bounds = g.Bounds()
	st.Inbox = nil
	return g.RestoreState(&st)
}
