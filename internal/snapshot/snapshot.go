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
// incompatible State change; Decode rejects versions it does not know
// (ErrVersion) and the testdata golden pins the current one. Version 1 is
// refused, not shimmed: its images hold the simulator's private per-server
// checkpoints, which the coordinator never saw, and since version 2 a crash
// heals from the blobs the coordinator holds (State.Coordinator.Checkpoints,
// internal/nodeblob's) — there is nothing faithful to convert one into.
//
// Two consumers build on it:
//
//   - branching sweeps (internal/experiments) run a shared warmup once,
//     Capture, and fan scenario tails out via sim.RestoreWith;
//   - the CLI surface: matrix-bench -snapshot/-restore files.
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
	"matrix/internal/nodeblob"
	"matrix/internal/sim"
)

// Version is the current snapshot format version. Bump it on any
// incompatible change to sim.State or the component states it embeds, and
// regenerate the testdata golden (plus a decoder shim when the old version's
// images can be converted faithfully).
const Version = 2

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

// MarshalNode and RestoreNode are internal/nodeblob's Marshal and Restore
// under the names the frozen benchmark/probes.go calls; nothing else does.
func MarshalNode(c *core.Server, g *gameserver.Server) ([]byte, error) { return nodeblob.Marshal(c, g) }

func RestoreNode(blob []byte, c *core.Server, g *gameserver.Server) error {
	return nodeblob.Restore(blob, c, g)
}
