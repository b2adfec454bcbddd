package snapshot

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/load"
	"matrix/internal/netem"
	"matrix/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot files")

// goldenConfig is a miniature run that still populates every snapshot
// section: netem link state and delayed messages, ghosts, splits and live
// clients, and the health plane's — leases, checkpoint blobs at the
// coordinator, a dead server whose region is parked for want of a spare.
func goldenConfig() sim.Config {
	return sim.Config{
		Profile:                game.Daimonin(), // low rate + short radius keep the golden small
		World:                  geom.R(0, 0, 200, 200),
		Seed:                   42,
		DurationSeconds:        40,
		MaxServers:             2,
		ServiceRatePerTick:     400,
		BasePopulation:         10,
		LoadPolicy:             load.Config{OverloadClients: 40, UnderloadClients: 20},
		CheckpointEverySeconds: 5,
		GhostExpirySeconds:     8,
		Netem:                  netem.Config{Link: netem.LinkConfig{DelayMs: 30, JitterMs: 80, Loss: 0.08}},
		Script: game.Script{
			{At: 3, Kind: game.EventJoin, Count: 50, Center: geom.Pt(150, 50), Spread: 20, Tag: "crowd"},
			{At: 12, Kind: game.EventLeave, Count: 25, Tag: "crowd"},
			{At: 16, Kind: game.EventCrashLose, Servers: []id.ServerID{2}},
			{At: 22, Kind: game.EventRecover},
		},
	}
}

const (
	goldenPath   = "testdata/v2-tiny.snap.json"
	goldenV1Path = "testdata/v1-tiny.snap.json" // the last v1 image, kept to be refused
)

// goldenBytes regenerates the golden snapshot from the deterministic run.
func goldenBytes(t *testing.T) []byte {
	t.Helper()
	s, err := sim.New(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// The victim died at t=16 and its lease ran out at t=19; with both servers
	// active its region stays parked until the script's recover at t=22.
	if err := s.StepUntil(context.Background(), 21); err != nil {
		t.Fatal(err)
	}
	snap, err := Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenV2 is the format gate (CI runs `-run Golden`): the checked-in
// v2 snapshot must decode with the current code, restore into a runnable
// simulation, and re-encode byte-identically. Any State change that breaks
// this must come with a Version bump — never a silent format drift.
func TestGoldenV2(t *testing.T) {
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, goldenBytes(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}

	snap, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("decode v2 golden with current code: %v", err)
	}
	if snap.Version != 2 {
		t.Fatalf("golden version = %d, want 2", snap.Version)
	}
	if dead, _ := marked(snap.Sim); dead != 1 || len(snap.Sim.Coordinator.Parked) != 1 || len(snap.Sim.Coordinator.Checkpoints) == 0 {
		t.Errorf("golden holds %d dead servers, %d parked regions, %d checkpoint blobs; want the health plane's sections populated",
			dead, len(snap.Sim.Coordinator.Parked), len(snap.Sim.Coordinator.Checkpoints))
	}

	// Re-encode: byte-identical, or the format drifted without a bump.
	out, err := Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(out), bytes.TrimSpace(data)) {
		t.Error("golden snapshot does not re-encode byte-identically: the format drifted — bump snapshot.Version and add a new golden")
	}

	// Restore: the snapshot must produce a runnable simulation.
	if fp := finished(t, snap, sim.RestoreOptions{}); fp == "" {
		t.Error("restored golden produced an empty fingerprint")
	}
}

// TestGoldenV1: a v1 image is refused with ErrVersion, loudly — from bytes and
// from a file, naming both versions. It is not shimmed: a v1 image carries the
// simulator's private per-server checkpoints, which the coordinator never saw,
// and from v2 on a dead server's region heals from the blobs the coordinator
// holds (see the package comment).
func TestGoldenV1(t *testing.T) {
	data, err := os.ReadFile(goldenV1Path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Unmarshal(data)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("decoding the v1 golden: err = %v, want ErrVersion", err)
	}
	if msg := err.Error(); !bytes.Contains([]byte(msg), []byte(": 1 (this build reads 2)")) {
		t.Errorf("refusal %q does not name the image's version and the build's", msg)
	}
	if _, err := ReadFile(goldenV1Path); !errors.Is(err, ErrVersion) {
		t.Errorf("ReadFile of the v1 golden: err = %v, want ErrVersion", err)
	}
	// A caller that builds the envelope by hand gets the same answer at Restore.
	if _, err := Restore(&Snapshot{Version: 1, Sim: &sim.State{}}); !errors.Is(err, ErrVersion) {
		t.Errorf("Restore of a v1 envelope: err = %v, want ErrVersion", err)
	}
}

// TestGoldenMatchesCurrentCapture pins capture determinism end to end: the
// same deterministic run captured by the current code must byte-match the
// checked-in golden. This fails when capture order or field contents change
// — the moment to decide between fixing the regression and bumping Version.
func TestGoldenMatchesCurrentCapture(t *testing.T) {
	if *update {
		t.Skip("golden being rewritten")
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	got := goldenBytes(t)
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Error("current capture of the golden run differs from the checked-in golden (regenerate with -update if intentional, and bump Version if the format changed)")
	}
}
