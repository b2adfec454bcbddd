package sim

import (
	"strings"
	"testing"

	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/netem"
)

// ghostConfig drops every data-plane packet, so the scripted leave's
// despawns are all lost and every leaver becomes a ghost.
func ghostConfig(expiry float64) Config {
	return Config{
		Profile:            game.Bzflag(),
		World:              geom.R(0, 0, 300, 300),
		Seed:               5,
		DurationSeconds:    40,
		MaxServers:         1,
		ServiceRatePerTick: 500,
		BasePopulation:     10,
		GhostExpirySeconds: expiry,
		Netem:              netem.Config{Link: netem.LinkConfig{Loss: 1.0}},
		Script: game.Script{
			{At: 2, Kind: game.EventJoin, Count: 15, Center: geom.Pt(150, 150), Spread: 40, Tag: "crowd"},
			{At: 10, Kind: game.EventLeave, Count: 15, Tag: "crowd"},
		},
	}
}

// TestGhostClientsExpire pins the ghost fix: clients whose despawn the
// network lost are culled after the idle timeout, the server's population
// returns to truth, and the cull counter joins the fingerprint.
func TestGhostClientsExpire(t *testing.T) {
	t.Parallel()
	s, err := New(ghostConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Hellos are control-plane (never randomly lost), so everyone joins;
	// at t=10 the crowd leaves but every despawn is eaten by the loss
	// model. Just after the leave the server still holds the ghosts.
	for !s.Done() && s.Now() < 12 {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	gs := s.nodes[0].Game
	if got := gs.ClientCount(); got != 25 {
		t.Fatalf("before expiry: server holds %d clients, want 25 (10 base + 15 ghosts)", got)
	}
	res, err := func() (*Result, error) {
		for !s.Done() {
			if err := s.Step(); err != nil {
				return nil, err
			}
		}
		return s.Finish(), nil
	}()
	if err != nil {
		t.Fatal(err)
	}
	if got := gs.ClientCount(); got != 10 {
		t.Errorf("after expiry: server holds %d clients, want 10 (ghosts culled)", got)
	}
	if res.GhostsExpired != 15 {
		t.Errorf("GhostsExpired = %d, want 15", res.GhostsExpired)
	}
	if !strings.Contains(res.Fingerprint(), "ghosts=15") {
		t.Error("ghost counter missing from the fingerprint of a netem run")
	}
}

// TestGhostExpiryDisabled keeps the pre-fix behavior available: a negative
// timeout leaves ghosts in place (the documented observable consequence).
func TestGhostExpiryDisabled(t *testing.T) {
	t.Parallel()
	s, err := New(ghostConfig(-1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	gs := s.nodes[0].Game
	if got := gs.ClientCount(); got != 25 {
		t.Errorf("with expiry disabled: server holds %d clients, want 25 (ghosts retained)", got)
	}
	if res.GhostsExpired != 0 {
		t.Errorf("GhostsExpired = %d, want 0", res.GhostsExpired)
	}
}
