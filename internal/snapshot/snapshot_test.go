package snapshot

import (
	"bytes"
	"strings"
	"testing"

	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/netem"
	"matrix/internal/sim"
)

// tinyConfig is a fast, fully featured run: netem (loss + reordering
// jitter), a crowd that forces splits, lost despawns (ghosts), periodic
// checkpoints and a state-losing crash — every snapshot field gets
// exercised in a few hundred ticks.
func tinyConfig(seed int64) sim.Config {
	return sim.Config{
		Profile:                game.Bzflag(),
		World:                  geom.R(0, 0, 400, 400),
		Seed:                   seed,
		DurationSeconds:        60,
		MaxServers:             4,
		ServiceRatePerTick:     150,
		BasePopulation:         40,
		CheckpointEverySeconds: 5,
		GhostExpirySeconds:     10,
		Netem:                  netem.Config{Link: netem.LinkConfig{DelayMs: 30, JitterMs: 150, Loss: 0.05}},
		Script: game.Script{
			{At: 4, Kind: game.EventJoin, Count: 320, Center: geom.Pt(300, 100), Spread: 30, Tag: "crowd"},
			{At: 18, Kind: game.EventLeave, Count: 120, Tag: "crowd"},
			{At: 24, Kind: game.EventCrashLose, Servers: []id.ServerID{2}},
			{At: 32, Kind: game.EventRecover},
			{At: 45, Kind: game.EventLeave, Count: 100, Tag: "crowd"},
		},
	}
}

// runTo steps a started sim until the next tick would reach t.
func runTo(t *testing.T, s *sim.Sim, until float64) {
	t.Helper()
	for !s.Done() && s.NextTime() < until {
		if err := s.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
}

// finishRun drives a sim to completion and returns its fingerprint.
func finishRun(t *testing.T, s *sim.Sim) string {
	t.Helper()
	for !s.Done() {
		if err := s.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	return s.Finish().Fingerprint()
}

// TestCaptureRestoreCaptureByteStable pins the determinism of the format
// itself: capturing, restoring and capturing again must produce
// byte-identical snapshots — across several seeds and capture points, with
// and without a latency window (opened at t=2, before the t=4 crowd joins, so
// its skip list must cover exactly the base population).
func TestCaptureRestoreCaptureByteStable(t *testing.T) {
	t.Parallel()
	seeds := []int64{1, 7, 23}
	ats := []float64{10, 30}
	if testing.Short() {
		seeds = seeds[:1]
		ats = ats[1:]
	}
	type point struct{ at, window float64 }
	var points []point
	for _, at := range ats {
		points = append(points, point{at, 0}, point{at, 2})
	}
	for _, seed := range seeds {
		for _, p := range points {
			at := p.at
			cfg := tinyConfig(seed)
			cfg.LatencyIgnoreBeforeSeconds = p.window
			s, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			runTo(t, s, at)

			snap, err := Capture(s)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			first, err := Marshal(snap)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			decoded, err := Unmarshal(first)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			restored, err := Restore(decoded)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			again, err := Capture(restored)
			if err != nil {
				t.Fatalf("recapture: %v", err)
			}
			second, err := Marshal(again)
			if err != nil {
				t.Fatalf("remarshal: %v", err)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("seed %d t=%g window=%g: capture→restore→capture is not byte-stable (%d vs %d bytes)", seed, at, p.window, len(first), len(second))
			}

			// The skip list names the clients that existed when the window
			// opened — ascending, zero skips included — and nobody who joined
			// later; with no window there is no list.
			want := 0
			if p.window > 0 {
				want = cfg.BasePopulation
			}
			skips := again.Sim.LatSkip
			if len(skips) != want {
				t.Fatalf("seed %d t=%g window=%g: LatSkip has %d entries, want %d", seed, at, p.window, len(skips), want)
			}
			for i, sk := range skips {
				if sk.Client != id.ClientID(i+1) {
					t.Fatalf("seed %d t=%g: LatSkip[%d] is client %v, want %d", seed, at, i, sk.Client, i+1)
				}
			}
		}
	}
}

// TestRestoredRunContinuesIdentically is the tentpole contract on the tiny
// workload: snapshot mid-run, restore from the serialized bytes, finish —
// the fingerprint must match the uninterrupted run byte for byte. The
// scenario-table version of this test lives in equivalence_test.go.
func TestRestoredRunContinuesIdentically(t *testing.T) {
	t.Parallel()
	cfg := tinyConfig(7)

	cold, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Start(); err != nil {
		t.Fatal(err)
	}
	want := finishRun(t, cold)

	warm, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Start(); err != nil {
		t.Fatal(err)
	}
	runTo(t, warm, 28) // mid-crash: the crashed server and its checkpoint are in flight
	snap, err := Capture(warm)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(decoded)
	if err != nil {
		t.Fatal(err)
	}
	got := finishRun(t, restored)
	if got != want {
		t.Errorf("restored run diverged from uninterrupted run:\ncold:\n%s\nrestored:\n%s", want, got)
	}

	// The original may keep running too — capture must not disturb it.
	if got := finishRun(t, warm); got != want {
		t.Errorf("captured run diverged after capture:\n%s\nwant:\n%s", got, want)
	}
}

// TestRestoreWithScriptTail exercises the branching primitive: a warmup
// without impairment fans into tails whose scripts diverge after the
// snapshot point, and each tail matches its cold-start equivalent.
func TestRestoreWithScriptTail(t *testing.T) {
	t.Parallel()
	base := tinyConfig(11)
	base.Netem = netem.Config{}
	prefix := game.Script{
		{At: 4, Kind: game.EventJoin, Count: 320, Center: geom.Pt(300, 100), Spread: 30, Tag: "crowd"},
	}
	base.Script = prefix
	const cut = 20.0

	tails := []game.Script{
		append(append(game.Script{}, prefix...), game.Event{At: 25, Kind: game.EventLeave, Count: 200, Tag: "crowd"}),
		append(append(game.Script{}, prefix...),
			game.Event{At: 22, Kind: game.EventImpair, Impair: netem.LinkConfig{DelayMs: 50, JitterMs: 200, Loss: 0.03}},
			game.Event{At: 40, Kind: game.EventImpair}),
	}

	warm, err := sim.New(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Start(); err != nil {
		t.Fatal(err)
	}
	runTo(t, warm, cut)
	snap, err := Capture(warm)
	if err != nil {
		t.Fatal(err)
	}

	for i, tail := range tails {
		cfg := base
		cfg.Script = tail
		cold, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.Start(); err != nil {
			t.Fatal(err)
		}
		want := finishRun(t, cold)

		branched, err := RestoreWith(snap, sim.RestoreOptions{Script: tail})
		if err != nil {
			t.Fatalf("tail %d: %v", i, err)
		}
		if got := finishRun(t, branched); got != want {
			t.Errorf("tail %d: branched run diverged from cold start:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestRestoreWithValidation rejects tails that rewrite executed history or
// end before the snapshot point.
func TestRestoreWithValidation(t *testing.T) {
	t.Parallel()
	cfg := tinyConfig(3)
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	runTo(t, s, 20)
	snap, err := Capture(s)
	if err != nil {
		t.Fatal(err)
	}

	bad := append(game.Script{}, cfg.Script...)
	bad[0].Count = 999 // rewrites an event already executed at t=4
	if _, err := RestoreWith(snap, sim.RestoreOptions{Script: bad}); err == nil {
		t.Error("rewriting an executed event should fail")
	}
	if _, err := RestoreWith(snap, sim.RestoreOptions{DurationSeconds: 5}); err == nil {
		t.Error("duration before the snapshot point should fail")
	}
	if _, err := RestoreWith(snap, sim.RestoreOptions{DurationSeconds: 90}); err != nil {
		t.Errorf("extending the duration should work: %v", err)
	}
}

// TestVersionRejected pins the version gate.
func TestVersionRejected(t *testing.T) {
	t.Parallel()
	data := []byte(`{"Version":99,"Sim":{}}`)
	if _, err := Unmarshal(data); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("unknown version should be rejected, got %v", err)
	}
}
