package sim

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"matrix/internal/flight"
	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/id"
)

// healConfig is a quiet world — twenty clients, nothing splits — on a fleet
// of `servers` that checkpoints every chk seconds: server 1 owns the world and
// carries every client, the rest are warm spares.
func healConfig(servers int, chk float64, script ...game.Event) Config {
	return Config{
		Profile:                game.Bzflag(),
		World:                  geom.R(0, 0, 1000, 1000),
		Seed:                   11,
		DurationSeconds:        40,
		MaxServers:             servers,
		BasePopulation:         20,
		CheckpointEverySeconds: chk,
		GhostExpirySeconds:     5,
		Script:                 script,
	}
}

func lose(at float64, sid id.ServerID) game.Event {
	return game.Event{At: at, Kind: game.EventCrashLose, Servers: []id.ServerID{sid}}
}

// adoption is one completed adoption as the flight recorder audited it.
type adoption struct {
	at             float64
	victim, by     id.ServerID
	bytes, clients float64
}

// TestStateLosingCrashHealsThroughTheLeasePlane is the scripted table of what
// a checkpointing run's crash events mean now that the coordinator's health
// plane is the only thing that heals them. A server killed at t=C beat last
// at C-1, so three missed beats put its death — and the adoption, when a
// spare is free — at C+3.
func TestStateLosingCrashHealsThroughTheLeasePlane(t *testing.T) {
	for _, row := range []struct {
		name    string
		cfg     Config
		adopted []adoption // bytes and clients: 1 = some, 0 = none
		owner   id.ServerID
		spares  int
		deaths  int
	}{
		{
			name:    "spare free: adopted one lease later, from the last blob",
			cfg:     healConfig(2, 2, lose(7, 1)),
			adopted: []adoption{{at: 10, victim: 1, by: 2, bytes: 1, clients: 1}},
			owner:   2, deaths: 1,
		},
		{
			name: "no spare: parked until the recover registers a fresh server, which adopts on the spot",
			cfg: healConfig(1, 2, lose(7, 1),
				game.Event{At: 20.05, Kind: game.EventRecover}), // mid-tick: 20 itself is not on the float grid
			adopted: []adoption{{at: 20, victim: 1, by: 2, bytes: 1, clients: 1}},
			owner:   2, deaths: 1,
		},
		{
			name:    "nothing shipped yet: the coordinator's cold adoption, the region starts empty",
			cfg:     healConfig(2, 100, lose(7, 1)),
			adopted: []adoption{{at: 10, victim: 1, by: 2}},
			owner:   2, deaths: 1,
		},
		{
			// The checkpoint of t=10 is all there is: the first adopter dies at
			// t=17, before the t=20 upload that would have been its first.
			name: "victim, then its adopter inside one checkpoint period: the second adopter gets the original world",
			cfg:  healConfig(3, 10, lose(12, 1), lose(17, 2)),
			adopted: []adoption{
				{at: 15, victim: 1, by: 2, bytes: 1, clients: 1},
				{at: 20, victim: 2, by: 3, bytes: 1, clients: 1},
			},
			owner: 3, deaths: 2,
		},
		{
			// A pausing crash in a checkpointing run is production's zombie:
			// silent past its lease it is replaced, and its first beat after
			// the recover takes handleHeartbeat's demote-and-resync branch —
			// back in the pool, its clients handed to the adopter.
			name: "paused, not dead: replaced as a zombie, demoted to the pool when it beats again",
			cfg: healConfig(2, 2,
				game.Event{At: 7, Kind: game.EventCrash, Servers: []id.ServerID{1}},
				game.Event{At: 20, Kind: game.EventRecover}),
			adopted: []adoption{{at: 10, victim: 1, by: 2, bytes: 1, clients: 1}},
			owner:   2, spares: 1, deaths: 1,
		},
		{
			name: "a recover that names a server already replaced starts nothing",
			cfg: healConfig(2, 2, lose(7, 1),
				game.Event{At: 20, Kind: game.EventRecover},
				game.Event{At: 25, Kind: game.EventRecover, Servers: []id.ServerID{1}}),
			adopted: []adoption{{at: 10, victim: 1, by: 2, bytes: 1, clients: 1}},
			owner:   2, spares: 1, deaths: 1,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			s := mustNew(t, row.cfg)
			rec := flight.New()
			s.SetRecorder(rec)
			res, err := s.Run()
			must(t, err)

			var got []adoption
			for _, d := range rec.Decisions() {
				if d.Kind != "adopt" {
					continue
				}
				a := adoption{at: d.Time, victim: id.ServerID(d.Server), by: id.ServerID(d.Child)}
				for _, kv := range d.Inputs {
					switch kv.Key {
					case "checkpoint-bytes":
						a.bytes = math.Min(kv.Val, 1)
					case "clients":
						a.clients = math.Min(kv.Val, 1)
					}
				}
				got = append(got, a)
			}
			if !slices.Equal(got, row.adopted) || int(res.Restarts) != len(row.adopted) {
				t.Errorf("adoptions = %+v (restarts=%d), want %+v", got, res.Restarts, row.adopted)
			}
			mc := s.MC()
			if mc.Deaths() != row.deaths || mc.Adoptions() != len(row.adopted) || len(mc.Parked()) != 0 || mc.SpareCount() != row.spares {
				t.Errorf("coordinator: deaths=%d adoptions=%d parked=%v spares=%d, want %d/%d/none/%d",
					mc.Deaths(), mc.Adoptions(), mc.Parked(), mc.SpareCount(), row.deaths, len(row.adopted), row.spares)
			}
			if got := mc.ActiveServers(); !slices.Equal(got, []id.ServerID{row.owner}) || res.FinalServers != 1 {
				t.Errorf("active servers = %v (final=%d), want only %v", got, res.FinalServers, row.owner)
			}
			// Healed means healed for the players too: everyone is back in the
			// game on the one server that owns the world.
			for _, sc := range s.clients {
				if sc.alive && (!sc.cl.Connected() || sc.assigned != row.owner) {
					t.Fatalf("client %v ends connected=%v on %v, want connected on %v", sc.cl.ID(), sc.cl.Connected(), sc.assigned, row.owner)
				}
			}
			if res.RecoveryGap.Count() == 0 && row.spares == 0 {
				t.Error("a process died and no client measured a recovery gap")
			}
		})
	}
}

// TestCrashLoseNeedsTheHealthPlane: without checkpointing there are no
// leases, so nothing would ever notice the death; New says so.
func TestCrashLoseNeedsTheHealthPlane(t *testing.T) {
	cfg := healConfig(2, 0, lose(7, 1))
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "CheckpointEverySeconds") {
		t.Errorf("New with a crash-lose event and no checkpointing: err = %v, want it refused by name", err)
	}
	// The same holds for a script tail grafted on at restore.
	cfg.Script = nil
	s := mustNew(t, cfg)
	must(t, s.Start())
	must(t, s.StepUntil(context.Background(), 5))
	st, err := s.CaptureState()
	must(t, err)
	if _, err := RestoreWith(st, RestoreOptions{Script: game.Script{lose(7, 1)}}); err == nil {
		t.Error("RestoreWith grafted a crash-lose tail onto a run that does not checkpoint")
	}
}

// TestHealthPlaneIsInvisibleToAHealthyRun: leases renewed and checkpoints
// shipped every period change nothing a fingerprint sees — a checkpointing
// run of the clean fixture ends where the plain one does.
func TestHealthPlaneIsInvisibleToAHealthyRun(t *testing.T) {
	cfg := clean.ref(t).cfg
	cfg.CheckpointEverySeconds = 0.5 // off the beat grid: 5 ticks against 10
	s := mustNew(t, cfg)
	res, err := s.Run()
	must(t, err)
	if res.Fingerprint() != clean.want {
		t.Error("a healthy run's fingerprint moved when leases and checkpoint uploads were switched on")
	}
	if st := s.MC().CaptureState(); len(st.Checkpoints) == 0 || st.Servers[0].Beats == 0 || st.Deaths != 0 {
		t.Errorf("coordinator saw %d checkpoint blobs, %d beats from the root, %d deaths; want the plane to have run, quietly",
			len(st.Checkpoints), st.Servers[0].Beats, st.Deaths)
	}
}
