package sim

import (
	"testing"

	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/id"
)

// stepTestConfig is a small hotspot run that still splits and reclaims, with
// a service rate low enough that the crowd saturates its server's queue:
// processing order then feeds back into state, so an ordering bug anywhere in
// the pipeline moves the fingerprint within seconds (a quiet run hides it).
func stepTestConfig(seed int64) Config {
	return Config{
		Profile:            game.Bzflag(),
		World:              geom.R(0, 0, 1000, 1000),
		Seed:               seed,
		DurationSeconds:    30,
		MaxServers:         4,
		ServiceRatePerTick: 60,
		BasePopulation:     30,
		Script: game.Script{
			{At: 5, Kind: game.EventJoin, Count: 150, Center: geom.Pt(750, 250), Spread: 80, Tag: "hot"},
			{At: 20, Kind: game.EventLeave, Count: 150, Tag: "hot"},
		},
		LoadPolicy: smallPolicy(),
	}
}

// TestStepOrdering checks the primitive misuse errors.
func TestStepOrdering(t *testing.T) {
	s := mustNew(t, stepTestConfig(1))
	if err := s.Step(); err == nil {
		t.Error("Step before Start must fail")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Error("second Start must fail")
	}
	for !s.Done() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Step(); err == nil {
		t.Error("Step after Done must fail")
	}
}

// TestNowAdvances checks the virtual-time accessor pooled runners use for
// progress and partial-run inspection.
func TestNowAdvances(t *testing.T) {
	cfg := stepTestConfig(1)
	cfg.DurationSeconds = 2
	s := mustNew(t, cfg)
	if s.Done() {
		t.Fatal("Done before Start")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var last float64 = -1
	for !s.Done() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if s.Now() < last {
			t.Fatalf("Now went backwards: %v after %v", s.Now(), last)
		}
		last = s.Now()
	}
	if last != 2.0 {
		t.Errorf("final Now = %v, want 2.0", last)
	}
}

func mustNew(t *testing.T, cfg Config) *Sim {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestClientsAscendingByID pins the invariant every per-tick client walk
// leans on instead of sorting: s.clients is strictly ascending by ID (client
// c at index c-1) after joins and a capture→restore, and after leaves — a
// departed client keeps its slot — and the by-ID lookup agrees with it.
func TestClientsAscendingByID(t *testing.T) {
	check := func(when string, s *Sim) {
		t.Helper()
		if len(s.clients) != 180 { // 30 base + 150 "hot", departed or not
			t.Fatalf("%s: %d client records, want 180", when, len(s.clients))
		}
		for i, sc := range s.clients {
			if sc.cl.ID() != id.ClientID(i+1) {
				t.Fatalf("%s: clients[%d] has ID %v, want %d", when, i, sc.cl.ID(), i+1)
			}
			if s.client(sc.cl.ID()) != sc {
				t.Fatalf("%s: lookup of %v returns another record", when, sc.cl.ID())
			}
		}
		if s.client(0) != nil || s.client(181) != nil {
			t.Errorf("%s: lookup invents clients outside 1..180", when)
		}
	}
	// The clean fixture was captured with the crowd in and finished with
	// it gone.
	st := clean.ref(t).captureAt(t, 0) // a private copy of clean.mid: this test scrambles it
	check("after the join wave", restored(t, st, RestoreOptions{}))
	check("after the leave wave", clean.sim)
	alive := 0
	for _, sc := range clean.sim.clients {
		if sc.alive {
			alive++
		}
	}
	if alive != 30 {
		t.Errorf("%d clients alive after the leave wave, want the 30 base clients", alive)
	}

	// An image whose clients are not the generator's 1..n in order cannot
	// be indexed by ID and must be refused, not silently mis-indexed.
	st.Clients[0], st.Clients[1] = st.Clients[1], st.Clients[0]
	if _, err := Restore(st); err == nil {
		t.Error("Restore accepted out-of-order clients")
	}
	st.Clients[0], st.Clients[1] = st.Clients[1], st.Clients[0]
	st.Clients = st.Clients[:len(st.Clients)-1]
	if _, err := Restore(st); err == nil {
		t.Error("Restore accepted fewer clients than the generator issued")
	}
}
