package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/id"
)

// stepTestConfig is a small hotspot run that still splits, so the step
// primitives are exercised across a topology change.
func stepTestConfig(seed int64) Config {
	return Config{
		Profile:         game.Bzflag(),
		World:           geom.R(0, 0, 1000, 1000),
		Seed:            seed,
		DurationSeconds: 30,
		MaxServers:      4,
		BasePopulation:  30,
		Script: game.Script{
			{At: 5, Kind: game.EventJoin, Count: 150, Center: geom.Pt(750, 250), Spread: 80, Tag: "hot"},
			{At: 20, Kind: game.EventLeave, Count: 150, Tag: "hot"},
		},
		LoadPolicy: smallPolicy(),
	}
}

// TestStepPrimitivesMatchRun drives one sim with Run and an identical one
// with the exported Start/Step/Done/Finish loop: the results must be
// byte-identical (Run is a thin wrapper, not a second code path).
func TestStepPrimitivesMatchRun(t *testing.T) {
	ran, err := mustNew(t, stepTestConfig(17)).Run()
	if err != nil {
		t.Fatal(err)
	}

	s := mustNew(t, stepTestConfig(17))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !s.Done() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	stepped := s.Finish()

	// 30s at the default 0.1s tick = 301 steps (both endpoints simulated).
	if steps != 301 {
		t.Errorf("steps = %d, want 301", steps)
	}
	if got, want := stepped.Fingerprint(), ran.Fingerprint(); got != want {
		t.Errorf("stepped result differs from Run result:\n--- stepped\n%s\n--- run\n%s", got, want)
	}
	// Finish is memoized: repeat calls must not re-aggregate (double
	// counting) — they return the same Result.
	if s.Finish() != stepped {
		t.Error("second Finish returned a different Result")
	}
}

// TestStepUntil pins the one stepping loop against the hand-written loop
// the sweep engine's warmups used to carry (Step while !Done and NextTime
// < t): on the continuation matrix's scenarios it stops on the same tick —
// the first one at or after t, so every event with At >= t is still ahead
// — and capture → restore → StepUntil(+Inf) → Finish there equals the
// uninterrupted run. A cancelled context stops it before any Step.
func TestStepUntil(t *testing.T) {
	ctx := context.Background()
	for name, cfg := range engineScenarios() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := mustNew(t, cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			// 12.34 falls between two ticks, 15 exactly on one.
			for _, until := range []float64{12.34, 15} {
				ref := mustNew(t, cfg)
				if err := ref.Start(); err != nil {
					t.Fatal(err)
				}
				for !ref.Done() && ref.NextTime() < until {
					if err := ref.Step(); err != nil {
						t.Fatal(err)
					}
				}

				s := mustNew(t, cfg)
				if err := s.Start(); err != nil {
					t.Fatal(err)
				}
				cancelled, cancel := context.WithCancel(ctx)
				cancel()
				if err := s.StepUntil(cancelled, until); !errors.Is(err, context.Canceled) || s.Tick() != 0 {
					t.Fatalf("cancelled StepUntil: err = %v at tick %d, want context.Canceled at tick 0", err, s.Tick())
				}
				if err := s.StepUntil(ctx, until); err != nil {
					t.Fatal(err)
				}
				if s.Tick() != ref.Tick() {
					t.Fatalf("StepUntil(%g) stopped at tick %d, the hand loop at %d", until, s.Tick(), ref.Tick())
				}
				if s.NextTime() < until || s.Now() >= until {
					t.Errorf("StepUntil(%g) stopped with Now=%g NextTime=%g, want Now < until <= NextTime", until, s.Now(), s.NextTime())
				}
				st, err := s.CaptureState()
				if err != nil {
					t.Fatal(err)
				}
				restored, err := Restore(st)
				if err != nil {
					t.Fatal(err)
				}
				if err := restored.StepUntil(ctx, math.Inf(1)); err != nil {
					t.Fatal(err)
				}
				if !restored.Done() {
					t.Error("StepUntil(+Inf) returned before Done")
				}
				if restored.Finish().Fingerprint() != want.Fingerprint() {
					t.Errorf("capture at StepUntil(%g) → restore → finish diverges from the uninterrupted run", until)
				}
			}
		})
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
// c at index c-1) after joins, after leaves — a departed client keeps its
// slot — and after a capture→restore, and the by-ID lookup agrees with it.
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
	stepTo := func(s *Sim, until float64) {
		t.Helper()
		for !s.Done() && s.NextTime() < until {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := mustNew(t, stepTestConfig(17))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	stepTo(s, 10)
	check("after the join wave", s)
	stepTo(s, 25)
	check("after the leave wave", s)
	alive := 0
	for _, sc := range s.clients {
		if sc.alive {
			alive++
		}
	}
	if alive != 30 {
		t.Errorf("%d clients alive after the leave wave, want the 30 base clients", alive)
	}

	st, err := s.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	check("after restore", restored)

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
