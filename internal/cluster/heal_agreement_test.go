package cluster

import (
	"context"
	"reflect"
	"testing"
	"time"

	"matrix/internal/clock"
	"matrix/internal/coordinator"
	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/sim"
	"matrix/internal/space"
)

// healStep is one move of a failure schedule: a server dies without a word,
// or (the zero value) the operator starts a fresh one.
type healStep struct{ kill id.ServerID }

// healSeen is what the coordinator had decided once a step's fallout settled.
type healSeen struct {
	Deaths, Adoptions int
	Parked            []id.ServerID
}

// mcReader is what both legs read of their coordinator: the simulator's
// *coordinator.Coordinator, or the live host's view of one.
type mcReader interface {
	Deaths() int
	Adoptions() int
	Parked() []id.ServerID
	Partitions() []space.Partition
	Fleet() coordinator.FleetSnapshot
}

func seen(mc mcReader) healSeen {
	return healSeen{Deaths: mc.Deaths(), Adoptions: mc.Adoptions(), Parked: mc.Parked()}
}

// healOutcome is everything the two legs are compared on.
type healOutcome struct {
	Steps  []healSeen        // after each step
	Kinds  []string          // the decision ring's kinds, oldest first
	Owners []space.Partition // the final owner of every rectangle
}

func outcome(mc mcReader, steps []healSeen) healOutcome {
	out := healOutcome{Steps: steps, Owners: mc.Partitions()}
	for _, d := range mc.Fleet().Decisions {
		out.Kinds = append(out.Kinds, d.Kind)
	}
	return out
}

var healWorld = geom.R(0, 0, 1000, 1000)

// TestHealAgreesWithSim drives the same three failure schedules through the
// live hosts on the in-memory network and through the simulator, and compares
// what the coordinator decided. It is one coordinator package under both, and
// since the simulator's crash events heal through its lease plane (sim/
// health.go) this is the test that the two drivers mean the same thing by
// "a server died". Both legs find the death the same way — the lease runs out
// on a clock the driver advances: the victim goes silent with its connection
// up (a dropped connection would short-circuit the lease, which is the branch
// every other suite here takes) and is killed for real once declared dead.
func TestHealAgreesWithSim(t *testing.T) {
	for _, sched := range []struct {
		name    string
		servers int
		steps   []healStep
	}{
		{"the loaded server dies with a spare free", 2, []healStep{{kill: 1}}},
		{"it dies with no spare, then a server is added", 1, []healStep{{kill: 1}, {}}},
		{"the victim, then its adopter", 3, []healStep{{kill: 1}, {kill: 2}}},
	} {
		t.Run(sched.name, func(t *testing.T) {
			t.Parallel()
			want := healInSim(t, sched.servers, sched.steps)
			if got := healInCluster(t, sched.servers, sched.steps, want.Steps); !reflect.DeepEqual(got, want) {
				t.Errorf("the live fleet and the simulator disagree on the heal:\nlive: %+v\nsim:  %+v", got, want)
			}
		})
	}
}

// healInSim scripts the schedule ten virtual seconds apart — a lease is
// three — and reads the coordinator eight seconds after each step.
func healInSim(t *testing.T, servers int, steps []healStep) healOutcome {
	t.Helper()
	cfg := sim.Config{
		Profile:                game.Bzflag(),
		World:                  healWorld,
		Seed:                   3,
		DurationSeconds:        float64(10*len(steps)) + 10,
		MaxServers:             servers,
		BasePopulation:         3,
		CheckpointEverySeconds: 1,
	}
	for i, st := range steps {
		e := game.Event{At: float64(10*i) + 5.05, Kind: game.EventRecover}
		if st.kill.Valid() {
			e.Kind, e.Servers = game.EventCrashLose, []id.ServerID{st.kill}
		}
		cfg.Script = append(cfg.Script, e)
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var after []healSeen
	for i := range steps {
		if err := s.StepUntil(context.Background(), float64(10*i)+13); err != nil {
			t.Fatal(err)
		}
		after = append(after, seen(s.MC()))
	}
	return outcome(s.MC(), after)
}

// healInCluster plays the schedule on live hosts. The lease clock is virtual
// and only this function advances it, one beat at a time, letting every
// healthy server renew in between — so exactly the silent one runs out, however
// the goroutines are scheduled. What is awaited on the wall clock is only the
// fallout becoming visible, never the decision.
func healInCluster(t *testing.T, servers int, steps []healStep, expect []healSeen) healOutcome {
	t.Helper()
	const beat = 10 * time.Millisecond
	clk := clock.NewVirtual(time.Unix(1000, 0))
	c, err := New(Config{Servers: servers, World: healWorld, HeartbeatEvery: beat, LeaseMisses: 3, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 3; i++ {
		if err := c.AddClient(id.ClientID(i), geom.Pt(float64(200*i), 500)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitUntil(5*time.Second, func() bool { return c.Server(1).CheckpointTick() > 0 }) {
		t.Fatal("the loaded server never shipped a checkpoint")
	}

	var silent id.ServerID // the victim, from going quiet to being killed
	renewed := func() bool {
		for _, fs := range c.MC().Fleet().Servers {
			if fs.ID != silent && c.Server(fs.ID) != nil && fs.LastBeatAgoMs != 0 {
				return false
			}
		}
		return true
	}
	var after []healSeen
	for i, st := range steps {
		if st.kill.Valid() {
			deaths := c.MC().Deaths()
			silent = st.kill
			if err := c.Zombie(st.kill, true); err != nil {
				t.Fatal(err)
			}
			// A beat already on the wire when the victim went silent can buy
			// it one more period, so the count of advances is not fixed.
			for n := 0; c.MC().Deaths() == deaths; n++ {
				if n == 50 {
					t.Fatalf("step %d: %v's lease never ran out", i, st.kill)
				}
				clk.Advance(beat)
				if !c.WaitUntilQuiet(5*time.Second, renewed) {
					t.Fatalf("step %d: a healthy server stopped renewing its lease", i)
				}
				c.WaitUntilQuiet(2*beat, func() bool { return c.MC().Deaths() != deaths }) // a lease tick or two at the new time
			}
			if err := c.Kill(st.kill); err != nil {
				t.Fatal(err)
			}
		} else if _, err := c.AddServer(); err != nil {
			t.Fatal(err)
		}
		if !c.WaitUntilQuiet(5*time.Second, func() bool { return reflect.DeepEqual(seen(c.MC()), expect[i]) }) {
			t.Fatalf("step %d: the coordinator settled on %+v, the simulator on %+v", i, seen(c.MC()), expect[i])
		}
		after = append(after, seen(c.MC()))
	}
	return outcome(c.MC(), after)
}
