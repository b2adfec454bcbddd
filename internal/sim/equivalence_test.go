package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"matrix/internal/flight"
	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/netem"
	"matrix/internal/trace"
)

// This file is the package's equivalence table. The determinism contract is
// one property — Result.Fingerprint is unchanged under X — and every test
// here is a row of it: a way of running a fixture that must end on the
// fixture's cold serial fingerprint. A row that CI or the tests-at-floor
// list names keeps its own top-level id (its subtests are the fixtures); the
// rows added since sit in TestFingerprintUnchanged's table.

// fixture is one named reference run, computed at most once per test binary:
// the cold serial run's result and the state captured on its way past `at`.
// The configs are the smallest that still split and reclaim (clean), lose and
// delay packets and leave ghosts (impaired), kill a server and heal through
// lease expiry, adoption and a rejoin storm (recovery), and rate-limit and shed
// (middleware).
type fixture struct {
	name string
	cfg  Config
	at   float64 // virtual seconds: where mid was captured

	once sync.Once // the reference run happens at most once per test binary
	err  error
	sim  *Sim    // the finished reference run (read-only)
	want string  // its fingerprint
	mid  *State  // captured on the way, shared by every restore row
	res  *Result // = sim.Finish()
}

var (
	clean    = &fixture{name: "clean", cfg: stepTestConfig(17), at: 15}
	impaired = &fixture{name: "impaired", cfg: impairedConfig(), at: 15}
	recovery = &fixture{name: "recovery", cfg: recoveryConfig(), at: 25} // mid-lease: the victim is dead, the coordinator has one more second to find out
	chain    = &fixture{name: "middleware", cfg: mwTestConfig(17), at: 15}
	daimonin = &fixture{name: "daimonin", cfg: daimoninConfig(), at: 15}

	// The stateful rival policies, captured where each one's memory — an
	// overload streak, a load forecast, a churn window — decides what comes
	// next (TestFixturesBite restores them without it).
	hysteresis = &fixture{name: "hysteresis", cfg: policyConfig("hysteresis"), at: 10.5}
	predictive = &fixture{name: "predictive", cfg: policyConfig("predictive"), at: 10.5}
	costaware  = &fixture{name: "costaware", cfg: policyConfig("costaware"), at: 10.5}

	configs  = []*fixture{clean, impaired, recovery, chain}
	policies = []*fixture{hysteresis, predictive, costaware}
	stateful = append(append([]*fixture{}, configs...), policies...)
)

// impairedConfig is the clean workload over delay + reordering jitter +
// i.i.d. and burst loss, so per-link RNG consumption order matters; the
// short ghost timeout lets the leavers whose despawn was lost expire in-run.
func impairedConfig() Config {
	cfg := stepTestConfig(17)
	cfg.GhostExpirySeconds = 5
	cfg.Netem = netem.Config{Link: netem.LinkConfig{
		DelayMs:    30,
		JitterMs:   120,
		Loss:       0.02,
		BurstLoss:  0.25,
		BurstEnter: 0.02,
		BurstExit:  0.2,
	}}
	return cfg
}

// recoveryConfig is the clean workload with a state-losing crash of a split
// child: leases and checkpoint uploads from t = 0, the lease running out, the
// region re-homed from the last blob, a rejoin storm.
func recoveryConfig() Config {
	cfg := stepTestConfig(17)
	cfg.DurationSeconds = 40
	cfg.CheckpointEverySeconds = 5
	cfg.GhostExpirySeconds = 8
	cfg.Script = append(cfg.Script,
		game.Event{At: 22, Kind: game.EventCrashLose, Servers: []id.ServerID{2}},
		game.Event{At: 28, Kind: game.EventRecover, Servers: []id.ServerID{2}},
	)
	return cfg
}

// daimoninConfig is the clean workload under another game profile and seed.
func daimoninConfig() Config {
	cfg := stepTestConfig(42)
	cfg.Profile = game.Daimonin()
	return cfg
}

// policyConfig is the clean workload plus a second crowd that trickles in
// over twelve seconds, with servers to spare: load that rises slowly is where
// the rival policies part from the paper's and from each other.
func policyConfig(name string) Config {
	cfg := stepTestConfig(17)
	cfg.Policy = name
	cfg.MaxServers = 8
	for i := 0; i < 12; i++ {
		cfg.Script = append(cfg.Script, game.Event{At: 8 + float64(i), Kind: game.EventJoin, Count: 6, Center: geom.Pt(250, 750), Spread: 60, Tag: "ramp"})
	}
	cfg.Script = cfg.Script.Sorted()
	return cfg
}

// ref returns the fixture with its reference run done.
func (f *fixture) ref(t testing.TB) *fixture {
	t.Helper()
	f.once.Do(func() {
		ctx := context.Background()
		if f.sim, f.err = New(f.cfg); f.err != nil {
			return
		}
		if f.err = f.sim.Start(); f.err != nil {
			return
		}
		if f.err = f.sim.StepUntil(ctx, f.at); f.err != nil {
			return
		}
		if f.mid, f.err = f.sim.CaptureState(); f.err != nil {
			return
		}
		if f.err = f.sim.StepUntil(ctx, math.Inf(1)); f.err != nil {
			return
		}
		f.res = f.sim.Finish()
		f.want = f.res.Fingerprint()
	})
	if f.err != nil {
		t.Fatalf("fixture %s: %v", f.name, f.err)
	}
	return f
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// fresh builds an unstarted sim of the fixture's config on a worker pool.
func (f *fixture) fresh(t *testing.T, workers int) *Sim {
	t.Helper()
	cfg := f.cfg
	cfg.SimWorkers = workers
	return mustNew(t, cfg)
}

// restored rebuilds a sim from a captured state.
func restored(t *testing.T, st *State, opts RestoreOptions) *Sim {
	t.Helper()
	s, err := RestoreWith(st, opts)
	must(t, err)
	return s
}

// captureAt runs a fresh sim up to the fixture's capture point on a worker
// pool and captures it there.
func (f *fixture) captureAt(t *testing.T, workers int) *State {
	t.Helper()
	s := f.fresh(t, workers)
	must(t, s.Start())
	must(t, s.StepUntil(context.Background(), f.at))
	st, err := s.CaptureState()
	must(t, err)
	return st
}

// same drives s from wherever it stands to the end of its run and requires
// the reference fingerprint.
func (f *fixture) same(t *testing.T, what string, s *Sim) {
	t.Helper()
	if !s.started {
		must(t, s.Start())
	}
	must(t, s.StepUntil(context.Background(), math.Inf(1)))
	if !s.Done() {
		t.Errorf("%s: StepUntil(+Inf) returned before Done", what)
	}
	if got := s.Finish().Fingerprint(); got != f.want {
		t.Errorf("%s: fingerprint differs from the cold serial run:\n--- cold\n%.400s\n--- %s\n%.400s", what, f.want, what, got)
	}
}

// unchanged runs one row over fixtures, each a parallel subtest.
func unchanged(t *testing.T, under func(*testing.T, *fixture), on ...*fixture) {
	for _, f := range on {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			under(t, f.ref(t))
		})
	}
}

// pools is the matrix of worker-pool sizes a row is tried on; short mode
// tries the last one only, which keeps the race suite (-race -cpu 1,4) bounded.
func pools(full ...int) []int {
	if testing.Short() {
		return full[len(full)-1:]
	}
	return full
}

// --- the rows ---

func underWorkers(t *testing.T, f *fixture) {
	for _, w := range pools(2, 3, 8, 4) {
		f.same(t, fmt.Sprintf("SimWorkers=%d", w), f.fresh(t, w))
	}
}

// observed attaches a tracer, a flight recorder or both: observation only.
func observed(tracer, recorder bool) func(*testing.T, *fixture) {
	return func(t *testing.T, f *fixture) {
		for _, w := range pools(1, 4) {
			s := f.fresh(t, w)
			if tracer {
				s.SetTracer(trace.New(1 << 16))
			}
			if recorder {
				s.SetRecorder(flight.New())
			}
			f.same(t, fmt.Sprintf("tracer=%v recorder=%v SimWorkers=%d", tracer, recorder, w), s)
		}
	}
}

// underRun is the run nothing interrupted: Run is a thin wrapper over the
// step primitives the reference was driven with, capturing a state on the
// way disturbed nothing, and the same seed gives the same run twice.
func underRun(t *testing.T, f *fixture) {
	s := f.fresh(t, 0)
	res, err := s.Run()
	must(t, err)
	// A run of D seconds at tick dt is round(D/dt)+1 steps, both ends simulated.
	if want := int(f.cfg.DurationSeconds*10+0.5) + 1; s.Tick() != want || f.sim.Tick() != want {
		t.Errorf("Run took %d steps, the stepped reference %d, want %d", s.Tick(), f.sim.Tick(), want)
	}
	// Finish is memoized: repeat calls must not re-aggregate.
	if s.Finish() != res {
		t.Error("second Finish returned a different Result")
	}
	f.same(t, "Run", s)
}

// underRestore finishes the state captured mid-run, serially and on a pool
// (snapshots never record a worker count).
func underRestore(t *testing.T, f *fixture) {
	f.same(t, "restored", restored(t, f.mid, RestoreOptions{}))
	f.same(t, "restored on 8 workers", restored(t, f.mid, RestoreOptions{SimWorkers: 8}))
}

// underRestoreFromPool is the other direction: captured under a pool,
// finished serially.
func underRestoreFromPool(t *testing.T, f *fixture) {
	f.same(t, "captured on 8 workers, restored serially", restored(t, f.captureAt(t, 8), RestoreOptions{}))
}

// underStepUntil pins the one stepping loop against the hand-written loop
// the sweep engine's warmups used to carry (Step while !Done and NextTime <
// t): it stops on the same tick — the first at or after t, so every event
// with At >= t is still ahead — a cancelled context stops it before any
// Step, and a capture there finishes on the reference fingerprint.
func underStepUntil(t *testing.T, f *fixture) {
	ctx := context.Background()
	// 12.34 falls between two ticks, 15 exactly on one.
	for _, until := range []float64{12.34, 15} {
		hand := f.fresh(t, 0)
		must(t, hand.Start())
		for !hand.Done() && hand.NextTime() < until {
			must(t, hand.Step())
		}

		s := f.fresh(t, 0)
		must(t, s.Start())
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		if err := s.StepUntil(cancelled, until); !errors.Is(err, context.Canceled) || s.Tick() != 0 {
			t.Fatalf("cancelled StepUntil: err = %v at tick %d, want context.Canceled at tick 0", err, s.Tick())
		}
		must(t, s.StepUntil(ctx, until))
		if s.Tick() != hand.Tick() {
			t.Fatalf("StepUntil(%g) stopped at tick %d, the hand loop at %d", until, s.Tick(), hand.Tick())
		}
		if s.NextTime() < until || s.Now() >= until {
			t.Errorf("StepUntil(%g) stopped with Now=%g NextTime=%g, want Now < until <= NextTime", until, s.Now(), s.NextTime())
		}
		st, err := s.CaptureState()
		must(t, err)
		f.same(t, fmt.Sprintf("captured at StepUntil(%g), restored", until), restored(t, st, RestoreOptions{}))
	}
}

// --- rows under the ids CI and the tests-at-floor list name ---

// TestSimWorkersFingerprintIdentical: the serial path and any worker-pool
// size end on the same fingerprint. It doubles as the race-detector workload
// for the tick engine (the CI race suite runs this package at -cpu 1,4).
func TestSimWorkersFingerprintIdentical(t *testing.T) {
	unchanged(t, underWorkers, clean, impaired, recovery)
}

// TestMiddlewareFingerprintWorkerInvariant: every judge point of the
// admission chain runs on the stepping goroutine, so the shedding trajectory
// is the same on a pool.
func TestMiddlewareFingerprintWorkerInvariant(t *testing.T) { unchanged(t, underWorkers, chain) }

func TestTracingPreservesFingerprint(t *testing.T)   { unchanged(t, observed(true, false), configs...) }
func TestRecordingPreservesFingerprint(t *testing.T) { unchanged(t, observed(false, true), configs...) }
func TestStepPrimitivesMatchRun(t *testing.T)        { unchanged(t, underRun, configs...) }
func TestStepUntil(t *testing.T)                     { unchanged(t, underStepUntil, clean, impaired, recovery) }

// TestSimWorkersRestoreAcrossWorkerCounts: capture serially and finish on a
// pool, capture on a pool and finish serially.
func TestSimWorkersRestoreAcrossWorkerCounts(t *testing.T) {
	unchanged(t, func(t *testing.T, f *fixture) {
		underRestore(t, f)
		underRestoreFromPool(t, f)
	}, clean, impaired, recovery)
}

// TestMiddlewareSnapshotRoundTrip pins the limiter buckets (NodeState.
// Limiter) and the admission counters through capture and restore: a dropped
// bucket would refill a client's burst allowance and change every count
// downstream.
func TestMiddlewareSnapshotRoundTrip(t *testing.T) { unchanged(t, underRestore, chain) }

// TestFingerprintUnchanged is the table of rows that never had a test of
// their own; a new X (item 6's Invariants: true, say) is one more line.
func TestFingerprintUnchanged(t *testing.T) {
	for _, row := range []struct {
		x     string
		under func(*testing.T, *fixture)
		on    []*fixture
	}{
		{"tracer+recorder", observed(true, true), configs},
		{"restore-from-pool", underRestoreFromPool, []*fixture{chain}},
		{"restore-policy-state", underRestore, policies},
		{"restore-policy-state-from-pool", underRestoreFromPool, policies},
		{"run", underRun, policies},
	} {
		t.Run(row.x, func(t *testing.T) {
			t.Parallel()
			unchanged(t, row.under, row.on...)
		})
	}
}

// TestSimWorkersStateIdenticalMidRun pins schedule independence at the state
// level, not just the aggregate fingerprint: a serial run and an 8-worker run
// paused at the same tick capture reflect.DeepEqual states — the property
// that lets a snapshot taken under any worker count restore under any other.
func TestSimWorkersStateIdenticalMidRun(t *testing.T) {
	unchanged(t, func(t *testing.T, f *fixture) {
		if !reflect.DeepEqual(f.mid, f.captureAt(t, 8)) {
			t.Error("mid-run state differs between SimWorkers=1 and SimWorkers=8")
		}
	}, stateful...)
}

// TestFixturesBite guards the table against vacuity: each fixture must
// exercise the machinery it is named for, and be mid-action where it was
// captured.
func TestFixturesBite(t *testing.T) {
	// Splits, reclaims and cross-server traffic on clean:
	// TestHotspotSplitsAndReclaims; loss and delay on impaired:
	// TestNetemImpairedRunDeterministicAndDistinct; both admission counters
	// on middleware: TestMiddlewareCountsAndFingerprint.
	if r := impaired.ref(t).res; r.GhostsExpired == 0 || len(impaired.mid.Delayed) == 0 || impaired.mid.Netem == nil {
		t.Errorf("impaired: %d ghosts expired, %d delayed buckets in flight at the capture point; want both", r.GhostsExpired, len(impaired.mid.Delayed))
	}
	if r := recovery.ref(t).res; r.Restarts != 1 || r.RecoveryRejoins == 0 || r.RecoveryGap.Count() == 0 {
		t.Errorf("recovery: adoptions=%d rejoins=%d gaps=%d; want one region re-homed and a rejoin storm", r.Restarts, r.RecoveryRejoins, r.RecoveryGap.Count())
	}
	dead := 0
	for _, n := range recovery.mid.Nodes {
		if n.Dead {
			dead++
		}
	}
	if mc := recovery.mid.Coordinator; dead != 1 || len(mc.Checkpoints) == 0 || mc.Deaths != 0 {
		t.Errorf("recovery: captured with %d dead servers, %d checkpoint blobs at the coordinator, %d deaths declared; want it mid-lease — the victim dead, the coordinator yet to find out",
			dead, len(mc.Checkpoints), mc.Deaths)
	}
	buckets := 0
	for _, n := range chain.ref(t).mid.Nodes {
		buckets += len(n.Limiter)
	}
	if buckets == 0 {
		t.Error("middleware: no token bucket in the captured state")
	}
	// A rival policy's row is worth its name only if the state it carries
	// across the capture decides something: restored without it, the run
	// must end elsewhere.
	for _, f := range policies {
		st := f.ref(t).captureAt(t, 0)
		st.Coordinator.PolicyState = nil
		for _, n := range st.Nodes {
			n.Core.PolicyState = nil
		}
		s := restored(t, st, RestoreOptions{})
		must(t, s.StepUntil(context.Background(), math.Inf(1)))
		if s.Finish().Fingerprint() == f.want {
			t.Errorf("%s: the run ends the same without the policy state captured at t=%g; the restore rows would not see it dropped", f.name, f.at)
		}
	}
}
