package snapshot

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"matrix/internal/experiments"
	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/load"
	"matrix/internal/netem"
	"matrix/internal/sim"
)

// This file is the package's equivalence table: Result.Fingerprint is
// unchanged when a run is captured, serialized and restored. Every test here
// is a row of it — a way of bringing a fixture's mid-run snapshot back that
// must end on the fixture's cold fingerprint. Rows that CI or the
// tests-at-floor list name keep their own top-level id; the rest sit in
// TestFingerprintUnchanged's table. (internal/sim has the same table for the
// ways of running a sim; this one owns the bytes.)

// fixture is one named reference run, computed at most once per test binary:
// the cold serial run's fingerprint and the snapshot — and its encoding —
// captured on the way past `at`.
type fixture struct {
	name string
	cfg  sim.Config
	at   float64 // virtual seconds: where snap was captured

	once sync.Once // the reference run happens at most once per test binary
	err  error
	want string    // the finished run's fingerprint
	snap *Snapshot // captured on the way, shared by every restore row
	data []byte    // Marshal(snap)
}

var (
	// tiny is the fully featured run: netem (loss + reordering jitter), a
	// crowd that forces splits, lost despawns (ghosts), leases and checkpoint
	// uploads, a latency window and a state-losing crash it is captured in the
	// middle of (the victim dead, its lease about to run out) — every snapshot
	// section is populated in a few hundred ticks.
	tiny = &fixture{name: "tiny", cfg: tinyConfig(7), at: 21}
	// plain is the same crowd with nothing impaired: the warmup the script
	// tails branch from.
	plain = &fixture{name: "plain", cfg: plainConfig(7), at: 12}
	chain = &fixture{name: "middleware", cfg: chainConfig(), at: 12}

	// The stateful rival policies, captured where each one's memory decides
	// what comes next (TestFixturesBite restores them without it).
	hysteresis = &fixture{name: "hysteresis", cfg: policyConfig("hysteresis"), at: 10.5}
	predictive = &fixture{name: "predictive", cfg: policyConfig("predictive"), at: 10.5}
	costaware  = &fixture{name: "costaware", cfg: policyConfig("costaware"), at: 10.5}

	// Two runs that share plain's first 12 seconds and then go elsewhere: the
	// crowd thins early, or the network degrades and heals.
	tailLeave = &fixture{name: "tail-leave", cfg: tailConfig(
		game.Event{At: 16, Kind: game.EventLeave, Count: 80, Tag: "crowd"}), at: 12}
	tailImpair = &fixture{name: "tail-impair", cfg: tailConfig(
		game.Event{At: 14, Kind: game.EventImpair, Impair: netem.LinkConfig{DelayMs: 50, JitterMs: 200, Loss: 0.03}},
		game.Event{At: 24, Kind: game.EventImpair}), at: 12}

	configs  = []*fixture{tiny, plain, chain, hysteresis, predictive, costaware}
	fixtures = append([]*fixture{tailLeave, tailImpair}, configs...)
)

// plainConfig is the smallest crowd that still splits the world and folds it
// back: 120 clients landing on one spot of a 30-client world, thresholds
// scaled down to match.
func plainConfig(seed int64) sim.Config {
	return sim.Config{
		Profile:            game.Bzflag(),
		World:              geom.R(0, 0, 400, 400),
		Seed:               seed,
		DurationSeconds:    40,
		MaxServers:         4,
		ServiceRatePerTick: 150,
		BasePopulation:     30,
		LoadPolicy: load.Config{
			OverloadClients:  60,
			UnderloadClients: 30,
			OverloadQueue:    400,
			SplitCooldown:    2 * time.Second,
			ReclaimDwell:     3 * time.Second,
		},
		Script: game.Script{
			{At: 4, Kind: game.EventJoin, Count: 120, Center: geom.Pt(300, 100), Spread: 30, Tag: "crowd"},
			{At: 20, Kind: game.EventLeave, Count: 120, Tag: "crowd"},
		},
	}
}

func tinyConfig(seed int64) sim.Config {
	cfg := plainConfig(seed)
	cfg.CheckpointEverySeconds = 5
	cfg.GhostExpirySeconds = 8
	cfg.LatencyIgnoreBeforeSeconds = 2 // opens before the crowd joins: its skip list is the base population
	cfg.Netem = netem.Config{Link: netem.LinkConfig{DelayMs: 30, JitterMs: 150, Loss: 0.05}}
	cfg.Script = game.Script{
		cfg.Script[0],
		{At: 14, Kind: game.EventLeave, Count: 50, Tag: "crowd"},
		{At: 18, Kind: game.EventCrashLose, Servers: []id.ServerID{2}},
		{At: 24, Kind: game.EventRecover},
		{At: 30, Kind: game.EventLeave, Count: 50, Tag: "crowd"},
	}
	return cfg
}

func chainConfig() sim.Config {
	cfg := plainConfig(7)
	cfg.ServiceRatePerTick = 40
	cfg.Middleware = &sim.MiddlewareConfig{RateLimitPerSec: 2, RateLimitBurst: 2, ShedQueue: 20}
	return cfg
}

// policyConfig adds a second crowd that trickles in, with servers to spare:
// slowly rising load is where the rival policies part from the paper's.
func policyConfig(name string) sim.Config {
	cfg := plainConfig(7)
	cfg.Policy = name
	cfg.MaxServers = 8
	for i := 0; i < 12; i++ {
		cfg.Script = append(cfg.Script, game.Event{At: 8 + float64(i), Kind: game.EventJoin, Count: 6, Center: geom.Pt(100, 300), Spread: 30, Tag: "ramp"})
	}
	cfg.Script = cfg.Script.Sorted()
	return cfg
}

// tailConfig is plain with everything after the join replaced.
func tailConfig(tail ...game.Event) sim.Config {
	cfg := plainConfig(7)
	cfg.Script = append(cfg.Script[:1:1], tail...)
	return cfg
}

// ref returns the fixture with its reference run done: start to end,
// capturing and encoding a snapshot on the way past `at`.
func (f *fixture) ref(t testing.TB) *fixture {
	t.Helper()
	f.once.Do(func() {
		ctx := context.Background()
		var s *sim.Sim
		if s, f.err = sim.New(f.cfg); f.err != nil {
			return
		}
		if f.err = s.Start(); f.err != nil {
			return
		}
		if f.err = s.StepUntil(ctx, f.at); f.err != nil {
			return
		}
		if f.snap, f.err = Capture(s); f.err != nil {
			return
		}
		if f.data, f.err = Marshal(f.snap); f.err != nil {
			return
		}
		if f.err = s.StepUntil(ctx, math.Inf(1)); f.err == nil {
			f.want = s.Finish().Fingerprint()
		}
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

// decoded is the snapshot after a trip through its bytes — what -snapshot /
// -restore files do between processes.
func decoded(t *testing.T, data []byte) *Snapshot {
	t.Helper()
	snap, err := Unmarshal(data)
	must(t, err)
	return snap
}

// finished restores snap and returns the fingerprint the run ends on.
func finished(t *testing.T, snap *Snapshot, opts sim.RestoreOptions) string {
	t.Helper()
	s, err := RestoreWith(snap, opts)
	must(t, err)
	must(t, s.StepUntil(context.Background(), math.Inf(1)))
	return s.Finish().Fingerprint()
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

// --- the rows ---

// underBytes: restore from the serialized bytes, serially and on a pool
// (snapshots never record a worker count), and finish.
func underBytes(t *testing.T, f *fixture) {
	snap := decoded(t, f.data) // one snapshot seeds any number of restores
	if got := finished(t, snap, sim.RestoreOptions{}); got != f.want {
		t.Errorf("restored run diverged from the uninterrupted run:\ncold:\n%s\nrestored:\n%s", f.want, got)
	}
	if got := finished(t, snap, sim.RestoreOptions{SimWorkers: 8}); got != f.want {
		t.Error("SimWorkers=8 restore diverged from the uninterrupted serial run")
	}
}

// underRun is the run nobody captured: taking the snapshot disturbed nothing.
func underRun(t *testing.T, f *fixture) {
	s, err := sim.New(f.cfg)
	must(t, err)
	res, err := s.Run()
	must(t, err)
	if got := res.Fingerprint(); got != f.want {
		t.Errorf("a run that was never captured ends elsewhere than the captured one:\n%s\nwant:\n%s", got, f.want)
	}
}

// underScriptTail is the branching primitive: plain's warmup, restored with
// the fixture's script and finished, matches the fixture's own cold start.
func underScriptTail(t *testing.T, f *fixture) {
	opts := sim.RestoreOptions{Script: f.cfg.Script}
	if got := finished(t, plain.ref(t).snap, opts); got != f.want {
		t.Errorf("branched run diverged from its cold start:\n%s\nwant:\n%s", got, f.want)
	}
	if got := finished(t, decoded(t, plain.data), opts); got != f.want {
		t.Error("branched from the serialized warmup, the run diverged from its cold start")
	}
}

// --- rows under the ids CI and the tests-at-floor list name ---

// TestRestoredRunContinuesIdentically: snapshot mid-run, restore from the
// serialized bytes, finish — the fingerprint matches the uninterrupted run
// byte for byte, and the run that was captured went on undisturbed.
func TestRestoredRunContinuesIdentically(t *testing.T) {
	unchanged(t, func(t *testing.T, f *fixture) {
		underBytes(t, f)
		underRun(t, f)
	}, tiny)
}

// TestRestoreWithScriptTail: one unimpaired warmup fans into tails whose
// scripts diverge after the snapshot point.
func TestRestoreWithScriptTail(t *testing.T) { unchanged(t, underScriptTail, tailLeave, tailImpair) }

// TestFingerprintUnchanged is the table of rows that never had a test of
// their own; a new X is one more line.
func TestFingerprintUnchanged(t *testing.T) {
	for _, row := range []struct {
		x     string
		under func(*testing.T, *fixture)
		on    []*fixture
	}{
		{"bytes", underBytes, configs[1:]}, // tiny's are TestRestoredRunContinuesIdentically
		{"run", underRun, configs[1:]},
	} {
		t.Run(row.x, func(t *testing.T) {
			t.Parallel()
			unchanged(t, row.under, row.on...)
		})
	}
}

// TestCaptureRestoreCaptureByteStable pins the determinism of the format
// itself: capturing, restoring and capturing again produces byte-identical
// snapshots, at every fixture's capture point and, outside -short, again
// after the restored run has moved on. The latency window's skip list names
// the clients that existed when it opened — ascending, zero skips included —
// and nobody who joined later; with no window there is no list.
func TestCaptureRestoreCaptureByteStable(t *testing.T) {
	stable := func(t *testing.T, f *fixture, first []byte) *sim.Sim {
		s, err := Restore(decoded(t, first))
		must(t, err)
		again, err := Capture(s)
		must(t, err)
		second, err := Marshal(again)
		must(t, err)
		if !bytes.Equal(first, second) {
			t.Errorf("t=%g: capture→restore→capture is not byte-stable (%d vs %d bytes)", s.NextTime(), len(first), len(second))
		}
		want := 0
		if f.cfg.LatencyIgnoreBeforeSeconds > 0 {
			want = f.cfg.BasePopulation
		}
		skips := again.Sim.LatSkip
		if len(skips) != want {
			t.Fatalf("t=%g: LatSkip has %d entries, want %d", s.NextTime(), len(skips), want)
		}
		for i, sk := range skips {
			if sk.Client != id.ClientID(i+1) {
				t.Fatalf("t=%g: LatSkip[%d] is client %v, want %d", s.NextTime(), i, sk.Client, i+1)
			}
		}
		return s
	}
	unchanged(t, func(t *testing.T, f *fixture) {
		s := stable(t, f, f.data)
		if testing.Short() {
			return
		}
		must(t, s.StepUntil(context.Background(), f.at+6))
		snap, err := Capture(s)
		must(t, err)
		later, err := Marshal(snap)
		must(t, err)
		stable(t, f, later)
	}, configs...)
}

// marked counts the servers a state marks dead and the clients it marks ghosts.
func marked(st *sim.State) (dead, ghosts int) {
	for _, n := range st.Nodes {
		if n.Dead {
			dead++
		}
	}
	for _, c := range st.Clients {
		if c.Ghost {
			ghosts++
		}
	}
	return dead, ghosts
}

// TestFixturesBite guards the table against vacuity: the snapshots the rows
// restore must carry the state the rows are named for.
func TestFixturesBite(t *testing.T) {
	st := tiny.ref(t).snap.Sim
	dead, ghosts := marked(st)
	if mc := st.Coordinator; len(st.Nodes) < 3 || st.Netem == nil || len(st.Delayed) == 0 || ghosts == 0 ||
		dead != 1 || len(mc.Checkpoints) == 0 || mc.Deaths != 0 || len(st.LatSkip) == 0 || len(st.Events) == 0 {
		t.Errorf("tiny: captured with %d nodes, %d delayed buckets, %d ghosts, %d dead servers, %d checkpoint blobs and %d deaths at the coordinator, %d latency skips, %d events; want every section populated, mid-lease (the victim dead, the coordinator yet to find out)",
			len(st.Nodes), len(st.Delayed), ghosts, dead, len(mc.Checkpoints), mc.Deaths, len(st.LatSkip), len(st.Events))
	}
	buckets := 0
	for _, n := range chain.ref(t).snap.Sim.Nodes {
		buckets += len(n.Limiter)
	}
	if buckets == 0 {
		t.Error("middleware: no token bucket in the snapshot")
	}
	// A rival policy's rows are worth their name only if the state the
	// snapshot carries decides something: restored without it, the run must
	// end elsewhere.
	for _, f := range []*fixture{hysteresis, predictive, costaware} {
		snap := decoded(t, f.ref(t).data)
		snap.Sim.Coordinator.PolicyState = nil
		for _, n := range snap.Sim.Nodes {
			n.Core.PolicyState = nil
		}
		if finished(t, snap, sim.RestoreOptions{}) == f.want {
			t.Errorf("%s: the run ends the same without the policy state captured at t=%g; the rows would not see it dropped", f.name, f.at)
		}
	}
}

// TestScenarioFingerprintEquivalence is the same gate on the real scenario
// table: a scenario is captured at t=55 under a parallel tick engine, pushed
// through the full serialize/deserialize path and restored serially and — the
// paper-policy rows — on a pool of another size (snapshots never record a
// worker count); each restore ends on the fingerprint of a cold serial run
// nothing interrupted. Covers plain, netem-impaired and crash-recovery
// scenarios, and flashcrowd under each rival policy with the policy's
// internal state (overload streaks, forecast history, churn windows) live in
// the snapshot.
func TestScenarioFingerprintEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight table scenarios two to two and a half times each")
	}
	row := func(name, scenario, pol string, restoreOn ...int) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, ok := experiments.ScenarioByName(scenario)
			if !ok {
				t.Fatalf("scenario %q missing from the table", scenario)
			}
			cfg := sc.Config(9)
			cfg.Policy = pol
			cold, err := sim.New(cfg)
			must(t, err)
			res, err := cold.Run()
			must(t, err)

			cfg.SimWorkers = 4
			warm, err := sim.New(cfg)
			must(t, err)
			must(t, warm.Start())
			must(t, warm.StepUntil(context.Background(), 55))
			snap, err := Capture(warm)
			must(t, err)
			data, err := Marshal(snap)
			must(t, err)
			snap = decoded(t, data)
			for _, w := range restoreOn {
				if finished(t, snap, sim.RestoreOptions{SimWorkers: w}) != res.Fingerprint() {
					t.Errorf("captured on 4 workers and restored on %d, the run diverged from the uninterrupted serial run", w)
				}
			}
		})
	}
	for _, name := range []string{"flashcrowd", "reclaimstress", "lossy", "recovery"} {
		row(name, name, "", 1, 8)
	}
	for _, pol := range []string{"hysteresis", "predictive", "costaware", "static"} {
		row("policy-"+pol, "flashcrowd", pol, 1)
	}
}
