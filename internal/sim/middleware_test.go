package sim

import (
	"strings"
	"testing"

	"matrix/internal/game"
	"matrix/internal/id"
)

// mwTestConfig is the step-test workload with the admission chain turned
// on and tuned to bite: 2 updates/sec per client against bzflag's 5/sec
// offered rate, a shed threshold far below the load policy's overload
// queue, and a service rate slow enough that the join burst backs the
// hotspot's queue up past it.
func mwTestConfig(seed int64) Config {
	cfg := stepTestConfig(seed)
	cfg.ServiceRatePerTick = 40
	cfg.Middleware = &MiddlewareConfig{
		RateLimitPerSec: 2,
		RateLimitBurst:  2,
		ShedQueue:       20,
	}
	return cfg
}

// TestMiddlewareCountsAndFingerprint pins the chain's observable effect:
// both admission counters fire under the hotspot workload and equal the sum
// of the per-node production chains' own drop counters (the sim counts the
// chain's verdicts, it does not judge anything itself), the fingerprint
// grows a middleware line, and a chain-free run of the same seed keeps its
// historical fingerprint (no line, different trajectory).
func TestMiddlewareCountsAndFingerprint(t *testing.T) {
	s := mustNew(t, mwTestConfig(17))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.MiddlewareActive {
		t.Error("MiddlewareActive not set on a chain-enabled run")
	}
	if res.RateLimited == 0 {
		t.Error("rate limiter never fired under a 5/sec workload capped at 2/sec")
	}
	if res.AdmissionShed == 0 {
		t.Error("shed queue never fired under the join burst")
	}
	var limited, shed int64
	for _, n := range s.nodes {
		st := n.mw.Stats()
		limited += st.RateLimited.Value()
		shed += st.Shed.Value()
	}
	if uint64(limited) != res.RateLimited || uint64(shed) != res.AdmissionShed {
		t.Errorf("chain stats ratelimited=%d shed=%d, result says %d / %d", limited, shed, res.RateLimited, res.AdmissionShed)
	}
	if !strings.Contains(res.Fingerprint(), "middleware ratelimited=") {
		t.Error("fingerprint missing the middleware line")
	}

	plain, err := mustNew(t, stepTestConfig(17)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.Fingerprint(), "middleware") {
		t.Error("chain-free fingerprint grew a middleware line")
	}

	// A state-losing crash kills the server process, and its in-memory token
	// buckets with it: the restart tick must leave the node's limiter empty
	// (the restart disconnected its clients, so nothing refills it within the
	// tick) while the chain's drop counters, which feed Result, carry on.
	const root = id.ServerID(1)
	cfg := mwTestConfig(17)
	cfg.Script = append(game.Script{
		{At: 3, Kind: game.EventCrashLose, Servers: []id.ServerID{root}},
		{At: 4, Kind: game.EventRecover, Servers: []id.ServerID{root}},
	}, cfg.Script...)
	s = mustNew(t, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for s.NextTime() < 4 {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	n := s.node(root)
	if len(n.mw.Limiter().State()) == 0 {
		t.Fatal("root server judged no client before the crash; the check would be vacuous")
	}
	dropsBefore := n.mw.Stats().RateLimited.Value()
	if err := s.Step(); err != nil { // the recover tick
		t.Fatal(err)
	}
	if s.res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", s.res.Restarts)
	}
	if got := n.mw.Limiter().State(); len(got) != 0 {
		t.Errorf("restarted node still holds %d token buckets", len(got))
	}
	if n.mw.Stats().RateLimited.Value() != dropsBefore {
		t.Error("restart disturbed the chain's drop counters")
	}
}

// TestMiddlewareFingerprintWorkerInvariant is the determinism leg of the
// admission chain: every judge point runs on the stepping goroutine, so
// the shedding trajectory — and with it the fingerprint — must be
// byte-identical between the serial path and a worker pool.
func TestMiddlewareFingerprintWorkerInvariant(t *testing.T) {
	cfg := mwTestConfig(23)
	want := runWithWorkers(t, cfg, 1)
	if !strings.Contains(want, "middleware ratelimited=") {
		t.Fatal("middleware line missing; the invariance check would be vacuous")
	}
	for _, w := range []int{2, 8} {
		if got := runWithWorkers(t, cfg, w); got != want {
			t.Errorf("SimWorkers=%d fingerprint diverges from serial:\n--- serial\n%.400s\n--- workers=%d\n%.400s", w, want, w, got)
		}
	}
}

// TestMiddlewareSnapshotRoundTrip pauses a chain-enabled run mid-flight,
// captures it, restores, and finishes: the fingerprint must match the
// uninterrupted run's. This pins the limiter-bucket state (NodeState.
// Limiter) and the admission counters through the snapshot round trip —
// a dropped bucket would refill a client's burst allowance and change
// every count downstream.
func TestMiddlewareSnapshotRoundTrip(t *testing.T) {
	cfg := mwTestConfig(17)
	want, err := mustNew(t, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}

	s := mustNew(t, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for !s.Done() && s.NextTime() < 15 {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreWith(st, RestoreOptions{SimWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for !restored.Done() {
		if err := restored.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := restored.Finish().Fingerprint(); got != want.Fingerprint() {
		t.Errorf("restored run diverges from uninterrupted run:\n--- uninterrupted\n%.400s\n--- restored\n%.400s", want.Fingerprint(), got)
	}
}

// TestMiddlewareConfigValidation rejects nonsense knobs at New time, in
// line with the rest of Config's parse-time validation.
func TestMiddlewareConfigValidation(t *testing.T) {
	for name, mw := range map[string]*MiddlewareConfig{
		"negative-rate":  {RateLimitPerSec: -1},
		"negative-queue": {ShedQueue: -5},
	} {
		cfg := stepTestConfig(1)
		cfg.Middleware = mw
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted %+v", name, mw)
		}
	}
}
