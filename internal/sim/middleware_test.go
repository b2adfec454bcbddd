package sim

import (
	"context"
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
	res := chain.ref(t).res
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
	for _, n := range chain.sim.nodes {
		st := n.MW.Stats()
		limited += st.RateLimited.Value()
		shed += st.Shed.Value()
	}
	if uint64(limited) != res.RateLimited || uint64(shed) != res.AdmissionShed {
		t.Errorf("chain stats ratelimited=%d shed=%d, result says %d / %d", limited, shed, res.RateLimited, res.AdmissionShed)
	}
	if !strings.Contains(res.Fingerprint(), "middleware ratelimited=") {
		t.Error("fingerprint missing the middleware line")
	}

	if strings.Contains(clean.ref(t).want, "middleware") {
		t.Error("chain-free fingerprint grew a middleware line")
	}

	// A state-losing crash kills the server process, and its in-memory token
	// buckets with it: the spare that adopts the region has judged nobody, so
	// every client that rejoins there starts on a fresh budget, while what the
	// dead server's chain dropped stays in the result.
	const root, spare = id.ServerID(1), id.ServerID(2)
	cfg := mwTestConfig(17)
	cfg.CheckpointEverySeconds = 1
	cfg.Script = append(game.Script{{At: 3, Kind: game.EventCrashLose, Servers: []id.ServerID{root}}}, cfg.Script...)
	s := mustNew(t, cfg)
	must(t, s.Start())
	for s.res.Restarts == 0 && s.NextTime() < 10 {
		must(t, s.Step())
	}
	victim, adopter := s.node(root), s.node(spare)
	if s.res.Restarts != 1 || !adopter.Core.Active() {
		t.Fatalf("by t=%g: %d adoptions, spare active=%v; want the spare to have adopted the root's region", s.Now(), s.res.Restarts, adopter.Core.Active())
	}
	if len(victim.MW.Limiter().State()) == 0 {
		t.Fatal("root server judged no client before the crash; the check would be vacuous")
	}
	if got := adopter.MW.Limiter().State(); len(got) != 0 {
		t.Errorf("the adopter starts with %d token buckets; its chain has judged nobody", len(got))
	}
	dropsBefore := victim.MW.Stats().RateLimited.Value()
	must(t, s.StepUntil(context.Background(), s.Now()+3))
	if len(adopter.MW.Limiter().State()) == 0 {
		t.Error("no client rejoined the adopter within three seconds")
	}
	var all int64
	for _, n := range s.nodes {
		all += n.MW.Stats().RateLimited.Value()
	}
	if got := victim.MW.Stats().RateLimited.Value(); got != dropsBefore || uint64(all) != s.res.RateLimited {
		t.Errorf("dead chain dropped %d (was %d), all chains %d, result says %d", got, dropsBefore, all, s.res.RateLimited)
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
