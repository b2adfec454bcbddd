package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/sim"
)

// familyTestJobs is a fast three-member family over poolTestConfig: a
// shared 150-client surge, then three different tails from t=10.
func familyTestJobs() []Job {
	var jobs []Job
	for i, tail := range []game.Script{
		{{At: 15, Kind: game.EventLeave, Count: 150, Tag: "hot"}},
		{{At: 12, Kind: game.EventJoin, Count: 100, Center: geom.Pt(250, 750), Spread: 60, Tag: "west"}},
		{{At: 11, Kind: game.EventLeave, Count: 75, Tag: "hot"}, {At: 18, Kind: game.EventLeave, Count: 75, Tag: "hot"}},
	} {
		cfg := poolTestConfig(11)
		cfg.Script = append(cfg.Script[:1:1], tail...)
		cfg.DurationSeconds = 20 + 2*float64(i)
		jobs = append(jobs, Job{Name: fmt.Sprintf("member-%d", i), Config: cfg, Family: "pool", WarmupSeconds: 10})
	}
	return jobs
}

// TestFamilyMemberFailure: one member whose tail cannot be restored (an
// invalid event after the branch point) fails alone — its siblings and the
// cold job beside them keep their results, in submission order.
func TestFamilyMemberFailure(t *testing.T) {
	t.Parallel()
	jobs := familyTestJobs()
	jobs[1].Config.Script = append(jobs[1].Config.Script[:1:1], game.Event{At: 12, Kind: game.EventJoin, Count: -1})
	coldCfg := poolTestConfig(1)
	coldCfg.DurationSeconds = 5
	jobs = append(jobs, Job{Name: "bystander", Config: coldCfg})
	outs, err := (Runner{Workers: 2}).Run(context.Background(), jobs)
	if len(outs) != len(jobs) {
		t.Fatalf("got %d outputs, want %d", len(outs), len(jobs))
	}
	for i, o := range outs {
		if o.Name != jobs[i].Name {
			t.Errorf("output %d is %q, want %q", i, o.Name, jobs[i].Name)
		}
		if failed := o.Err != nil; failed != (i == 1) || failed == (o.Result != nil) {
			t.Errorf("%s: err = %v, result set = %v", o.Name, o.Err, o.Result != nil)
		}
	}
	if err == nil || err != outs[1].Err {
		t.Errorf("Run error = %v, want the failing member's %v", err, outs[1].Err)
	}
}

// TestCancelDuringSharedWarmup cancels while the family's one warmup is
// still simulating: every member must report the context's error, and Run
// must return within a poll interval rather than finish the warmup.
func TestCancelDuringSharedWarmup(t *testing.T) {
	t.Parallel()
	jobs := familyTestJobs()
	for i := range jobs {
		jobs[i].Config.Script = nil
		jobs[i].Config.DurationSeconds = 2e6
		jobs[i].WarmupSeconds = 1e6 // ~11 simulated days of warmup
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	outs, err := (Runner{Workers: 2}).Run(ctx, jobs)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, o := range outs {
		if !errors.Is(o.Err, context.Canceled) || !strings.Contains(o.Err.Error(), "warmup") {
			t.Errorf("%s: err = %v, want the warmup's context.Canceled", o.Name, o.Err)
		}
	}
}

// TestFamilyValidation pins the branching soundness checks.
func TestFamilyValidation(t *testing.T) {
	t.Parallel()
	family := func(fam string, cfgs ...sim.Config) []Job {
		var jobs []Job
		for i, cfg := range cfgs {
			jobs = append(jobs, Job{Name: fmt.Sprintf("%s-%d", fam, i), Config: cfg, Family: fam, WarmupSeconds: SurgeWarmupSeconds})
		}
		return jobs
	}
	validate := func(jobs []Job) error {
		_, _, err := groupFamilies(jobs)
		return err
	}
	base := SurgeDrainConfig(1)
	other := SurgeJitterConfig(1)
	if err := validate(family("surge", base, other)); err != nil {
		t.Errorf("surge family should validate: %v", err)
	}
	// Diverging base config (beyond script/duration) is rejected.
	badConfig := other
	badConfig.ServiceRatePerTick++
	if err := validate(family("surge", base, badConfig)); err == nil {
		t.Error("family with differing configs must fail validation")
	}
	// Diverging warmup prefix is rejected.
	badPrefix := other
	badPrefix.Script = append(game.Script{}, badPrefix.Script...)
	badPrefix.Script[0].Count++
	if err := validate(family("surge", base, badPrefix)); err == nil {
		t.Error("family with differing prefixes must fail validation")
	}
	// Disagreeing warmup points are rejected.
	late := family("surge", base, other)
	late[1].WarmupSeconds += 5
	if err := validate(late); err == nil {
		t.Error("family with differing warmup points must fail validation")
	}

	// Two malformed families in one list: the error names the one that
	// comes first in submission order, every time (it used to follow Go's
	// map iteration order), and nothing is simulated.
	list := append(family("zeta", base, badConfig), family("alpha", base, badPrefix)...)
	for i := 0; i < 20; i++ {
		outs, err := (Runner{}).Run(context.Background(), list)
		if outs != nil || err == nil || !strings.Contains(err.Error(), `family "zeta"`) {
			t.Fatalf("attempt %d: outs = %v, err = %v; want only family zeta's error", i, outs, err)
		}
	}
}

// TestRecoveryScenario reads the E7 workload's cold run (the one the
// list-composition gate compares against) and checks the heal machinery
// actually fired, both branches of it: the coordinator finds the two victims
// by lease expiry (three missed beats after the last one at t=54), hands the
// first region to the one free spare on the spot and parks the second until
// the script's recover at t=70 registers a fresh server — an ID the original
// fleet of eight never had — which adopts it; a rejoin storm, measured gaps.
func TestRecoveryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 110s crash-recovery scenario")
	}
	t.Parallel()
	res := coldScenario(t, "recovery")
	var adopts []sim.TopologyEvent
	for _, e := range res.Events {
		if e.Kind == "adopt" {
			adopts = append(adopts, e)
		}
	}
	want := []sim.TopologyEvent{{Time: 58, Kind: "adopt", Server: 8}, {Time: 70, Kind: "adopt", Server: 9}}
	if !slices.Equal(adopts, want) || res.Restarts != 2 {
		t.Errorf("adoptions = %v (restarts=%d), want %v: the spare one lease after the crash, a fresh server at the recover", adopts, res.Restarts, want)
	}
	if res.RecoveryRejoins == 0 {
		t.Error("no client's connection was reset by the crash")
	}
	if res.RecoveryGap.Count() == 0 {
		t.Error("no recovery gaps measured")
	}
	if res.RecoveryGap.Count() > int(res.RecoveryRejoins) {
		t.Errorf("gap samples %d exceed rejoins %d", res.RecoveryGap.Count(), res.RecoveryRejoins)
	}
	if res.PeakServers < 2 {
		t.Errorf("hotspot never split (peak=%d)", res.PeakServers)
	}
}
