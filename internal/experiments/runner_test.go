package experiments

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/load"
	"matrix/internal/sim"
)

// poolTestConfig is a fast hotspot run for pool tests, tuned so splits,
// reclaims, boundary handoffs AND queue saturation all occur: with the
// service rate this low, processing order feeds back into state, so any
// nondeterministic ordering anywhere in the pipeline diverges the
// fingerprint within seconds (this exact shape caught the grid-query
// map-iteration bug).
func poolTestConfig(seed int64) sim.Config {
	return sim.Config{
		Profile:            game.Bzflag(),
		World:              World,
		Seed:               seed,
		DurationSeconds:    25,
		MaxServers:         4,
		BasePopulation:     30,
		ServiceRatePerTick: 60,
		Script: game.Script{
			{At: 5, Kind: game.EventJoin, Count: 150, Center: geom.Pt(750, 250), Spread: 80, Tag: "hot"},
			{At: 15, Kind: game.EventLeave, Count: 150, Tag: "hot"},
		},
		LoadPolicy: load.Config{
			OverloadClients:  60,
			UnderloadClients: 30,
			OverloadQueue:    400,
			SplitCooldown:    2 * time.Second,
			ReclaimDwell:     3 * time.Second,
		},
	}
}

// TestRunnerOrderPreserved submits jobs whose wall-clock ordering is the
// reverse of their submission ordering (the first job is by far the
// slowest) and checks the outputs still come back in submission order.
func TestRunnerOrderPreserved(t *testing.T) {
	t.Parallel()
	var jobs []Job
	for i := 0; i < 6; i++ {
		cfg := poolTestConfig(int64(i))
		cfg.Script = nil
		cfg.BasePopulation = 20
		cfg.DurationSeconds = 60 - 9*float64(i) // 60s .. 15s
		jobs = append(jobs, Job{Name: fmt.Sprintf("job-%d", i), Config: cfg})
	}
	outs, err := (Runner{Workers: 4}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, o := range outs {
		got = append(got, o.Name)
	}
	for i, name := range got {
		if want := fmt.Sprintf("job-%d", i); name != want {
			t.Fatalf("output order %v, want submission order", got)
		}
	}
	if len(got) != len(jobs) {
		t.Fatalf("got %d outputs, want %d", len(got), len(jobs))
	}
}

// TestRunnerCancelMidRun cancels a sweep of effectively unbounded runs and
// requires prompt return: workers poll the context between simulation
// steps (the point of the steppable primitives), not between runs.
func TestRunnerCancelMidRun(t *testing.T) {
	t.Parallel()
	var jobs []Job
	for i := 0; i < 4; i++ {
		cfg := poolTestConfig(int64(i))
		cfg.Script = nil
		cfg.DurationSeconds = 1e6 // ~115 simulated days: never finishes honestly
		jobs = append(jobs, Job{Name: fmt.Sprintf("long-%d", i), Config: cfg})
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	outs, err := (Runner{Workers: 2}).Run(ctx, jobs)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(outs) != len(jobs) {
		t.Fatalf("got %d outputs, want %d (cancelled jobs must still report)", len(outs), len(jobs))
	}
	for _, o := range outs {
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", o.Name, o.Err)
		}
	}
}

// TestRunnerPoolRace floods an 8-worker pool with more jobs than workers;
// run under -race (CI does) it verifies the pool, the per-run state and
// the output slots share nothing hot.
func TestRunnerPoolRace(t *testing.T) {
	t.Parallel()
	var jobs []Job
	for i := 0; i < 12; i++ {
		cfg := poolTestConfig(int64(100 + i))
		cfg.DurationSeconds = 10
		jobs = append(jobs, Job{Name: fmt.Sprintf("race-%d", i), Config: cfg})
	}
	outs, err := (Runner{Workers: 8}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Result == nil {
			t.Fatalf("job %d returned no result", i)
		}
		if o.Name != jobs[i].Name {
			t.Fatalf("output %d is %q, want %q", i, o.Name, jobs[i].Name)
		}
	}
}

// TestRunnerJobError checks that a broken config surfaces as that job's
// error without poisoning the rest of the sweep.
func TestRunnerJobError(t *testing.T) {
	t.Parallel()
	good := poolTestConfig(1)
	good.DurationSeconds = 5
	bad := good
	bad.DurationSeconds = -1
	outs, err := (Runner{Workers: 2}).Run(context.Background(), []Job{
		{Name: "good", Config: good},
		{Name: "bad", Config: bad},
		{Name: "good2", Config: good},
	})
	if err == nil {
		t.Fatal("sweep with a broken config must return an error")
	}
	if outs[0].Err != nil || outs[0].Result == nil {
		t.Errorf("good job failed: %v", outs[0].Err)
	}
	if outs[1].Err == nil {
		t.Error("bad job must carry its error")
	}
	if outs[2].Err != nil || outs[2].Result == nil {
		t.Errorf("good2 job failed: %v", outs[2].Err)
	}
}

// TestScenarioTable checks the table's integrity: unique names, lookups,
// and that every scenario's config (including its generated script)
// passes sim validation.
func TestScenarioTable(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for _, sc := range Scenarios() {
		if sc.Name == "" || sc.Title == "" || sc.Config == nil {
			t.Fatalf("incomplete scenario: %+v", sc)
		}
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		got, ok := ScenarioByName(sc.Name)
		if !ok || got.Name != sc.Name {
			t.Fatalf("ScenarioByName(%q) failed", sc.Name)
		}
		if _, err := sim.New(sc.Config(3)); err != nil {
			t.Errorf("scenario %q config invalid: %v", sc.Name, err)
		}
	}
	if len(seen) < 4 {
		t.Errorf("scenario table has %d entries, want >= 4", len(seen))
	}
	if _, ok := ScenarioByName("no-such-scenario"); ok {
		t.Error("lookup of unknown scenario must fail")
	}
	if _, err := RunScenarios(context.Background(), Runner{}, 1, "no-such-scenario"); err == nil {
		t.Error("RunScenarios with unknown name must fail")
	}
}

// TestSheddingScenarioDeterministic runs the shedding scenario — the
// admission chain under flash-crowd churn — on an 8-worker tick engine
// against its cold serial run (the list-composition gate's reference): the
// fingerprints must match byte for byte, and both the rate limiter and the
// shed queue must actually have fired (a vacuously identical run proves
// nothing). The fast version of this check lives in internal/sim; this one
// exercises the real scenario-table entry.
func TestSheddingScenarioDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full 110s shedding scenario twice")
	}
	t.Parallel()
	serial := coldScenario(t, "shedding")
	if serial.RateLimited == 0 {
		t.Error("shedding scenario never rate-limited (limiter mis-tuned?)")
	}
	if serial.AdmissionShed == 0 {
		t.Error("shedding scenario never shed (queue threshold mis-tuned?)")
	}
	cfg := SheddingConfig(tableSeed)
	cfg.SimWorkers = 8
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := pooled.Fingerprint(); got != serial.Fingerprint() {
		t.Errorf("shedding fingerprint diverges between serial and SimWorkers=8:\n--- serial\n%.400s\n--- workers=8\n%.400s", serial.Fingerprint(), got)
	}
}

// TestScenarioSweep runs the three new stress scenarios end to end on the
// pool and checks each one exercises the machinery it was written for.
func TestScenarioSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep simulates three 150s+ stress scenarios")
	}
	t.Parallel()
	r, err := RunScenarios(context.Background(), Runner{}, 1, "flashcrowd", "migration", "reclaimstress")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"flashcrowd", "migration", "reclaimstress"} {
		if r.Numbers[name+"/peak_servers"] < 2 {
			t.Errorf("%s: never split (peak=%v)", name, r.Numbers[name+"/peak_servers"])
		}
		if r.Numbers[name+"/splits"] < 1 {
			t.Errorf("%s: no splits recorded", name)
		}
	}
	// Migration storms drag crowds across boundaries: clients must switch.
	if r.Numbers["migration/redirects"] == 0 {
		t.Error("migration storm produced no redirects")
	}
	// Reclaim stress must come back down between surges.
	if r.Numbers["reclaimstress/reclaims"] < 1 {
		t.Error("reclaim stress never reclaimed")
	}
}
