package experiments

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"matrix/internal/sim"
)

// This file is the package's equivalence table. The sweep engine's contract
// is the determinism contract one level up — a job's Result.Fingerprint is
// unchanged by the list it runs in — and every test here is a row of it: a
// list that must hand each job the fingerprint of that job's cold run — plain
// sim.Run of its config, the start nothing can have influenced. (internal/sim
// has the table for the ways of running one sim, internal/snapshot for the
// bytes.)

// coldRuns memoises the references: one cold run per (policy, job, seed),
// executed at most once per test binary however many rows — and whichever
// scenario tests — read it.
var coldRuns sync.Map // "policy/job/seed" → *coldRun

type coldRun struct {
	once sync.Once
	res  *sim.Result
	err  error
}

// cold returns the result of j's config under pol run by plain sim.Run: no
// Runner, no list, no family.
func cold(t *testing.T, pol string, j Job) *sim.Result {
	t.Helper()
	v, _ := coldRuns.LoadOrStore(fmt.Sprintf("%s/%s/%d", pol, j.Name, j.Config.Seed), &coldRun{})
	c := v.(*coldRun)
	c.once.Do(func() {
		cfg := j.Config
		if cfg.Policy == "" {
			cfg.Policy = pol
		}
		var s *sim.Sim
		if s, c.err = sim.New(cfg); c.err == nil {
			c.res, c.err = s.Run()
		}
	})
	if c.err != nil {
		t.Fatalf("cold run of %s under policy %q: %v", j.Name, pol, c.err)
	}
	return c.res
}

// coldScenario is the cold run of a row of the scenario table at the seed
// the list-composition gate uses, for the tests that only want to look at it.
func coldScenario(t *testing.T, name string) *sim.Result {
	t.Helper()
	sc, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("scenario %q missing from the table", name)
	}
	return cold(t, "", sc.job(tableSeed))
}

const tableSeed = 5

// unchanged runs the list once and compares every job in it with its cold
// run, each comparison a parallel subtest (the cold runs are the slow part).
func unchanged(t *testing.T, r Runner, jobs []Job) []RunOutput {
	t.Helper()
	together, err := r.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if together[i].Name != j.Name {
			t.Fatalf("output %d is %q, want %q", i, together[i].Name, j.Name)
		}
		t.Run(j.Name, func(t *testing.T) {
			t.Parallel()
			if together[i].Result.Fingerprint() != cold(t, r.Policy, j).Fingerprint() {
				t.Errorf("%q: result in the list differs from its cold run alone", j.Name)
			}
		})
	}
	return together
}

// TestRunnerDeterminism is the sweep engine's core contract: a fixed seed
// produces a byte-identical Result whether the run executes serially via
// Run() or as one of eight identical runs racing each other on an
// eight-worker pool.
func TestRunnerDeterminism(t *testing.T) {
	t.Parallel()
	want := cold(t, "", Job{Name: "pool", Config: poolTestConfig(7)}).Fingerprint()
	cfgs := make([]sim.Config, 8)
	for i := range cfgs {
		cfgs[i] = poolTestConfig(7)
	}
	results, err := (Runner{Workers: 8}).RunConfigs(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if got := res.Fingerprint(); got != want {
			t.Errorf("pooled run %d diverged from serial run:\n--- pooled\n%.400s\n--- serial\n%.400s", i, got, want)
		}
	}
}

// TestFamilySharesWarmup is the fast version of the gate below (it runs
// under -short and -race): the family is really grouped, shared results
// equal cold ones, and a tail policy really swaps in.
func TestFamilySharesWarmup(t *testing.T) {
	t.Parallel()
	jobs := familyTestJobs()
	families, coldJobs, err := groupFamilies(jobs)
	if err != nil || len(families) != 1 || len(families[0]) != 3 || len(coldJobs) != 0 {
		t.Fatalf("groupFamilies = %v, %v, %v; want one family of three", families, coldJobs, err)
	}
	// A lone member has nobody to share with; a warmup outside the run
	// cannot be branched at. Both cold-start.
	lone := jobs[:1]
	outside := familyTestJobs()
	outside[1].Config.DurationSeconds = 10
	for _, list := range [][]Job{lone, outside[1:2]} {
		if families, coldJobs, err := groupFamilies(list); err != nil || len(families) != 0 || len(coldJobs) != 1 {
			t.Errorf("groupFamilies(%q) = %v, %v, %v; want a cold start", list[0].Name, families, coldJobs, err)
		}
	}

	shared := unchanged(t, Runner{Workers: 2}, jobs)

	// A tail policy applies even to a lone member (its result must not
	// depend on company either) and changes the run from the branch point.
	ctx := context.Background()
	swapped := jobs[0]
	swapped.TailPolicy = "static"
	outs, err := (Runner{}).Run(ctx, []Job{swapped})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Result.Fingerprint() == shared[0].Result.Fingerprint() {
		t.Error("tail policy static left the run unchanged")
	}
	swapped.Family = ""
	if _, err := (Runner{}).Run(ctx, []Job{swapped}); err == nil {
		t.Error("a tail policy with no branch point must be refused, not ignored")
	}
}

// TestRunIndependentOfListComposition is the sweep engine's acceptance gate
// on the real scenario table: a job's result must not depend on which other
// jobs share its list. Under the paper policy every fingerprint from one Run
// of the whole table (the surge family shares one warmup there) equals that
// job's cold run; under a stateful rival, whose state is live in the warmup
// capture, the list is the jobs whose path through Run differs by company —
// the family — and one bystander that cold-starts beside them.
func TestRunIndependentOfListComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scenario table twice and the surge family twice more")
	}
	var table, surge []Job
	for _, sc := range Scenarios() {
		j := sc.job(tableSeed)
		table = append(table, j)
		if j.Family != "" || j.Name == "flashcrowd" {
			surge = append(surge, j)
		}
	}
	for _, leg := range []struct {
		pol  string
		jobs []Job
	}{{"", table}, {"costaware", surge}} {
		t.Run("policy="+leg.pol, func(t *testing.T) {
			t.Parallel()
			families, coldJobs, err := groupFamilies(leg.jobs)
			if err != nil || len(families) != 1 || len(coldJobs) == 0 {
				t.Fatalf("families %v, cold %v, err %v; want one shared warmup and a bystander, or the gate compares cold runs with themselves", families, coldJobs, err)
			}
			unchanged(t, Runner{Policy: leg.pol}, leg.jobs)
		})
	}
}
