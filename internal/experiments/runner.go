// The sweep engine: every experiment in this package is a list of
// deterministic sim.Config runs, and Runner.Run is the one place that
// decides what runs where. It fans the list out over a bounded worker
// pool, cancels mid-run via context (sim.StepUntil polls it between
// ticks), and — because many lists contain runs that share a long
// deterministic prefix — finds those, simulates the prefix once, snapshots
// it, and restores one tail per member (sim.RestoreWith). A restored tail
// continues exactly as its own cold run would have, so a job's result
// never depends on which other jobs are in the list; only the wall clock
// does (TestRunIndependentOfListComposition pins it for the whole
// scenario table).
package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"

	"matrix/internal/game"
	"matrix/internal/sim"
)

// Job names one simulation configuration inside a sweep.
type Job struct {
	// Name labels the run in results and errors.
	Name string
	// Config is the simulation to run.
	Config sim.Config
	// Family claims a deterministic warmup prefix shared with every other
	// job of the same family: identical configs (apart from script tail,
	// duration and SimWorkers) whose script events before WarmupSeconds
	// match exactly. Run checks the claim and simulates the prefix once per
	// family. Empty means the job shares nothing.
	Family string
	// WarmupSeconds is the family's branch point; every member declares the
	// same value. A point outside the job's own run (<= 0, or at or past
	// its duration) leaves the job out of the family.
	WarmupSeconds float64
	// TailPolicy, when set, swaps the decision policy in at the branch
	// point with fresh state (sim.RestoreOptions.Policy): the run executes
	// under Config.Policy before WarmupSeconds and under TailPolicy after.
	// The policy study uses it to hand every rival the same warmed-up
	// fleet. It needs a Family to name the branch point.
	TailPolicy string
}

// branches reports whether the job takes part in its family's shared warmup.
func (j Job) branches() bool {
	return j.Family != "" && j.WarmupSeconds > 0 && j.WarmupSeconds < j.Config.DurationSeconds
}

// RunOutput is one job's outcome. Exactly one of Result/Err is set.
type RunOutput struct {
	// Name echoes the job name.
	Name string
	// Result is the completed run's result.
	Result *sim.Result
	// Err is the failure (sim error, or the context's error for runs
	// cancelled or never started).
	Err error
}

// Runner executes sweeps of simulations on a worker pool. The zero value
// is ready to use.
type Runner struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// SimWorkers bounds each simulation's intra-sim tick worker pool
	// (sim.Config.SimWorkers) for jobs that do not set one themselves;
	// <= 1 steps each tick serially. Fingerprints are identical for any
	// value, so a sweep may combine both pools — across-sim workers for
	// many small runs, intra-sim workers for a few large ones.
	SimWorkers int
	// Policy names the decision policy (internal/policy) applied to jobs
	// that do not set sim.Config.Policy themselves; empty keeps each job's
	// own choice (usually the paper policy).
	Policy string
}

// Run executes the jobs and returns one output per job, in submission
// order. The returned error is the first job error in that order
// (cancellation included); the other outputs stay intact so callers can
// inspect partial sweeps. A malformed family is a mistake in the list
// itself: Run reports the first one, in submission order, before
// simulating anything, and returns no outputs.
//
// Jobs that share a family (see Job.Family) run their warmup once: the
// prefix is simulated under the first member's config, captured, and every
// member restored from the capture with its own script tail, duration and
// tail policy. A family's lone member cold-starts unless it names a tail
// policy — with nobody to share with, the round trip buys nothing.
func (r Runner) Run(ctx context.Context, jobs []Job) ([]RunOutput, error) {
	jobs = slices.Clone(jobs)
	outs := make([]RunOutput, len(jobs))
	for i := range jobs {
		cfg := &jobs[i].Config
		if cfg.SimWorkers == 0 {
			cfg.SimWorkers = r.SimWorkers
		}
		// Before family validation, so the warmup runs under the sweep-wide
		// policy and every tail inherits it, with its state, from the capture.
		if cfg.Policy == "" {
			cfg.Policy = r.Policy
		}
		outs[i].Name = jobs[i].Name
	}
	families, cold, err := groupFamilies(jobs)
	if err != nil {
		return nil, err
	}

	// One FIFO of tasks feeds the pool. Every job is exactly one task and
	// every family one more (its warmup, which enqueues the members' tails
	// when it is done), so the buffer never fills and a warmup never holds
	// a worker waiting.
	tasks := make(chan func(), len(jobs)+len(families))
	var pending sync.WaitGroup
	submit := func(i int, run func() (*sim.Result, error)) {
		pending.Add(1)
		tasks <- func() {
			defer pending.Done()
			if outs[i].Err = ctx.Err(); outs[i].Err != nil {
				return // cancelled: drain the queue without building the sim
			}
			res, err := run()
			if err != nil {
				outs[i].Err = fmt.Errorf("run %q: %w", jobs[i].Name, err)
				return
			}
			outs[i].Result = res
		}
	}
	var workers sync.WaitGroup
	for w := min(r.workers(), cap(tasks)); w > 0; w-- {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for task := range tasks {
				task()
			}
		}()
	}
	// Warmups go first: their tails queue up behind the cold jobs, so the
	// sweep ends on many short tails instead of one serial warmup.
	for _, members := range families {
		first := jobs[members[0]]
		pending.Add(1)
		tasks <- func() {
			defer pending.Done()
			st, err := warmup(ctx, first.Config, first.WarmupSeconds)
			if err != nil {
				for _, i := range members {
					outs[i].Err = fmt.Errorf("family %q warmup: %w", first.Family, err)
				}
				return
			}
			for _, i := range members {
				submit(i, func() (*sim.Result, error) { return tail(ctx, st, jobs[i]) })
			}
		}
	}
	for _, i := range cold {
		submit(i, func() (*sim.Result, error) {
			s, err := start(jobs[i].Config)
			if err != nil {
				return nil, err
			}
			return finish(ctx, s)
		})
	}
	pending.Wait()
	close(tasks)
	workers.Wait()

	for _, o := range outs {
		if o.Err != nil {
			return outs, o.Err
		}
	}
	return outs, nil
}

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// start builds cfg's simulation and spawns its base population.
func start(cfg sim.Config) (*sim.Sim, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return s, s.Start()
}

// finish drives s from wherever it stands to the end of its run.
func finish(ctx context.Context, s *sim.Sim) (*sim.Result, error) {
	if err := s.StepUntil(ctx, math.Inf(1)); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}

// warmup simulates cfg's shared prefix up to (but not including) the first
// tick at or after `until` seconds, then captures the state. The script is
// truncated to the prefix so the captured state carries no tail events —
// each restore installs its member's full script.
func warmup(ctx context.Context, cfg sim.Config, until float64) (*sim.State, error) {
	cfg.Script = cfg.Script.PrefixBefore(until)
	s, err := start(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.StepUntil(ctx, until); err != nil {
		return nil, err
	}
	return s.CaptureState()
}

// tail restores a family member from the warmup capture and finishes it.
func tail(ctx context.Context, st *sim.State, j Job) (*sim.Result, error) {
	s, err := sim.RestoreWith(st, sim.RestoreOptions{
		Script:          j.Config.Script,
		DurationSeconds: j.Config.DurationSeconds,
		SimWorkers:      j.Config.SimWorkers,
		Policy:          j.TailPolicy,
	})
	if err != nil {
		return nil, err
	}
	return finish(ctx, s)
}

// groupFamilies partitions the job indexes into the families that share a
// warmup (in order of first appearance, each validated) and the jobs that
// cold-start (in submission order).
func groupFamilies(jobs []Job) (families [][]int, cold []int, err error) {
	size := map[string]int{}
	for _, j := range jobs {
		if j.branches() {
			size[j.Family]++
		}
	}
	slot := map[string]int{}
	for i, j := range jobs {
		switch {
		case j.branches() && (size[j.Family] > 1 || j.TailPolicy != ""):
			k, ok := slot[j.Family]
			if !ok {
				k = len(families)
				slot[j.Family] = k
				families = append(families, nil)
			}
			families[k] = append(families[k], i)
		case j.TailPolicy != "":
			return nil, nil, fmt.Errorf("experiments: job %q names tail policy %q but no warmup inside its run to swap it in at", j.Name, j.TailPolicy)
		default:
			cold = append(cold, i)
		}
	}
	for _, members := range families {
		if err := validateFamily(jobs, members); err != nil {
			return nil, nil, err
		}
	}
	return families, cold, nil
}

// validateFamily checks the branching soundness conditions: every member
// agrees with the first on the warmup point, on the whole config apart from
// script, duration and SimWorkers (an execution knob that never affects
// results), and on every script event before the warmup point.
func validateFamily(jobs []Job, members []int) error {
	shared := func(j Job) (sim.Config, game.Script) {
		cfg := j.Config
		cfg.Script, cfg.DurationSeconds, cfg.SimWorkers = nil, 0, 0
		return cfg, j.Config.Script.PrefixBefore(j.WarmupSeconds)
	}
	first := jobs[members[0]]
	base, prefix := shared(first)
	for _, i := range members[1:] {
		j := jobs[i]
		cfg, p := shared(j)
		switch {
		case j.WarmupSeconds != first.WarmupSeconds:
			return fmt.Errorf("experiments: family %q: %q and %q disagree on the warmup point (%g vs %g)", j.Family, first.Name, j.Name, first.WarmupSeconds, j.WarmupSeconds)
		case !reflect.DeepEqual(cfg, base):
			return fmt.Errorf("experiments: family %q: %q differs from %q beyond script/duration", j.Family, j.Name, first.Name)
		case !reflect.DeepEqual(p, prefix):
			return fmt.Errorf("experiments: family %q: %q and %q have different script prefixes before t=%g", j.Family, j.Name, first.Name, j.WarmupSeconds)
		}
	}
	return nil
}

// RunConfigs is the common case: run the configurations concurrently and
// return their results in order, failing on the first error.
func (r Runner) RunConfigs(ctx context.Context, cfgs []sim.Config) ([]*sim.Result, error) {
	jobs := make([]Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = Job{Name: fmt.Sprintf("cfg-%d", i), Config: cfg}
	}
	outs, err := r.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	results := make([]*sim.Result, len(outs))
	for i, o := range outs {
		results[i] = o.Result
	}
	return results, nil
}
