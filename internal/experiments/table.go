package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"matrix/internal/sim"
)

// Experiment is one row of the evaluation: the key `matrix-bench -exp`
// selects it by and the function that produces its report. The package
// doc's index maps keys to the paper's figures.
type Experiment struct {
	Key string
	Run func(ctx context.Context, s *Suite) (*Report, error)
}

// Suite is what the experiments of one invocation share.
type Suite struct {
	Runner Runner
	Seed   int64
	// Scenarios restricts the "scenarios" sweep; empty means the whole table.
	Scenarios []string

	fig2 *sim.Result // Figure 2's two panels render one run
}

// Experiments returns the evaluation table in report order.
func Experiments() []Experiment {
	seeded := func(run func(context.Context, Runner, int64) (*Report, error)) func(context.Context, *Suite) (*Report, error) {
		return func(ctx context.Context, s *Suite) (*Report, error) { return run(ctx, s.Runner, s.Seed) }
	}
	return []Experiment{
		{"fig2a", func(ctx context.Context, s *Suite) (*Report, error) { return s.figure2(ctx, Figure2a) }},
		{"fig2b", func(ctx context.Context, s *Suite) (*Report, error) { return s.figure2(ctx, Figure2b) }},
		{"staticvs", seeded(RunStaticVsMatrix)},
		{"microswitch", seeded(RunSwitchingMicro)},
		{"micromc", func(ctx context.Context, _ *Suite) (*Report, error) { return RunCoordinatorMicro(ctx) }},
		{"microtraffic", seeded(RunTrafficMicro)},
		{"userstudy", seeded(RunUserStudy)},
		{"asymptotic", func(context.Context, *Suite) (*Report, error) { return RunAsymptotic(), nil }},
		{"degraded", seeded(RunDegradedStaticVsMatrix)},
		{"recovery", seeded(RunRecovery)},
		{"policy", seeded(RunPolicyStudy)},
		{"scenarios", func(ctx context.Context, s *Suite) (*Report, error) {
			return RunScenarios(ctx, s.Runner, s.Seed, s.Scenarios...)
		}},
	}
}

// ExperimentKeys returns the table's keys in report order.
func ExperimentKeys() []string {
	var keys []string
	for _, e := range Experiments() {
		keys = append(keys, e.Key)
	}
	return keys
}

// SelectExperiments resolves an -exp list ("all", or comma-separated keys)
// to table rows — in table order whatever the request's order, each row
// once. An unknown key fails with the table's keys listed.
func SelectExperiments(list string) ([]Experiment, error) {
	table := Experiments()
	if list == "all" {
		return table, nil
	}
	keys := ExperimentKeys()
	want := map[string]bool{}
	for _, key := range strings.Split(list, ",") {
		if key = strings.TrimSpace(key); key == "" {
			continue
		}
		if !slices.Contains(keys, key) {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", key, strings.Join(keys, ","))
		}
		want[key] = true
	}
	var rows []Experiment
	for _, e := range table {
		if want[e.Key] {
			rows = append(rows, e)
		}
	}
	return rows, nil
}

// figure2 renders one panel of the paper's headline run (a 600-client
// hotspot, 300 simulated seconds), simulating it on first use.
func (s *Suite) figure2(ctx context.Context, panel func(*sim.Result) *Report) (*Report, error) {
	if s.fig2 == nil {
		results, err := s.Runner.RunConfigs(ctx, []sim.Config{Figure2Config(s.Seed)})
		if err != nil {
			return nil, err
		}
		s.fig2 = results[0]
	}
	return panel(s.fig2), nil
}
