// Repository benchmarks: what neither `go run ./benchmark` (the per-layer
// and end-to-end perf record, see BENCHMARK.json) nor the experiments
// tests (which assert every E-row's headline numbers) cover — the wall
// clock of the whole scenario sweep and of the intra-sim tick engine, and
// an ablation of the reclaim dwell, a design choice the paper leaves open.
//
//	go test -bench=. -benchtime=1x
package matrix_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"matrix/internal/experiments"
	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/load"
	"matrix/internal/sim"
)

// --- scenario sweep (shared scenario table) ---

// BenchmarkScenarioSweep runs every named workload scenario concurrently
// on the sweep engine and reports each scenario's headline numbers; it is
// also the wall-clock measure of the engine itself (one full sweep per
// iteration).
func BenchmarkScenarioSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunScenarios(context.Background(), experiments.Runner{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range experiments.ScenarioNames() {
			b.ReportMetric(r.Numbers[name+"/peak_servers"], name+"-peak-servers")
		}
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// BenchmarkScenarioSimWorkers measures the intra-sim tick engine: the two
// biggest single runs in the table (the surge family's shared warmup
// scenario and the crash-recovery scenario) at increasing
// Config.SimWorkers. Results are byte-identical across the sweep (the
// engine's contract); only the wall clock moves. docs/PERF.md records
// this table — regenerate with:
//
//	go test -bench ScenarioSimWorkers -benchtime 3x
func BenchmarkScenarioSimWorkers(b *testing.B) {
	if testing.Short() {
		b.Skip("8 full runs of the two heaviest scenarios")
	}
	for _, name := range []string{"surge-drain", "recovery"} {
		sc, ok := experiments.ScenarioByName(name)
		if !ok {
			b.Fatalf("scenario %q missing from the table", name)
		}
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/sim-workers=%d", name, w), func(b *testing.B) {
				var peak float64
				for i := 0; i < b.N; i++ {
					cfg := sc.Config(1)
					cfg.SimWorkers = w
					s, err := sim.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					res, err := s.Run()
					if err != nil {
						b.Fatal(err)
					}
					peak = float64(res.PeakServers)
				}
				b.ReportMetric(peak, "peak-servers")
			})
		}
	}
}

// --- Ablation (a design choice the paper leaves open) ---

// ablationConfig is a small hotspot scenario shared by the ablations.
func ablationConfig(seed int64) sim.Config {
	world := geom.R(0, 0, 1000, 1000)
	return sim.Config{
		Profile:         game.Bzflag(),
		World:           world,
		Seed:            seed,
		DurationSeconds: 90,
		MaxServers:      6,
		BasePopulation:  20,
		Script: game.Script{
			{At: 5, Kind: game.EventJoin, Count: 120, Center: geom.Pt(800, 300), Spread: 150, Tag: "hot"},
			{At: 40, Kind: game.EventLeave, Count: 120, Tag: "hot"},
		},
		LoadPolicy: load.Config{
			OverloadClients:  60,
			UnderloadClients: 30,
			SplitCooldown:    2 * time.Second,
			ReclaimDwell:     3 * time.Second,
			ReclaimHeadroom:  0.8,
		},
	}
}

// BenchmarkAblationReclaimDwell compares the paper-style dwell hysteresis
// against a near-zero dwell, counting topology churn (splits+reclaims): the
// "simple heuristics to prevent oscillations" at work.
func BenchmarkAblationReclaimDwell(b *testing.B) {
	run := func(dwell time.Duration) float64 {
		cfg := ablationConfig(3)
		cfg.LoadPolicy.ReclaimDwell = dwell
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		return float64(len(res.Events))
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(3 * time.Second)
		without = run(time.Millisecond)
	}
	b.ReportMetric(with, "events-with-dwell")
	b.ReportMetric(without, "events-no-dwell")
}
