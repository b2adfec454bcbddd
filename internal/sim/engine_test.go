package sim

import (
	"fmt"
	"reflect"
	"testing"

	"matrix/internal/game"
	"matrix/internal/id"
	"matrix/internal/netem"
)

// engineScenarios are the equivalence matrix: one clean topology-churning
// run, one netem-impaired run (delay + jitter + burst loss, so per-link
// RNG consumption order matters), and one state-losing crash recovery
// (checkpoints, restart, rejoin storm). Every worker count must produce
// byte-identical fingerprints on all three.
func engineScenarios() map[string]Config {
	impaired := stepTestConfig(23)
	impaired.Netem = netem.Config{Link: netem.LinkConfig{
		DelayMs:    30,
		JitterMs:   120,
		Loss:       0.02,
		BurstLoss:  0.25,
		BurstEnter: 0.02,
		BurstExit:  0.2,
	}}

	crash := stepTestConfig(31)
	crash.DurationSeconds = 40
	crash.CheckpointEverySeconds = 5
	crash.GhostExpirySeconds = 8
	crash.Script = append(crash.Script,
		game.Event{At: 22, Kind: game.EventCrashLose, Servers: []id.ServerID{2}},
		game.Event{At: 28, Kind: game.EventRecover, Servers: []id.ServerID{2}},
	)

	return map[string]Config{
		"clean":    stepTestConfig(17),
		"impaired": impaired,
		"recovery": crash,
	}
}

// engineWorkerCounts is the matrix of pool sizes; short mode keeps the
// race-suite runs (-race -cpu 1,2,8) bounded.
func engineWorkerCounts() []int {
	if testing.Short() {
		return []int{1, 4}
	}
	return []int{1, 2, 3, 8}
}

// runWithWorkers runs cfg with the given pool bound and returns the
// fingerprint.
func runWithWorkers(t *testing.T, cfg Config, workers int) string {
	t.Helper()
	cfg.SimWorkers = workers
	res, err := mustNew(t, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Fingerprint()
}

// TestSimWorkersFingerprintIdentical is the tentpole contract: for a fixed
// config, Result.Fingerprint is byte-identical between the serial path
// (SimWorkers<=1) and any worker-pool size, on clean, netem-impaired and
// crash-recovery runs alike. It also doubles as the race-detector workload
// for the engine (the CI race suite runs this package at -cpu 1,4).
func TestSimWorkersFingerprintIdentical(t *testing.T) {
	for name, cfg := range engineScenarios() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want := runWithWorkers(t, cfg, 1)
			for _, w := range engineWorkerCounts()[1:] {
				if got := runWithWorkers(t, cfg, w); got != want {
					t.Errorf("SimWorkers=%d fingerprint diverges from serial:\n--- serial\n%.400s\n--- workers=%d\n%.400s", w, want, w, got)
				}
			}
		})
	}
}

// TestSimWorkersStateIdenticalMidRun pins schedule independence at the
// state level, not just the aggregate fingerprint: a serial run and an
// 8-worker run paused at the same tick must capture reflect.DeepEqual
// states — the property that lets a snapshot taken under any worker count
// restore under any other.
func TestSimWorkersStateIdenticalMidRun(t *testing.T) {
	cfg := engineScenarios()["impaired"]
	capture := func(workers int) *State {
		c := cfg
		c.SimWorkers = workers
		s := mustNew(t, c)
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
		return st
	}
	serial, parallel := capture(1), capture(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("mid-run state differs between SimWorkers=1 and SimWorkers=8")
	}
}

// TestSimWorkersRestoreAcrossWorkerCounts runs the snapshot/restore leg of
// the matrix: capture a serial run mid-flight, restore it with an 8-worker
// pool (snapshots never record a worker count), finish — the fingerprint
// must equal the uninterrupted serial run's. And symmetrically: capture
// under 8 workers, finish serially.
func TestSimWorkersRestoreAcrossWorkerCounts(t *testing.T) {
	for name, cfg := range engineScenarios() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want := runWithWorkers(t, cfg, 1)

			for _, leg := range []struct {
				name          string
				before, after int
			}{
				{"serial-to-parallel", 1, 8},
				{"parallel-to-serial", 8, 1},
			} {
				c := cfg
				c.SimWorkers = leg.before
				s := mustNew(t, c)
				if err := s.Start(); err != nil {
					t.Fatal(err)
				}
				for !s.Done() && s.NextTime() < cfg.DurationSeconds/2 {
					if err := s.Step(); err != nil {
						t.Fatal(err)
					}
				}
				st, err := s.CaptureState()
				if err != nil {
					t.Fatal(err)
				}
				restored, err := RestoreWith(st, RestoreOptions{SimWorkers: leg.after})
				if err != nil {
					t.Fatal(err)
				}
				for !restored.Done() {
					if err := restored.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if got := restored.Finish().Fingerprint(); got != want {
					t.Errorf("%s/%s: restored run diverges from uninterrupted serial run", name, leg.name)
				}
			}
		})
	}
}

// BenchmarkTickEngine measures one simulation's wall clock serial vs
// pooled (the docs/PERF.md intra-sim table comes from this on a multi-core
// box: go test -bench TickEngine -benchtime 3x matrix/internal/sim).
func BenchmarkTickEngine(b *testing.B) {
	if testing.Short() {
		b.Skip("4 full simulation runs; the CI smoke step only needs benchmarks to compile")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := stepTestConfig(17)
				cfg.SimWorkers = workers
				s, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
