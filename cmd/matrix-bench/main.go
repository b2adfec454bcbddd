// Command matrix-bench regenerates every table and figure in the paper's
// evaluation (§4) and runs the named workload scenarios. Each experiment
// prints the same rows/series the paper reports (the index in
// internal/experiments maps ids to figures). Multi-run experiments and
// scenario sweeps execute concurrently on the sweep engine (bounded by
// -workers).
//
// Usage:
//
//	matrix-bench -list
//	matrix-bench -exp all
//	matrix-bench -exp fig2a,fig2b -seed 7
//	matrix-bench -exp scenarios -scenario flashcrowd,lossy -workers 4
//	matrix-bench -trace out.json                   # Perfetto trace of flashcrowd
//	matrix-bench -record out/ -audit               # flight recording + decision audit
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"matrix/internal/experiments"
	"matrix/internal/flight"
	"matrix/internal/logging"
	"matrix/internal/policy"
	"matrix/internal/sim"
	"matrix/internal/snapshot"
	"matrix/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "matrix-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("matrix-bench", flag.ContinueOnError)
	expFlag := fs.String("exp", "all", "experiments to run: all or a comma list of "+strings.Join(experiments.ExperimentKeys(), ","))
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	simWorkers := fs.Int("sim-workers", 0, "intra-sim tick worker pool per simulation (<=1 = serial; fingerprints are identical for any value)")
	scenarioFlag := fs.String("scenario", "all", "scenarios for -exp scenarios: all or a comma list of "+strings.Join(experiments.ScenarioNames(), ","))
	listFlag := fs.Bool("list", false, "print the scenario and policy tables (name + description) and exit")
	policyFlag := fs.String("policy", "", "decision policy for sweeps and single-run modes: "+strings.Join(policy.Names(), ", ")+" (empty = paper; -exp policy always runs all of them)")
	snapFile := fs.String("snapshot", "", "run one -scenario, snapshot its full state at -snapshot-at into this file, then finish the run")
	snapAt := fs.Float64("snapshot-at", 0, "virtual time (seconds) of the -snapshot capture (0 = half the scenario duration)")
	restoreFile := fs.String("restore", "", "restore a -snapshot file and finish its run (fingerprint matches the uninterrupted run)")
	traceFile := fs.String("trace", "", "run one -scenario (default flashcrowd) with the tracer attached and write Chrome trace JSON (Perfetto-loadable) to this file")
	recordDir := fs.String("record", "", "run one -scenario (default flashcrowd) with the flight recorder attached and write flight.csv, flight.json and audit.txt into this directory; combine with -trace to get the counter tracks and decision instants merged into the Perfetto trace")
	auditFlag := fs.Bool("audit", false, "with -record: also print the decision audit timeline on stdout")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060) for CPU/heap profiling while experiments run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if bound, err := logging.ServePprof(*pprofAddr); err != nil {
		return err
	} else if bound != "" {
		fmt.Fprintf(os.Stderr, "pprof at http://%s/debug/pprof/\n", bound)
	}
	// An unknown -policy fails at parse time with the valid names listed,
	// netem.ParseSpec-style, before any simulation starts.
	if err := policy.Valid(*policyFlag); err != nil {
		return err
	}

	if *listFlag {
		fmt.Println("scenarios:")
		for _, sc := range experiments.Scenarios() {
			fmt.Printf("  %-14s %s\n", sc.Name, sc.Title)
		}
		fmt.Println("policies:")
		for _, name := range policy.Names() {
			fmt.Printf("  %-14s %s\n", name, policy.Describe(name))
		}
		return nil
	}

	// Ctrl-C cancels in-flight sweeps mid-run instead of between runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runner := experiments.Runner{Workers: *workers, SimWorkers: *simWorkers, Policy: *policyFlag}

	// The one-simulation modes, in precedence order (see singleRun).
	single := singleRun{scenario: *scenarioFlag, seed: *seed, simWorkers: *simWorkers, policy: *policyFlag}
	if *restoreFile != "" {
		single.restore = *restoreFile
		return single.run(ctx)
	}
	if *snapFile != "" {
		single.snapshot, single.snapAt = *snapFile, *snapAt
		return single.run(ctx)
	}
	if *auditFlag && *recordDir == "" {
		return fmt.Errorf("-audit requires -record")
	}
	if *recordDir != "" || *traceFile != "" {
		single.record, single.audit, single.trace = *recordDir, *auditFlag, *traceFile
		return single.run(ctx)
	}

	rows, err := experiments.SelectExperiments(*expFlag)
	if err != nil {
		return err
	}
	suite := &experiments.Suite{Runner: runner, Seed: *seed}
	if *scenarioFlag != "all" {
		for _, s := range strings.Split(*scenarioFlag, ",") {
			if s = strings.TrimSpace(s); s != "" {
				suite.Scenarios = append(suite.Scenarios, s)
			}
		}
	}
	for _, e := range rows {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		rep, err := e.Run(ctx, suite)
		if err != nil {
			return err
		}
		fmt.Print(rep.String())
		fmt.Println()
		fmt.Fprintf(os.Stderr, "%s took %.2fs\n", e.Key, time.Since(start).Seconds())
	}
	return nil
}

// singleRun describes the one-simulation modes: -restore, -snapshot, -record
// and -trace all resolve one sim, attach observers, step it to the end, write
// their artifacts and print the run's fingerprint digest. Empty fields are
// off; run() fills in exactly one mode (plus trace alongside record).
type singleRun struct {
	restore  string  // snapshot file to resume from
	snapshot string  // snapshot file to write at snapAt
	snapAt   float64 // virtual seconds (0 = the scenario's midpoint)
	record   string  // flight-recording directory
	audit    bool    // with record: decision timeline on stdout
	trace    string  // Chrome trace JSON file

	scenario   string
	seed       int64
	simWorkers int
	policy     string
}

// run executes the mode. Tracing and recording are observation only and
// snapshots never record a worker count, so the digest printed at the end
// matches a plain run of the same scenario and seed whatever was attached —
// and a -restore prints the digest its capturing process printed (unless
// -policy names a different policy, which swaps it in at the restore point
// with fresh state, so the digest then diverges by design).
func (o singleRun) run(ctx context.Context) error {
	name := "restored"
	var s *sim.Sim
	if o.restore != "" {
		snap, err := snapshot.ReadFile(o.restore)
		if err != nil {
			return err
		}
		s, err = snapshot.RestoreWith(snap, sim.RestoreOptions{SimWorkers: o.simWorkers, Policy: o.policy})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "restored snapshot from %s at t=%.1fs\n", o.restore, s.NextTime())
	} else {
		sc, err := o.oneScenario()
		if err != nil {
			return err
		}
		name = sc.Name
		cfg := sc.Config(o.seed)
		cfg.SimWorkers = o.simWorkers
		cfg.Policy = o.policy
		// A capture point at or past the scenario's end would silently never
		// fire mid-run (the run finishes first and captures a trivial
		// end-state snapshot); a negative one is never reached. Fail fast and
		// name the valid range against the resolved duration instead.
		if o.snapshot != "" {
			if o.snapAt < 0 || o.snapAt >= cfg.DurationSeconds {
				return fmt.Errorf("-snapshot-at %g is outside scenario %q, which runs %g simulated seconds; valid range is 0 < t < %g (0 picks the midpoint)",
					o.snapAt, name, cfg.DurationSeconds, cfg.DurationSeconds)
			}
			if o.snapAt == 0 {
				o.snapAt = cfg.DurationSeconds / 2
			}
		}
		if s, err = sim.New(cfg); err != nil {
			return err
		}
	}

	var rec *flight.Recorder
	if o.record != "" {
		rec = flight.New()
		s.SetRecorder(rec)
	}
	var tr *trace.Tracer
	if o.trace != "" {
		tr = trace.New(0)
		s.SetTracer(tr)
	}
	if o.restore == "" {
		if err := s.Start(); err != nil {
			return err
		}
	}

	if o.snapshot != "" {
		if err := s.StepUntil(ctx, o.snapAt); err != nil {
			return err
		}
		snap, err := snapshot.Capture(s)
		if err != nil {
			return err
		}
		if err := snapshot.WriteFile(o.snapshot, snap); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "snapshot of %q at t=%.1fs written to %s\n", name, s.Now(), o.snapshot)
	}
	if err := s.StepUntil(ctx, math.Inf(1)); err != nil {
		return err
	}

	// Artifacts: flight.csv (time series), flight.json (series + decision
	// log, schema matrix-flight/1) and audit.txt (the human-readable decision
	// timeline), byte-identical for any -sim-workers value; then the trace —
	// load it at https://ui.perfetto.dev — with the recording's counter tracks
	// and decision instants merged in when both ran.
	if rec != nil {
		if err := os.MkdirAll(o.record, 0o755); err != nil {
			return err
		}
		for _, a := range []struct {
			name  string
			write func(io.Writer) error
		}{
			{"flight.csv", rec.WriteCSV},
			{"flight.json", rec.WriteJSON},
			{"audit.txt", rec.WriteTimeline},
		} {
			if err := writeArtifact(filepath.Join(o.record, a.name), a.write); err != nil {
				return err
			}
		}
	}
	if tr != nil {
		if rec != nil {
			rec.MergeTrace(tr)
		}
		if err := writeArtifact(o.trace, tr.WriteJSON); err != nil {
			return err
		}
		if rec != nil {
			fmt.Fprintf(os.Stderr, "trace of %q with flight counters merged written to %s\n", name, o.trace)
		} else {
			fmt.Fprintf(os.Stderr, "trace of %q: %d events (%d dropped by the ring) written to %s\n",
				name, tr.Len(), tr.Dropped(), o.trace)
		}
	}
	if rec != nil {
		fmt.Fprintf(os.Stderr, "flight recording of %q: %d samples x %d series, %d decisions written to %s\n",
			name, rec.Rows(), len(rec.Columns()), len(rec.Decisions()), o.record)
		if o.audit {
			if err := rec.WriteTimeline(os.Stdout); err != nil {
				return err
			}
		}
	}
	printFingerprint(name, s.Finish())
	return nil
}

// oneScenario resolves the single scenario the mode runs. -record and
// -trace default to flashcrowd when -scenario was left at "all"; -snapshot
// has no default.
func (o singleRun) oneScenario() (experiments.Scenario, error) {
	name := strings.TrimSpace(o.scenario)
	mode := "-snapshot"
	if o.snapshot == "" {
		mode = "this mode"
		if name == "" || name == "all" {
			name = "flashcrowd"
		}
	}
	if name == "" || name == "all" || strings.Contains(name, ",") {
		return experiments.Scenario{}, fmt.Errorf("%s needs exactly one -scenario (have %q)", mode, o.scenario)
	}
	sc, ok := experiments.ScenarioByName(name)
	if !ok {
		return experiments.Scenario{}, fmt.Errorf("unknown scenario %q (known: %s)", name, strings.Join(experiments.ScenarioNames(), ","))
	}
	return sc, nil
}

// writeArtifact creates path and streams write into it through a buffer,
// surfacing flush and close errors (a full disk shows up there).
func writeArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w); err == nil {
		err = w.Flush()
	}
	if err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func printFingerprint(name string, res *sim.Result) {
	sum := sha256.Sum256([]byte(res.Fingerprint()))
	fmt.Printf("%s: peak=%d final=%d redirects=%d dropped=%d fingerprint sha256=%x\n",
		name, res.PeakServers, res.FinalServers, res.Redirects, res.DroppedPackets, sum)
}
