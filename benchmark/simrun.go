package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"matrix/internal/experiments"
	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/protocol"
	"matrix/internal/sim"
	"matrix/internal/trace"
)

// flashConfig is the flash-crowd churn scenario (experiments.FlashCrowdConfig:
// its world, fleet of 8, service rate, 100 roaming base clients, load policy)
// with two waves of 400 clients, 44 simulated seconds, 441 ticks. Unlike
// game.FlashCrowdScript the two crowds land at fixed points: the seed moves
// every client and every mover but not the shape of the scenario, so
// scenarios of different seeds cost about the same and several fit in one
// run. Each still splits for a crowd and reclaims after it has left.
// ticks > 0 shortens it further (toy scale).
func flashConfig(seed int64, ticks int) sim.Config {
	cfg := experiments.FlashCrowdConfig(seed)
	cfg.DurationSeconds = 44
	cfg.Script = nil
	for w, centre := range []geom.Point{geom.Pt(250, 500), geom.Pt(700, 300)} {
		at, tag := 5+22*float64(w), fmt.Sprintf("flash%d", w)
		cfg.Script = append(cfg.Script,
			game.Event{At: at, Kind: game.EventJoin, Count: 400, Center: centre, Spread: 60, Tag: tag},
			game.Event{At: at + 10, Kind: game.EventLeave, Count: 200, Tag: tag},
			game.Event{At: at + 13, Kind: game.EventLeave, Count: 200, Tag: tag})
	}
	if ticks > 0 {
		cfg.DurationSeconds = float64(ticks) * 0.1
	}
	cfg.SimWorkers = 1
	return cfg
}

// scenarioSeed derives the i-th scenario's seed from the run's seed.
func scenarioSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }

// simRun is what one scenario, stepped start to finish, measured.
type simRun struct {
	setupS     float64 // sim.New + Start
	stepS      float64 // Σ Step wall time
	ticks      int
	tickMs     []float64 // per tick, sorted
	cpuUs      float64   // process CPU while stepping
	mallocs    float64
	res        *sim.Result
	splits     int // granted, from res.Events
	reclaims   int
	phases     map[string][]float64 // traced: slice durations (ms) by name, sorted
	otherMs    []float64            // traced: tick − (phase-a + phase-b + load-report), sorted
	traceDrops uint64
}

// stepScenario runs one scenario. With tr non-nil the run is traced and the
// tick-phase slices are read back through Tracer.Events() every few ticks,
// before the ring can wrap. capture, when non-nil, is called once with the
// sim at tick captureTick, when the first crowd is fully in play (the last
// tick of a run shorter than that).
func stepScenario(cfg sim.Config, tr *trace.Tracer, capture func(*sim.Sim)) (*simRun, error) {
	captureTick := min(140, int(cfg.DurationSeconds/0.1))
	runtime.GC() // every scenario starts from a collected heap
	run := &simRun{phases: map[string][]float64{}}
	began := time.Now()
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	var meta uint64 // SetTracer's naming events: the only metadata a run emits
	if tr != nil {
		s.SetTracer(tr)
		meta = uint64(tr.Len())
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	run.setupS = time.Since(began).Seconds()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := selfCPUUs()
	var harvested uint64 // events consumed from the ring so far
	var acc float64      // phase time seen since the last "tick" slice
	harvest := func() {
		// Events() hoists metadata to the front; the rest is in emission
		// order, and all but the newest `fresh` of it was seen last time.
		rest := tr.Events()
		for len(rest) > 0 && rest[0].Ph == trace.PhaseMetadata {
			rest = rest[1:]
		}
		emitted := uint64(tr.Len()) + tr.Dropped() - meta
		fresh := emitted - harvested
		if fresh > uint64(len(rest)) {
			run.traceDrops += fresh - uint64(len(rest))
			fresh = uint64(len(rest))
		}
		for _, e := range rest[uint64(len(rest))-fresh:] {
			if e.Ph != trace.PhaseSlice || e.Pid != 1 || e.Tid != 0 {
				continue // engine stepping-goroutine track only (sim/trace.go)
			}
			d := float64(e.Dur) / 1000
			run.phases[e.Name] = append(run.phases[e.Name], d)
			if e.Name == "tick" {
				run.otherMs = append(run.otherMs, d-acc)
				acc = 0
			} else {
				acc += d
			}
		}
		harvested = emitted
	}
	for !s.Done() {
		if capture != nil && s.Tick() == captureTick {
			capture(s)
		}
		t0 := time.Now()
		if err := s.Step(); err != nil {
			return nil, fmt.Errorf("step %d: %w", s.Tick(), err)
		}
		d := time.Since(t0)
		run.stepS += d.Seconds()
		run.tickMs = append(run.tickMs, float64(d.Nanoseconds())/1e6)
		run.ticks++
		if tr != nil && run.ticks%5 == 0 {
			harvest()
		}
	}
	run.cpuUs = float64(selfCPUUs() - cpu0)
	runtime.ReadMemStats(&m1)
	run.mallocs = float64(m1.Mallocs - m0.Mallocs)
	if tr != nil {
		harvest()
		for _, d := range run.phases {
			sort.Float64s(d)
		}
		sort.Float64s(run.otherMs)
	}
	sort.Float64s(run.tickMs)
	run.res = s.Finish()
	for _, e := range run.res.Events {
		switch e.Kind {
		case "split":
			run.splits++
		case "reclaim":
			run.reclaims++
		}
	}
	return run, nil
}

// check applies the scenario's correctness conditions.
func (r *simRun) check(lenient bool) error {
	if r.res.DroppedPackets != 0 {
		return fmt.Errorf("%d packets dropped", r.res.DroppedPackets)
	}
	if !lenient && (r.splits < 1 || r.reclaims < 1) {
		return fmt.Errorf("expected at least one split and one reclaim, saw %d and %d", r.splits, r.reclaims)
	}
	return nil
}

// simPass measures sim-flashcrowd: whole scenarios, seeds derived from the
// run's seed, back to back on one goroutine until `seconds` of stepping
// have been spent. Every reported number is the median of the per-scenario
// values. A traced pass alternates untraced and traced runs of the same
// scenario; the ratio of their speeds is the tracing overhead.
func simPass(o runOpts, seconds float64, traced bool) (*passResult, error) {
	ticks := 0
	if o.scale > 0 {
		ticks = 50
	}
	var plain, withTrace []*simRun
	var probe probeInput
	var lastTracer *trace.Tracer
	spent := 0.0
	for i := 0; spent < seconds; i++ {
		cfg := flashConfig(scenarioSeed(o.seed, i), ticks)
		var capture func(*sim.Sim)
		if traced && i == 0 {
			capture = func(s *sim.Sim) { probe = captureSim(s, o.seed) }
		}
		run, err := stepScenario(cfg, nil, capture)
		if err == nil {
			err = run.check(o.lenient)
		}
		if err != nil {
			return nil, fmt.Errorf("sim-flashcrowd seed %d: %w", cfg.Seed, err)
		}
		plain = append(plain, run)
		spent += run.stepS
		if traced {
			lastTracer = trace.New(1 << 16)
			trun, err := stepScenario(cfg, lastTracer, nil)
			if err != nil {
				return nil, fmt.Errorf("sim-flashcrowd seed %d (traced): %w", cfg.Seed, err)
			}
			if trun.res.Fingerprint() != run.res.Fingerprint() {
				return nil, fmt.Errorf("sim-flashcrowd seed %d: tracing changed the fingerprint", cfg.Seed)
			}
			withTrace = append(withTrace, trun)
			spent += trun.stepS
		}
	}

	med := func(runs []*simRun, pick func(r *simRun) float64) float64 {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = pick(r)
		}
		return median(vals)
	}
	deliveries := func(r *simRun) float64 { return float64(r.res.DeliveredUpdates) }
	res := &passResult{
		e2e: values{
			"setup_s":             med(plain, func(r *simRun) float64 { return r.setupS }),
			"latency_ms":          med(plain, func(r *simRun) float64 { return ratio(r.stepS*1000, float64(r.ticks)) }),
			"latency_p95_ms":      med(plain, func(r *simRun) float64 { return quantile(r.tickMs, 0.95) }),
			"deliveries_per_s":    med(plain, func(r *simRun) float64 { return ratio(deliveries(r), r.stepS) }),
			"allocs_per_delivery": med(plain, func(r *simRun) float64 { return ratio(r.mallocs, deliveries(r)) }),
		},
		layer: values{
			"host.cpu_us_per_delivery": med(plain, func(r *simRun) float64 { return ratio(r.cpuUs, deliveries(r)) }),
			"sim.ticks_per_s":          med(plain, func(r *simRun) float64 { return ratio(float64(r.ticks), r.stepS) }),
			"sim.allocs_per_tick":      med(plain, func(r *simRun) float64 { return ratio(r.mallocs, float64(r.ticks)) }),
			"sim.deliveries_per_tick":  med(plain, func(r *simRun) float64 { return ratio(deliveries(r), float64(r.ticks)) }),
			"sim.forwards_per_tick": med(plain, func(r *simRun) float64 {
				return ratio(float64(r.res.ForwardedPackets), float64(r.ticks))
			}),
			"sim.peak_servers":     med(plain, func(r *simRun) float64 { return float64(r.res.PeakServers) }),
			"coordinator.splits":   med(plain, func(r *simRun) float64 { return float64(r.splits) }),
			"coordinator.reclaims": med(plain, func(r *simRun) float64 { return float64(r.reclaims) }),
		},
		probe: probe,
	}
	for _, r := range plain {
		res.attempted += uint64(r.ticks)
	}

	if traced {
		phase := func(name string, q float64) float64 {
			return med(withTrace, func(r *simRun) float64 { return quantile(r.phases[name], q) })
		}
		res.layer["sim.tick_ms_p50"] = phase("tick", 0.5)
		res.layer["sim.tick_ms_p99"] = phase("tick", 0.99)
		res.layer["sim.phase_a_ms_p50"] = phase("phase-a", 0.5)
		res.layer["sim.phase_b_ms_p50"] = phase("phase-b", 0.5)
		res.layer["sim.load_report_ms_p50"] = phase("load-report", 0.5)
		res.layer["sim.other_ms_p50"] = med(withTrace, func(r *simRun) float64 { return quantile(r.otherMs, 0.5) })
		// Same scenarios both ways: time traced ÷ time untraced − 1.
		var slow []float64
		var drops uint64
		for i, r := range withTrace {
			slow = append(slow, r.stepS/plain[i].stepS-1)
			drops += r.traceDrops
		}
		res.layer["trace.overhead_frac"] = median(slow)
		if drops > 0 {
			return nil, fmt.Errorf("sim-flashcrowd: trace ring wrapped between harvests (%d events lost)", drops)
		}
		if o.outDir != "" {
			if err := writeTrace(lastTracer, filepath.Join(o.outDir, "trace-sim-flashcrowd-engine.json")); err != nil {
				return nil, err
			}
		}
	} else if err := checkWorkerParity(o.seed); err != nil {
		return nil, err
	}
	return res, nil
}

// checkWorkerParity steps the first 100 ticks of the run's first scenario
// with one and with two sim workers: the fingerprints must be identical.
func checkWorkerParity(seed int64) error {
	var prints [2]string
	for i := range prints {
		cfg := flashConfig(scenarioSeed(seed, 0), 100)
		cfg.SimWorkers = i + 1
		s, err := sim.New(cfg)
		if err != nil {
			return err
		}
		res, err := s.Run()
		if err != nil {
			return err
		}
		prints[i] = res.Fingerprint()
	}
	if prints[0] != prints[1] {
		return errors.New("sim-flashcrowd: fingerprint differs between SimWorkers 1 and 2")
	}
	return nil
}

// captureSim records the running simulation's world for the probes: the
// partitions, every avatar's position, and one synthetic move per avatar
// (repeated to sampleSize) standing in for the traffic the sim's own
// clients generate, which it does not expose.
func captureSim(s *sim.Sim, seed int64) probeInput {
	in := probeInput{workload: "sim-flashcrowd", parts: s.MC().Partitions(), interval: 0.0002, generator: true}
	for _, part := range in.parts {
		_, gs, ok := s.Node(part.Owner)
		if !ok {
			continue
		}
		for _, c := range gs.ClientIDs() {
			if pos, ok := gs.ClientPos(c); ok {
				in.clients = append(in.clients, probeClient{ID: c, Pos: pos})
			}
		}
	}
	r := &rng{s: uint64(seed)}
	pos := make([]geom.Point, len(in.clients))
	for i, c := range in.clients {
		pos[i] = c.Pos
	}
	for k := 0; k < sampleSize && len(in.clients) > 0; k++ {
		i := k % len(in.clients)
		next := experiments.World.Clamp(r.disc(pos[i], 2))
		in.updates = append(in.updates, &protocol.GameUpdate{
			Client: in.clients[i].ID, Seq: 1, Kind: protocol.KindMove, Origin: pos[i], Dest: next,
		})
		pos[i] = next
	}
	return in
}
