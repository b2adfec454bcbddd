package sim

import (
	"bytes"
	"testing"

	"matrix/internal/netem"
	"matrix/internal/trace"
)

// hotspotTraceConfig is a crowd that splits the world and stays, so packets
// cross server boundaries and the trace gets peer hops.
func hotspotTraceConfig(workers int) Config {
	cfg := netemTestConfig()
	cfg.SimWorkers = workers
	return cfg
}

// TestTraceContent checks the sim actually populates the ring: tick-phase
// slices on the engine track, per-server slices on worker tracks, engine
// histograms in the registry, and at least one cross-server packet span
// (an async span carrying a peer-forward step).
func TestTraceContent(t *testing.T) {
	s, err := New(hotspotTraceConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(1 << 18)
	s.SetTracer(tr)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakServers < 2 {
		t.Fatalf("hotspot never split (peak=%d); no cross-server traffic to trace", res.PeakServers)
	}

	slices := map[string]int{}
	asyncByID := map[uint64]map[string]bool{}
	for _, e := range tr.Events() {
		switch e.Ph {
		case trace.PhaseSlice:
			slices[e.Name]++
		case trace.PhaseAsyncBegin, trace.PhaseAsyncInstant, trace.PhaseAsyncEnd:
			m := asyncByID[e.ID]
			if m == nil {
				m = map[string]bool{}
				asyncByID[e.ID] = m
			}
			m[e.Name] = true
		}
	}
	for _, want := range []string{"tick", "phase-a", "phase-b", "load-report", "server-process"} {
		if slices[want] == 0 {
			t.Errorf("no %q slices in trace (slices: %v)", want, slices)
		}
	}
	crossServer := 0
	for _, names := range asyncByID {
		if names["packet"] && names["peer-forward"] {
			crossServer++
		}
	}
	if crossServer == 0 {
		t.Errorf("no cross-server packet span (async spans: %d)", len(asyncByID))
	}

	// The engine histograms exist and saw every tick.
	ticks := res.Metrics.Histogram("engine/tick-ms").Count()
	if ticks == 0 {
		t.Error("engine/tick-ms histogram empty")
	}
	if got := res.Metrics.Histogram("engine/phase-a-ms").Count(); got != ticks {
		t.Errorf("phase-a-ms count = %d, want %d (one per tick)", got, ticks)
	}
	if got := res.Metrics.Histogram("engine/worker-occupancy").Count(); got != ticks {
		t.Errorf("worker-occupancy count = %d, want %d", got, ticks)
	}
	if occ := res.Metrics.Histogram("engine/worker-occupancy").Quantile(0.5); occ <= 0 || occ > 1 {
		t.Errorf("median worker occupancy %g outside (0, 1]", occ)
	}

	// The export is structurally valid Chrome trace JSON.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateJSON(buf.Bytes()); err != nil {
		t.Errorf("trace export invalid: %v", err)
	}
}

// TestUntracedRegistryHasNoEngineHistograms guards the golden-snapshot
// contract: without a tracer the engine histograms must not appear in the
// registry at all (snapshot capture serializes every registered histogram).
func TestUntracedRegistryHasNoEngineHistograms(t *testing.T) {
	cfg := hotspotTraceConfig(1)
	cfg.DurationSeconds = 5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Metrics.State().Histograms {
		t.Errorf("untraced run registered histogram %q", h.Name)
	}
}

// TestTraceSpansPairUnderDelay pins that packet spans open on a delayed link
// too: an update that netem holds for a tick or more gets its begin when it
// arrives, so no echo closes a span that never opened.
func TestTraceSpansPairUnderDelay(t *testing.T) {
	cfg := hotspotTraceConfig(1)
	cfg.DurationSeconds = 10
	cfg.BasePopulation = 30
	cfg.Script = nil
	cfg.Netem = netem.Config{Link: netem.LinkConfig{DelayMs: 150}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(1 << 16)
	s.SetTracer(tr)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events; size it up", tr.Dropped())
	}
	begun := map[uint64]bool{}
	ends, orphans := 0, 0
	for _, e := range tr.Events() {
		if e.Name != "packet" {
			continue
		}
		switch e.Ph {
		case trace.PhaseAsyncBegin:
			begun[e.ID] = true
		case trace.PhaseAsyncEnd:
			ends++
			if !begun[e.ID] {
				orphans++
			}
		}
	}
	if ends == 0 {
		t.Fatal("no packet span ended; the check would be vacuous")
	}
	if orphans > 0 {
		t.Errorf("%d of %d packet span ends have no earlier begin (begins: %d)", orphans, ends, len(begun))
	}
}
