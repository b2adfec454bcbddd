package sim

import (
	"strings"
	"testing"

	"matrix/internal/game"
	"matrix/internal/id"
	"matrix/internal/netem"
)

// netemTestConfig is the step-test workload without its leave wave: the
// crowd splits the world by t=7 and the children stay, so scripted faults
// have peers to hit.
func netemTestConfig() Config {
	cfg := stepTestConfig(3)
	cfg.Script = cfg.Script[:1]
	return cfg
}

func runNetem(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestNetemZeroConfigKeepsFingerprintShape: a run that asks for no
// impairment keeps the historical instant path — no netem line — and a netem
// seed alone asks for none.
func TestNetemZeroConfigKeepsFingerprintShape(t *testing.T) {
	if clean.ref(t).res.NetemActive {
		t.Fatal("zero netem config activated emulation")
	}
	if strings.Contains(clean.want, "netem ") {
		t.Fatal("netem line leaked into a netem-free fingerprint")
	}
	unchanged(t, func(t *testing.T, f *fixture) {
		cfg := f.cfg
		cfg.Netem.Seed = 99
		f.same(t, "netem seed without a link config", mustNew(t, cfg))
	}, clean)
}

// TestNetemImpairedRunDeterministicAndDistinct: a fixed (seed, netem config)
// gives one run, that run is not the clean one, and the netem seed matters.
func TestNetemImpairedRunDeterministicAndDistinct(t *testing.T) {
	a := impaired.ref(t)
	underRun(t, a)
	if !a.res.NetemActive || a.res.NetemLost == 0 || a.res.NetemDelayed == 0 {
		t.Fatalf("impairment did not register: active=%v lost=%d delayed=%d",
			a.res.NetemActive, a.res.NetemLost, a.res.NetemDelayed)
	}
	if !strings.Contains(a.want, "netem lost=") {
		t.Fatal("netem counters missing from the fingerprint")
	}
	if clean.ref(t).want == a.want {
		t.Fatal("impaired run byte-identical to clean run")
	}
	// A different netem seed under the same sim seed must change the
	// impairment draws.
	other := a.cfg
	other.Netem.Seed = 99
	if runNetem(t, other).Fingerprint() == a.want {
		t.Fatal("netem seed change did not change the run")
	}
}

func TestNetemDelayOnlyPreservesTraffic(t *testing.T) {
	cfg := netemTestConfig()
	cfg.Netem = netem.Config{Link: netem.LinkConfig{DelayMs: 150}}
	res := runNetem(t, cfg)
	if res.NetemLost != 0 || res.NetemSevered != 0 {
		t.Fatalf("delay-only config lost packets: lost=%d severed=%d", res.NetemLost, res.NetemSevered)
	}
	if res.NetemDelayed == 0 {
		t.Fatal("150ms delay on a 100ms tick never deferred a delivery")
	}
	if res.DeliveredUpdates == 0 {
		t.Fatal("no updates delivered under delay-only impairment")
	}
}

func TestNetemPartitionSeversPeerTraffic(t *testing.T) {
	cfg := netemTestConfig()
	cfg.Script = append(cfg.Script,
		game.Event{At: 12, Kind: game.EventPartition, Servers: []id.ServerID{2}},
		game.Event{At: 22, Kind: game.EventHeal, Servers: []id.ServerID{2}},
	)
	res := runNetem(t, cfg)
	if !res.NetemActive {
		t.Fatal("partition script events did not activate netem")
	}
	if res.NetemSevered == 0 {
		t.Fatal("backbone partition severed nothing")
	}
	if res.NetemLost != 0 {
		t.Fatalf("partition-only run lost %d packets to the (disabled) loss models", res.NetemLost)
	}
	kinds := map[string]bool{}
	for _, e := range res.Events {
		kinds[e.Kind] = true
	}
	if !kinds["partition"] || !kinds["heal"] {
		t.Fatalf("partition/heal events missing from the event log: %v", kinds)
	}
}

func TestNetemCrashFreezesAndRecovers(t *testing.T) {
	cfg := netemTestConfig()
	cfg.Script = append(cfg.Script,
		game.Event{At: 12, Kind: game.EventCrash, Servers: []id.ServerID{1}},
		game.Event{At: 20, Kind: game.EventRecover, Servers: []id.ServerID{1}},
	)

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var processedAtCrash, processedDuring uint64
	for !s.Done() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		_, gs, ok := s.Node(1)
		if !ok {
			t.Fatal("server 1 missing")
		}
		// Script events quantize to tick windows, so the crash lands in the
		// [11.9, 12.0) tick and the recover in [19.9, 20.0); observe well
		// inside those bounds.
		switch {
		case s.Now() > 12 && s.Now() < 12.2:
			processedAtCrash = gs.Stats().Processed
		case s.Now() > 12.5 && s.Now() < 19.5:
			processedDuring = gs.Stats().Processed
			if processedDuring != processedAtCrash {
				t.Fatalf("crashed server processed packets: %d -> %d", processedAtCrash, processedDuring)
			}
		}
	}
	res := s.Finish()
	_, gs, _ := s.Node(1)
	if gs.Stats().Processed == processedAtCrash {
		t.Fatal("recovered server never resumed processing")
	}
	if res.NetemSevered == 0 {
		t.Fatal("crashing the root server severed no traffic")
	}
}
