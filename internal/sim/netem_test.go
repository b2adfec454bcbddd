package sim

import (
	"strings"
	"testing"

	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/load"
	"matrix/internal/netem"
)

// netemBaseConfig is a small, split-forcing workload for the netem tests.
func netemBaseConfig(seed int64) Config {
	world := geom.R(0, 0, 1000, 1000)
	return Config{
		Profile:            game.Bzflag(),
		World:              world,
		Seed:               seed,
		DurationSeconds:    40,
		MaxServers:         4,
		ServiceRatePerTick: 250,
		BasePopulation:     50,
		LoadPolicy:         load.Config{OverloadQueue: 3000},
		Script: game.Script{
			{At: 5, Kind: game.EventJoin, Count: 400, Center: geom.Pt(750, 250), Spread: 80, Tag: "hot"},
		},
	}
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

func TestNetemZeroConfigKeepsFingerprintShape(t *testing.T) {
	res := runNetem(t, netemBaseConfig(3))
	if res.NetemActive {
		t.Fatal("zero netem config activated emulation")
	}
	if strings.Contains(res.Fingerprint(), "netem ") {
		t.Fatal("netem line leaked into a netem-free fingerprint")
	}
}

func TestNetemImpairedRunDeterministicAndDistinct(t *testing.T) {
	impaired := func() Config {
		cfg := netemBaseConfig(3)
		cfg.Netem = netem.Config{Link: netem.LinkConfig{Loss: 0.05, JitterMs: 250}}
		return cfg
	}
	a := runNetem(t, impaired())
	b := runNetem(t, impaired())
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fixed (seed, netem config) produced differing fingerprints")
	}
	if !a.NetemActive || a.NetemLost == 0 || a.NetemDelayed == 0 {
		t.Fatalf("impairment did not register: active=%v lost=%d delayed=%d",
			a.NetemActive, a.NetemLost, a.NetemDelayed)
	}
	if !strings.Contains(a.Fingerprint(), "netem lost=") {
		t.Fatal("netem counters missing from the fingerprint")
	}
	clean := runNetem(t, netemBaseConfig(3))
	if clean.Fingerprint() == a.Fingerprint() {
		t.Fatal("impaired run byte-identical to clean run")
	}
	// A different netem seed under the same sim seed must change the
	// impairment draws.
	other := impaired()
	other.Netem.Seed = 99
	c := runNetem(t, other)
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("netem seed change did not change the run")
	}
}

func TestNetemDelayOnlyPreservesTraffic(t *testing.T) {
	cfg := netemBaseConfig(3)
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
	cfg := netemBaseConfig(3)
	cfg.DurationSeconds = 60
	cfg.Script = append(cfg.Script,
		game.Event{At: 20, Kind: game.EventPartition, Servers: []id.ServerID{2}},
		game.Event{At: 45, Kind: game.EventHeal, Servers: []id.ServerID{2}},
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
	cfg := netemBaseConfig(3)
	cfg.DurationSeconds = 60
	cfg.Script = append(cfg.Script,
		game.Event{At: 20, Kind: game.EventCrash, Servers: []id.ServerID{1}},
		game.Event{At: 30, Kind: game.EventRecover, Servers: []id.ServerID{1}},
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
		// [19.9, 20.0) tick and the recover in [29.9, 30.0); observe well
		// inside those bounds.
		switch {
		case s.Now() > 20 && s.Now() < 20.2:
			processedAtCrash = gs.Stats().Processed
		case s.Now() > 20.5 && s.Now() < 29.5:
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
