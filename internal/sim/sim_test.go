package sim

import (
	"testing"
	"time"

	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/load"
	"matrix/internal/staticpart"
)

// smallPolicy scales the paper's thresholds down so integration tests can
// trigger splits with tens instead of hundreds of clients.
func smallPolicy() load.Config {
	return load.Config{
		OverloadClients:  60,
		UnderloadClients: 30,
		OverloadQueue:    400,
		SplitCooldown:    2 * time.Second,
		ReclaimDwell:     3 * time.Second,
		ReclaimHeadroom:  0.8,
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config must fail (invalid profile)")
	}
	cfg := Config{Profile: game.Bzflag(), World: geom.R(0, 0, 100, 100)}
	if _, err := New(cfg); err == nil {
		t.Error("zero duration must fail")
	}
	bad := game.Script{{At: 5, Kind: game.EventJoin, Count: 1}, {At: 1, Kind: game.EventLeave, Count: 1}}
	cfg.DurationSeconds = 10
	cfg.Script = bad
	if _, err := New(cfg); err == nil {
		t.Error("invalid script must fail")
	}
}

func TestQuietRunSingleServer(t *testing.T) {
	s, err := New(Config{
		Profile:         game.Bzflag(),
		World:           geom.R(0, 0, 1000, 1000),
		Seed:            1,
		DurationSeconds: 30,
		MaxServers:      4,
		BasePopulation:  40,
		LoadPolicy:      smallPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakServers != 1 {
		t.Errorf("quiet run used %d servers, want 1", res.PeakServers)
	}
	if len(res.Events) != 0 {
		t.Errorf("quiet run produced topology events: %+v", res.Events)
	}
	if res.Latency.Count() == 0 {
		t.Error("no latency samples collected")
	}
	if res.DeliveredUpdates == 0 {
		t.Error("no updates delivered")
	}
	if err := s.MC().Validate(); err != nil {
		t.Errorf("MC invariants: %v", err)
	}
	// All 40 clients are on the single active server.
	_, gs, ok := s.Node(1)
	if !ok {
		t.Fatal("node 1 missing")
	}
	if got := gs.ClientCount(); got != 40 {
		t.Errorf("clients on server 1 = %d, want 40", got)
	}
}

// TestHotspotSplitsAndReclaims reads the clean fixture's run: the crowd
// forces splits, its departure reclaims, and clients and packets crossed
// the boundaries in between.
func TestHotspotSplitsAndReclaims(t *testing.T) {
	res := clean.ref(t).res
	if res.PeakServers < 2 {
		t.Fatalf("hotspot never split: peak=%d events=%+v", res.PeakServers, res.Events)
	}
	splits, reclaims := 0, 0
	for _, e := range res.Events {
		switch e.Kind {
		case "split":
			splits++
		case "reclaim":
			reclaims++
		}
	}
	if splits == 0 {
		t.Error("no splits recorded")
	}
	if reclaims == 0 {
		t.Errorf("no reclaims after drain: events=%+v final=%d", res.Events, res.FinalServers)
	}
	if res.FinalServers >= res.PeakServers {
		t.Errorf("servers not consolidated: final=%d peak=%d", res.FinalServers, res.PeakServers)
	}
	if err := clean.sim.MC().Validate(); err != nil {
		t.Errorf("MC invariants: %v", err)
	}
	// Inter-server traffic must have flowed (hotspot near no boundary at
	// start, but splits create boundaries through it).
	if res.ForwardedPackets == 0 {
		t.Error("no inter-Matrix forwards despite splits")
	}
	if res.Redirects == 0 {
		t.Error("no client redirects despite splits")
	}
	if res.SwitchLatency.Count() == 0 {
		t.Error("no switch latencies measured")
	}
}

func TestClientConservation(t *testing.T) {
	world := geom.R(0, 0, 1000, 1000)
	script := game.Script{
		{At: 5, Kind: game.EventJoin, Count: 100, Center: geom.Pt(700, 700), Spread: 50, Tag: "hot"},
	}
	s, err := New(Config{
		Profile:         game.Quake2(),
		World:           world,
		Seed:            3,
		DurationSeconds: 60,
		MaxServers:      5,
		BasePopulation:  30,
		Script:          script,
		LoadPolicy:      smallPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Every client alive at the end must be connected somewhere, and the
	// per-server totals must add up (no client lost or duplicated by the
	// migrations).
	total := 0
	for _, part := range s.MC().Partitions() {
		_, gs, ok := s.Node(part.Owner)
		if !ok {
			t.Fatalf("active server %v has no node", part.Owner)
		}
		total += gs.ClientCount()
	}
	if total != 130 {
		t.Errorf("clients across servers = %d, want 130", total)
	}
}

func TestStaticBaselineFailsUnderHotspot(t *testing.T) {
	world := geom.R(0, 0, 1000, 1000)
	tiles, err := staticpart.Grid(world, 2)
	if err != nil {
		t.Fatal(err)
	}
	script := game.Script{
		{At: 5, Kind: game.EventJoin, Count: 120, Center: geom.Pt(800, 300), Spread: 150, Tag: "hot"},
	}
	// Visibility small relative to the crowd spread: the paper's asymptotic
	// analysis requires overlap populations to stay a small fraction of the
	// total for Matrix to win, so the comparison runs in that regime.
	profile := game.Bzflag()
	profile.Radius = 25
	const duration = 120.0
	mk := func(static []geom.Rect, maxServers int) *Result {
		s, err := New(Config{
			Profile:            profile,
			World:              world,
			Seed:               4,
			DurationSeconds:    duration,
			MaxServers:         maxServers,
			ServiceRatePerTick: 50, // capacity ≈ 100 clients; splits fire at 60
			MaxQueue:           500,
			BasePopulation:     20,
			Script:             script,
			Static:             static,
			LoadPolicy:         smallPolicy(),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	staticRes := mk(tiles, 2)
	matrixRes := mk(nil, 10)

	if staticRes.PeakServers != 2 {
		t.Errorf("static peak = %d, want 2 fixed", staticRes.PeakServers)
	}
	if len(staticRes.Events) != 0 {
		t.Errorf("static produced topology events: %+v", staticRes.Events)
	}
	if matrixRes.PeakServers <= 2 {
		t.Errorf("matrix never outgrew static: peak=%d", matrixRes.PeakServers)
	}
	// The paper's claim: static "just fails" — it keeps dropping packets
	// for as long as the hotspot persists — while Matrix absorbs the load
	// with extra servers and recovers completely.
	lastWindow := func(r *Result) float64 {
		s := r.Metrics.Series("drops/total")
		return s.At(duration) - s.At(duration-30)
	}
	staticLate, matrixLate := lastWindow(staticRes), lastWindow(matrixRes)
	if staticLate < 1000 {
		t.Errorf("static baseline not in sustained failure: %v drops in last 30s", staticLate)
	}
	if matrixLate != 0 {
		t.Errorf("matrix still dropping at steady state: %v drops in last 30s", matrixLate)
	}
	if matrixRes.DroppedPackets >= staticRes.DroppedPackets {
		t.Errorf("matrix dropped %d vs static %d; matrix must drop less overall",
			matrixRes.DroppedPackets, staticRes.DroppedPackets)
	}
	// Steady-state queue: static pinned at the cap, matrix drained.
	staticQ, matrixQ := 0.0, 0.0
	for _, s := range staticRes.Metrics.SeriesByPrefix("queue/") {
		if v := s.At(duration); v > staticQ {
			staticQ = v
		}
	}
	for _, s := range matrixRes.Metrics.SeriesByPrefix("queue/") {
		if v := s.At(duration); v > matrixQ {
			matrixQ = v
		}
	}
	if staticQ < 450 {
		t.Errorf("static queue not saturated at end: %v", staticQ)
	}
	if matrixQ > 50 {
		t.Errorf("matrix queue not drained at end: %v", matrixQ)
	}
}

// TestDeterminism: the same seed gives the same run twice, under another
// game profile than the other fixtures'.
func TestDeterminism(t *testing.T) { unchanged(t, underRun, daimonin) }

func TestSeriesRecorded(t *testing.T) {
	s, err := New(Config{
		Profile:         game.Bzflag(),
		World:           geom.R(0, 0, 500, 500),
		Seed:            5,
		DurationSeconds: 10,
		MaxServers:      2,
		BasePopulation:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	clientSeries := res.Metrics.SeriesByPrefix("clients/")
	if len(clientSeries) == 0 {
		t.Fatal("no client series recorded")
	}
	if clientSeries[0].Len() < 10 {
		t.Errorf("series too short: %d points", clientSeries[0].Len())
	}
	active := res.Metrics.Series("servers/active")
	if active.Len() == 0 || active.Max() != 1 {
		t.Errorf("servers/active series wrong: len=%d max=%v", active.Len(), active.Max())
	}
}
