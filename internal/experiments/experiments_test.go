package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"

	"matrix/internal/sim"
)

// runScaledFigure2 runs a shortened Figure 2 (first hotspot only) so unit
// tests stay fast; the full 300-second run is `matrix-bench -exp fig2a,fig2b`.
func runScaledFigure2(t *testing.T) *sim.Result {
	t.Helper()
	cfg := Figure2Config(7)
	cfg.DurationSeconds = 60
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFigure2Reports(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled Figure 2 still simulates 60 seconds")
	}
	t.Parallel()
	res := runScaledFigure2(t)
	a := Figure2a(res)
	if a.ID != "E1a" || len(a.Lines) == 0 {
		t.Fatalf("E1a report empty: %+v", a)
	}
	if a.Numbers["peak_servers"] < 2 {
		t.Errorf("hotspot must engage extra servers: %+v", a.Numbers)
	}
	if a.Numbers["splits"] < 1 {
		t.Errorf("no splits recorded: %+v", a.Numbers)
	}
	b := Figure2b(res)
	if b.ID != "E1b" || len(b.Lines) == 0 {
		t.Fatalf("E1b report empty: %+v", b)
	}
	// The queue must spike when the hotspot lands and be relieved by the
	// splits (the headline of the paper's Figure 2b).
	if b.Numbers["peak_queue"] <= 0 {
		t.Errorf("no queue spike recorded: %+v", b.Numbers)
	}
	if b.Numbers["final_queue"] >= b.Numbers["peak_queue"] {
		t.Errorf("queue not relieved: %+v", b.Numbers)
	}
	if !strings.Contains(a.String(), "E1a") {
		t.Error("String() must include the ID")
	}
}

func TestSwitchingMicro(t *testing.T) {
	t.Parallel()
	r, err := RunSwitchingMicro(context.Background(), Runner{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Numbers["switches"] == 0 {
		t.Fatalf("no switches measured: %+v", r.Numbers)
	}
	// Switching latency must be small relative to the 1s load-report
	// cadence that drives splits — the paper calls it "acceptable".
	if r.Numbers["p95_ms"] > 2000 {
		t.Errorf("switching p95 = %v ms", r.Numbers["p95_ms"])
	}
}

func TestTrafficMicroLinearInOverlap(t *testing.T) {
	t.Parallel()
	r, err := RunTrafficMicro(context.Background(), Runner{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Forwarded traffic must grow with the radius (overlap area), roughly
	// linearly: the paper's E3c claim.
	p10 := r.Numbers["fwd_packets_r10"]
	p40 := r.Numbers["fwd_packets_r40"]
	p80 := r.Numbers["fwd_packets_r80"]
	if !(p80 > p40 && p40 > p10) {
		t.Fatalf("traffic not increasing with radius: %v %v %v", p10, p40, p80)
	}
	a10 := r.Numbers["overlap_area_r10"]
	a40 := r.Numbers["overlap_area_r40"]
	if a40 != 4*a10 {
		t.Errorf("overlap area should scale linearly with R: %v vs %v", a10, a40)
	}
	// Linearity check: packets per overlap area within a factor 3 across
	// the sweep (crowd density is uniform over the band).
	r10 := p10 / a10
	r40 := p40 / a40
	if r40 > 3*r10 || r10 > 3*r40 {
		t.Errorf("traffic/overlap ratio drifts: %v vs %v", r10, r40)
	}
}

// TestCoordinatorMicro checks E3b's shape: one row per fleet size, every
// timing positive (they are time.Since readings, so a wall-clock step
// cannot make one negative).
func TestCoordinatorMicro(t *testing.T) {
	r, err := RunCoordinatorMicro(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Numbers) != 7 {
		t.Errorf("got %d fleet sizes, want 7: %v", len(r.Numbers), r.Numbers)
	}
	for key, ms := range r.Numbers {
		if ms <= 0 {
			t.Errorf("%s = %v ms, want a positive duration", key, ms)
		}
	}
}

// TestExperimentTable pins the table -exp reads: unique keys, every row
// runnable, selection in table order whatever the request order, and an
// unknown key reported in request order with the keys listed.
func TestExperimentTable(t *testing.T) {
	keys := ExperimentKeys()
	seen := map[string]bool{}
	for i, e := range Experiments() {
		if e.Key == "" || e.Run == nil || seen[e.Key] || e.Key != keys[i] {
			t.Fatalf("bad row %d: key %q", i, e.Key)
		}
		seen[e.Key] = true
	}
	all, err := SelectExperiments("all")
	if err != nil || len(all) != len(keys) {
		t.Fatalf("all = %d rows, %v", len(all), err)
	}
	rows, err := SelectExperiments(" scenarios, fig2b ,,fig2a,fig2b")
	if err != nil || len(rows) != 3 || rows[0].Key != "fig2a" || rows[1].Key != "fig2b" || rows[2].Key != "scenarios" {
		t.Errorf("selection = %v, %v; want fig2a fig2b scenarios", rows, err)
	}
	for i := 0; i < 20; i++ {
		_, err := SelectExperiments("fig2a,zzz,aaa")
		if err == nil || !strings.Contains(err.Error(), `"zzz"`) || !strings.Contains(err.Error(), strings.Join(keys, ",")) {
			t.Fatalf("unknown key error = %v", err)
		}
	}
	// The cheap row end to end.
	rep, err := all[slices.Index(keys, "asymptotic")].Run(context.Background(), &Suite{})
	if err != nil || rep.ID != "E5" {
		t.Errorf("asymptotic row = %v, %v", rep, err)
	}
}

func TestAsymptoticReport(t *testing.T) {
	r := RunAsymptotic()
	if r.Numbers["players_at_10k"] < 1e6 {
		t.Errorf("paper claim >1M players at 10k servers failed: %v", r.Numbers["players_at_10k"])
	}
	if r.Numbers["players_2x_capacity"] <= r.Numbers["players_at_10k"] {
		t.Errorf("capacity must be the binding limit: %+v", r.Numbers)
	}
	if len(r.Lines) < 4 {
		t.Errorf("sweep too short: %+v", r.Lines)
	}
}

func TestUserStudyTransparency(t *testing.T) {
	if testing.Short() {
		t.Skip("user study runs two 120s simulations")
	}
	t.Parallel()
	r, err := RunUserStudy(context.Background(), Runner{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if r.Numbers["busy_splits"] == 0 || r.Numbers["busy_switches"] == 0 {
		t.Fatalf("busy run produced no splits/switches: %+v", r.Numbers)
	}
	// Transparency: the busy run's p95 must stay within a small factor of
	// the quiet run's (player-imperceptible degradation).
	quiet, busy := r.Numbers["quiet_p95"], r.Numbers["busy_p95"]
	if busy > quiet+150 {
		t.Errorf("splits degraded p95 by more than 150ms: quiet=%v busy=%v", quiet, busy)
	}
}

func TestStaticVsMatrixReport(t *testing.T) {
	if testing.Short() {
		t.Skip("E2 runs six 120s simulations")
	}
	t.Parallel()
	r, err := RunStaticVsMatrix(context.Background(), Runner{}, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, gameName := range []string{"bzflag", "daimonin", "quake2"} {
		sDrop := r.Numbers[gameName+"/static/dropped"]
		mDrop := r.Numbers[gameName+"/matrix/dropped"]
		if mDrop > sDrop {
			t.Errorf("%s: matrix dropped more than static (%v vs %v)", gameName, mDrop, sDrop)
		}
		if r.Numbers[gameName+"/matrix/peak_servers"] <= r.Numbers[gameName+"/static/peak_servers"] {
			t.Errorf("%s: matrix did not deploy extra servers", gameName)
		}
	}
}
