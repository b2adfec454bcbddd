package experiments

import (
	"context"
	"fmt"

	"matrix/internal/game"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/load"
	"matrix/internal/netem"
	"matrix/internal/sim"
)

// Scenario is one named workload in the shared scenario table. The same
// table backs cmd/matrix-bench (-exp scenarios, -scenario), the
// experiments tests and the repository benchmarks, so a scenario added
// here is immediately runnable everywhere.
type Scenario struct {
	// Name is the stable identifier used on the command line.
	Name string
	// Title is the one-line description printed in reports.
	Title string
	// Config builds the scenario's simulation for a seed.
	Config func(seed int64) sim.Config
	// Family groups scenarios that share a deterministic warmup prefix and
	// WarmupSeconds is the family's branch point (see Job.Family: a sweep
	// holding several members simulates the prefix once). Empty means the
	// scenario shares nothing.
	Family        string
	WarmupSeconds float64
}

// job is the scenario's entry in a sweep's job list.
func (sc Scenario) job(seed int64) Job {
	return Job{Name: sc.Name, Config: sc.Config(seed), Family: sc.Family, WarmupSeconds: sc.WarmupSeconds}
}

// scenarioTable lists every named workload, paper figures first.
var scenarioTable = []Scenario{
	{
		Name:   "figure2",
		Title:  "paper Figure 2 — 600-client hotspot, appears twice, drains gradually",
		Config: Figure2Config,
	},
	{
		Name:   "flashcrowd",
		Title:  "flash-crowd churn — 4 sudden 400-client crowds, each gone within ~15s",
		Config: FlashCrowdConfig,
	},
	{
		Name:   "migration",
		Title:  "migration storm — 3 hotspots of 200 clients hopping across the map",
		Config: MigrationConfig,
	},
	{
		Name:   "reclaimstress",
		Title:  "reclaim stress — 5 surge/drain cycles thrashing split+reclaim at one point",
		Config: ReclaimStressConfig,
	},
	{
		Name:   "shedding",
		Title:  "overload shedding — flash-crowd churn with per-client rate limiting + queue admission",
		Config: SheddingConfig,
	},
	{
		Name:   "lossy",
		Title:  "bursty loss — flash-crowd churn with 2% i.i.d. + Gilbert–Elliott burst loss on every link",
		Config: LossyConfig,
	},
	{
		Name:   "jittery",
		Title:  "jitter storm — hotspot under 100ms±300ms reordering jitter mid-run, calm before reclaim",
		Config: JitteryConfig,
	},
	{
		Name:   "partition",
		Title:  "backbone partition — split child cut off the inter-server network for 25s, then healed",
		Config: PartitionConfig,
	},
	{
		Name:   "crashstorm",
		Title:  "crash storm — rolling crash/recover of split children under two sustained hotspots",
		Config: CrashStormConfig,
	},
	{
		Name:   "recovery",
		Title:  "crash recovery — two servers die at t=55: a spare adopts one region from its 10s checkpoint, the other parks until t=70",
		Config: RecoveryConfig,
	},
	{
		Name:          "surge-drain",
		Title:         "surge family — shared 70s split warmup, then the crowd drains (reclaim tail)",
		Config:        SurgeDrainConfig,
		Family:        "surge",
		WarmupSeconds: SurgeWarmupSeconds,
	},
	{
		Name:          "surge-secondwave",
		Title:         "surge family — shared 70s split warmup, then a second 400-client crowd lands west",
		Config:        SurgeSecondWaveConfig,
		Family:        "surge",
		WarmupSeconds: SurgeWarmupSeconds,
	},
	{
		Name:          "surge-jitter",
		Title:         "surge family — shared 70s split warmup, then 80ms±250ms jitter until t=100",
		Config:        SurgeJitterConfig,
		Family:        "surge",
		WarmupSeconds: SurgeWarmupSeconds,
	},
	{
		Name:          "surge-crash",
		Title:         "surge family — shared 70s split warmup, then server-2 dies and a spare adopts its region from checkpoint",
		Config:        SurgeCrashConfig,
		Family:        "surge",
		WarmupSeconds: SurgeWarmupSeconds,
	},
}

// Scenarios returns the scenario table in stable order.
func Scenarios() []Scenario {
	out := make([]Scenario, len(scenarioTable))
	copy(out, scenarioTable)
	return out
}

// ScenarioNames returns the table's names in stable order.
func ScenarioNames() []string {
	names := make([]string, len(scenarioTable))
	for i, sc := range scenarioTable {
		names[i] = sc.Name
	}
	return names
}

// ScenarioByName looks a scenario up by its stable name.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range scenarioTable {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// scenarioBase is the common shape of the stress scenarios: the Figure 2
// world and fleet with capacity for ~600 clients per server.
func scenarioBase(seed int64) sim.Config {
	return sim.Config{
		Profile:            game.Bzflag(),
		World:              World,
		Seed:               seed,
		MaxServers:         8,
		ServiceRatePerTick: 300,
		BasePopulation:     100,
		LoadPolicy:         load.Config{OverloadQueue: 3000},
		SampleEverySeconds: 5,
	}
}

// FlashCrowdConfig builds the flash-crowd churn scenario: crowds large
// enough to force a split arrive faster than they drain, at random spots.
func FlashCrowdConfig(seed int64) sim.Config {
	cfg := scenarioBase(seed)
	cfg.DurationSeconds = 110
	cfg.Script = game.FlashCrowdScript(World, 4, 400, 22, 10, seed)
	return cfg
}

// SheddingConfig builds the overload-shedding scenario: the flash-crowd
// churn workload with the admission chain active. Each client may send 4
// updates/sec sustained (burst 8) against bzflag's 5/sec offered rate, so
// the limiter trims steady-state traffic, and the shed queue kicks in at
// half the overload threshold so bursts shed data-plane load before the
// load policy ever reports overload.
func SheddingConfig(seed int64) sim.Config {
	cfg := scenarioBase(seed)
	cfg.DurationSeconds = 110
	cfg.Script = game.FlashCrowdScript(World, 4, 400, 22, 10, seed)
	cfg.Middleware = &sim.MiddlewareConfig{
		RateLimitPerSec: 4,
		RateLimitBurst:  8,
		ShedQueue:       1500,
	}
	return cfg
}

// MigrationConfig builds the multi-hotspot migration storm: three crowds
// that keep relocating, so load never settles where the last split put it.
func MigrationConfig(seed int64) sim.Config {
	cfg := scenarioBase(seed)
	cfg.DurationSeconds = 110
	cfg.Script = game.MigrationScript(World, 3, 3, 200, 25, seed)
	return cfg
}

// ReclaimStressConfig builds the split/reclaim thrash scenario: one point
// surging over and draining under the thresholds, cycle after cycle.
func ReclaimStressConfig(seed int64) sim.Config {
	cfg := scenarioBase(seed)
	cfg.DurationSeconds = 115
	cfg.Script = game.ReclaimStressScript(World, 5, 400, 10, 10)
	return cfg
}

// LossyConfig builds the bursty-loss scenario: the flash-crowd churn
// workload with every link losing 2% of data packets i.i.d. plus
// Gilbert–Elliott bursts (30% loss while a burst lasts). Session control
// stays reliable, so the cluster keeps reshaping itself while gameplay
// deliveries and echoes go missing.
func LossyConfig(seed int64) sim.Config {
	cfg := scenarioBase(seed)
	cfg.DurationSeconds = 110
	cfg.Script = game.FlashCrowdScript(World, 4, 400, 22, 10, seed)
	cfg.Netem = netem.Config{Link: netem.LinkConfig{
		Loss:       0.02,
		BurstLoss:  0.30,
		BurstEnter: 0.02,
		BurstExit:  0.25,
	}}
	return cfg
}

// JitteryConfig builds the jitter-storm scenario: a split-forcing hotspot
// played over a 40ms±100ms WAN that degrades to 100ms±300ms mid-run —
// jitter well past the 100ms tick, so deliveries reorder across ticks —
// and calms back down before the crowd drains.
func JitteryConfig(seed int64) sim.Config {
	baseline := netem.LinkConfig{DelayMs: 40, JitterMs: 100}
	storm := netem.LinkConfig{DelayMs: 100, JitterMs: 300}
	cfg := scenarioBase(seed)
	cfg.DurationSeconds = 110
	cfg.Script = game.JitterStormScript(World, 500, 40, 75, baseline, storm)
	cfg.Netem = netem.Config{Link: baseline}
	return cfg
}

// PartitionConfig builds the backbone-partition scenario: a hotspot forces
// a split, then the child server is cut off the inter-server network from
// t=40 to t=65 while its clients keep playing. Peer forwarding across the
// boundary blackholes; the severed counter measures the consistency-set
// traffic the partition cost.
func PartitionConfig(seed int64) sim.Config {
	cfg := scenarioBase(seed)
	cfg.DurationSeconds = 100
	cfg.Script = game.PartitionScript(World, 600, 40, 65)
	return cfg
}

// CrashStormConfig builds the crash-storm scenario: two hotspots split the
// fleet out, then servers 2 and 3 crash for 12s each in a rolling wave
// (server 2 twice). Crashed servers freeze with their state and every
// link touching them blackholes; recovery drains the backlog.
func CrashStormConfig(seed int64) sim.Config {
	cfg := scenarioBase(seed)
	cfg.DurationSeconds = 110
	cfg.Script = game.CrashStormScript(World, 450, 45, 18, 12,
		[]id.ServerID{2, 3, 2})
	return cfg
}

// RecoveryConfig builds the crash-recovery scenario: the hotspot splits
// the fleet out to seven servers of eight, every server renews a lease each
// second and ships a checkpoint every 10, and two of the crowd-carrying
// children (servers 3 and 5 for these splits) die at t=55. The coordinator
// finds out when the leases run out, three missed beats later: the first
// region goes to the one free spare, restored from the victim's last
// checkpoint, and the second parks until the script's recover at t=70 starts
// two fresh servers — one adopts it on the spot, one joins the pool. (Server
// 5, not 6: it is the parent whose reclaim of server 7 at t≈59 would free a
// server for the parked region early and hide that branch.) A transient
// join/leave wave before the crash makes checkpoint staleness observable: a
// world adopted from a blob older than the wave's departure resurrects it as
// ghosts. Experiment E7 sweeps the checkpoint interval over this scenario.
func RecoveryConfig(seed int64) sim.Config {
	cfg := scenarioBase(seed)
	cfg.DurationSeconds = 110
	cfg.CheckpointEverySeconds = 10
	cfg.Script = game.RecoveryScript(World, 500, 55, 70, []id.ServerID{3, 5})
	return cfg
}

// SurgeWarmupSeconds is the surge family's branch point: every surge-*
// scenario shares the identical first 70 simulated seconds.
const SurgeWarmupSeconds = 70

// surgeBase is the family's shared config: the warmup crowd forces the
// fleet to split out and settle before any tail diverges. Checkpointing is
// on family-wide, leases and lease checks with it (the crash tail needs
// them, and family members must share everything except the script tail).
func surgeBase(seed int64) sim.Config {
	cfg := scenarioBase(seed)
	cfg.DurationSeconds = 130
	cfg.CheckpointEverySeconds = 15
	cfg.Script = surgeWarmup()
	return cfg
}

// surgeWarmup is the shared script prefix (all events strictly before
// SurgeWarmupSeconds).
func surgeWarmup() game.Script {
	center := geom.Pt(
		World.MinX+0.75*World.Width(),
		World.MinY+0.25*World.Height(),
	)
	return game.Script{
		{At: 10, Kind: game.EventJoin, Count: 500, Center: center, Spread: 0.08 * World.Width(), Tag: "surge"},
	}
}

// SurgeDrainConfig: after the shared warmup the crowd drains in two gulps,
// exercising reclaim over the branched state.
func SurgeDrainConfig(seed int64) sim.Config {
	cfg := surgeBase(seed)
	cfg.Script = append(surgeWarmup(),
		game.Event{At: 75, Kind: game.EventLeave, Count: 250, Tag: "surge"},
		game.Event{At: 95, Kind: game.EventLeave, Count: 250, Tag: "surge"},
	)
	return cfg
}

// SurgeSecondWaveConfig: a second crowd lands in the opposite corner while
// the first persists, forcing fresh splits far from the warmed-up ones.
func SurgeSecondWaveConfig(seed int64) sim.Config {
	cfg := surgeBase(seed)
	west := geom.Pt(World.MinX+0.25*World.Width(), World.MinY+0.75*World.Height())
	cfg.Script = append(surgeWarmup(),
		game.Event{At: 75, Kind: game.EventJoin, Count: 400, Center: west, Spread: 0.08 * World.Width(), Tag: "wave2"},
		game.Event{At: 110, Kind: game.EventLeave, Count: 400, Tag: "wave2"},
		game.Event{At: 115, Kind: game.EventLeave, Count: 250, Tag: "surge"},
	)
	return cfg
}

// SurgeJitterConfig: the network degrades to heavy reordering jitter for
// ~30s after the warmup, then heals.
func SurgeJitterConfig(seed int64) sim.Config {
	cfg := surgeBase(seed)
	cfg.Script = append(surgeWarmup(),
		game.Event{At: 72, Kind: game.EventImpair, Impair: netem.LinkConfig{DelayMs: 80, JitterMs: 250, Loss: 0.01}},
		game.Event{At: 100, Kind: game.EventImpair},
		game.Event{At: 110, Kind: game.EventLeave, Count: 250, Tag: "surge"},
	)
	return cfg
}

// SurgeCrashConfig: the loaded child dies right after the warmup and, its
// lease run out, a spare adopts its region from the family's 15s checkpoints.
func SurgeCrashConfig(seed int64) sim.Config {
	cfg := surgeBase(seed)
	cfg.Script = append(surgeWarmup(),
		game.Event{At: 75, Kind: game.EventCrashLose, Servers: []id.ServerID{2}},
		game.Event{At: 85, Kind: game.EventRecover, Servers: []id.ServerID{2}},
		game.Event{At: 115, Kind: game.EventLeave, Count: 250, Tag: "surge"},
	)
	return cfg
}

// RunScenarios executes the named scenarios (all of them when names is
// empty, otherwise in request order) on the sweep engine and reports each
// one's headline numbers. Numbers are keyed "<scenario>/<metric>".
func RunScenarios(ctx context.Context, r Runner, seed int64, names ...string) (*Report, error) {
	if len(names) == 0 {
		names = ScenarioNames()
	}
	jobs := make([]Job, 0, len(names))
	for _, name := range names {
		sc, ok := ScenarioByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown scenario %q (known: %v)", name, ScenarioNames())
		}
		jobs = append(jobs, sc.job(seed))
	}
	outs, err := r.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "SWEEP", Title: "scenario sweep", Numbers: map[string]float64{}}
	rep.addf("%-16s %5s %6s %7s %9s %10s %8s %9s %8s %8s %7s %9s %12s", "scenario", "peak", "final", "splits", "reclaims", "redirects", "dropped", "lost", "severed", "delayed", "ghosts", "restarts", "p95 lat(ms)")
	for _, o := range outs {
		res := o.Result
		splits, reclaims := countEvents(res)
		rep.addf("%-16s %5d %6d %7d %9d %10d %8d %9d %8d %8d %7d %9d %12.1f",
			o.Name, res.PeakServers, res.FinalServers, splits, reclaims,
			res.Redirects, res.DroppedPackets,
			res.NetemLost, res.NetemSevered, res.NetemDelayed,
			res.GhostsExpired, res.Restarts,
			res.Latency.Quantile(0.95))
		rep.Numbers[o.Name+"/peak_servers"] = float64(res.PeakServers)
		rep.Numbers[o.Name+"/final_servers"] = float64(res.FinalServers)
		rep.Numbers[o.Name+"/splits"] = float64(splits)
		rep.Numbers[o.Name+"/reclaims"] = float64(reclaims)
		rep.Numbers[o.Name+"/redirects"] = float64(res.Redirects)
		rep.Numbers[o.Name+"/dropped"] = float64(res.DroppedPackets)
		rep.Numbers[o.Name+"/netem_lost"] = float64(res.NetemLost)
		rep.Numbers[o.Name+"/netem_severed"] = float64(res.NetemSevered)
		rep.Numbers[o.Name+"/netem_delayed"] = float64(res.NetemDelayed)
		rep.Numbers[o.Name+"/ghosts"] = float64(res.GhostsExpired)
		rep.Numbers[o.Name+"/restarts"] = float64(res.Restarts)
		rep.Numbers[o.Name+"/ratelimited"] = float64(res.RateLimited)
		rep.Numbers[o.Name+"/shed"] = float64(res.AdmissionShed)
		rep.Numbers[o.Name+"/p95_ms"] = res.Latency.Quantile(0.95)
	}
	return rep, nil
}
