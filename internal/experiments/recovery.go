package experiments

import (
	"context"
	"fmt"
)

// E7 — recovery gap and redirect storm vs checkpoint interval.
//
// A real crash loses state, and the middleware answer is periodic
// checkpointing — at the price of a rollback: everything since the last
// checkpoint is gone and departed clients resurrect as ghosts. This
// experiment sweeps the checkpoint interval over the recovery scenario
// (hotspot splits the fleet, two loaded children die at t=55, lease expiry
// hands one region to the free spare and parks the other until fresh servers
// register at t=70 — the production heal path on virtual time, sim/health.go)
// and measures what the interval buys: the gap each reconnecting client
// experienced, the size of the rejoin/redirect storm, and the ghost cleanup
// the rollback forced. "cold" is a checkpoint period longer than the run:
// leases on, nothing ever shipped, so the coordinator adopts cold — the
// region starts empty and client state is rebuilt from reconnects.
func RunRecovery(ctx context.Context, r Runner, seed int64) (*Report, error) {
	intervals := []float64{0, 5, 10, 20, 40}
	var jobs []Job
	for _, iv := range intervals {
		cfg := RecoveryConfig(seed)
		cfg.CheckpointEverySeconds = iv
		name := fmt.Sprintf("chk=%gs", iv)
		if iv == 0 {
			name, cfg.CheckpointEverySeconds = "cold", 2*cfg.DurationSeconds
		}
		jobs = append(jobs, Job{Name: name, Config: cfg})
	}
	outs, err := r.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "E7", Title: "crash recovery — recovery gap and redirect storm vs checkpoint interval", Numbers: map[string]float64{}}
	rep.addf("%-8s %9s %8s %12s %12s %10s %7s %9s %12s",
		"chkpt", "restarts", "rejoins", "gap p50(ms)", "gap p95(ms)", "redirects", "ghosts", "dropped", "p95 lat(ms)")
	for _, o := range outs {
		res := o.Result
		rep.addf("%-8s %9d %8d %12.0f %12.0f %10d %7d %9d %12.1f",
			o.Name, res.Restarts, res.RecoveryRejoins,
			res.RecoveryGap.Quantile(0.50), res.RecoveryGap.Quantile(0.95),
			res.Redirects, res.GhostsExpired, res.DroppedPackets,
			res.Latency.Quantile(0.95))
		rep.Numbers[o.Name+"/restarts"] = float64(res.Restarts)
		rep.Numbers[o.Name+"/rejoins"] = float64(res.RecoveryRejoins)
		rep.Numbers[o.Name+"/gap_p50_ms"] = res.RecoveryGap.Quantile(0.50)
		rep.Numbers[o.Name+"/gap_p95_ms"] = res.RecoveryGap.Quantile(0.95)
		rep.Numbers[o.Name+"/redirects"] = float64(res.Redirects)
		rep.Numbers[o.Name+"/ghosts"] = float64(res.GhostsExpired)
		rep.Numbers[o.Name+"/p95_ms"] = res.Latency.Quantile(0.95)
	}
	return rep, nil
}
