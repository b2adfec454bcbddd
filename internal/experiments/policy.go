// E8 — the policy head-to-head: every registered decision policy
// (internal/policy) runs the full scenario table and the policies are
// ranked on a composite of the headline costs. It is one job list for the
// sweep engine: each scenario family's shared warmup is simulated ONCE per
// seed (under the default paper policy, since the family members must
// share their prefix bit-for-bit), and every (member, policy) pair is a
// tail restored from it with Job.TailPolicy swapping the decision policy
// in at the branch point. The static straw man is the exception: restoring
// an adaptively split fleet under a policy whose whole premise is "never
// reshape" would hand it the adaptive warmup for free, so static rows
// always cold-start on an internal/staticpart grid of MaxServers fixed
// tiles.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"matrix/internal/policy"
	"matrix/internal/staticpart"
)

// policyMetrics are the per-run costs the ranking composites over.
// Lower is better for every one of them.
type policyMetrics struct {
	P95Ms     float64 // action→echo latency p95 (ms)
	Dropped   float64 // packets dropped by full queues
	Redirects float64 // clients bounced between servers
	Peak      float64 // peak servers drawn from the pool
	Topology  float64 // splits + reclaims (churn)
}

// values returns the metrics in a fixed order matching policyMetricNames.
func (m policyMetrics) values() []float64 {
	return []float64{m.P95Ms, m.Dropped, m.Redirects, m.Peak, m.Topology}
}

var policyMetricNames = []string{"p95_ms", "dropped", "redirects", "peak_servers", "topology"}

// PolicyStanding is one policy's aggregate result in the E8 study,
// exported so docs tooling and tests can consume the ranking without
// parsing the report text.
type PolicyStanding struct {
	// Policy is the registered policy name.
	Policy string
	// Score is the composite: for every scenario and metric the policy's
	// value is normalized by the best (lowest) value any policy achieved
	// on that scenario+metric — (v+1)/(min+1), so zero-valued metrics
	// still compare — and the normalized values are averaged. 1.0 means
	// the policy won every metric of every scenario outright.
	Score float64
	// Mean per-scenario costs, for the summary table.
	Mean policyMetrics
}

// RunPolicyStudy executes E8: all registered policies across the full
// scenario table, ranked by composite score. Jobs (and the per-scenario
// metrics) are keyed "<scenario>/<policy>".
func RunPolicyStudy(ctx context.Context, r Runner, seed int64) (*Report, error) {
	pols, scs := policy.Names(), Scenarios()
	var jobs []Job
	for _, sc := range scs {
		for _, pol := range pols {
			j := sc.job(seed)
			j.Name += "/" + pol
			switch {
			case pol == "static":
				tiles, err := staticpart.Grid(j.Config.World, j.Config.MaxServers)
				if err != nil {
					return nil, fmt.Errorf("policy study %s: %w", j.Name, err)
				}
				j.Config.Policy, j.Config.Static, j.Family = pol, tiles, ""
			case j.branches():
				// The paper tail restores the captured policy state and stays
				// byte-identical to its cold run; a rival tail starts fresh.
				j.Config.Policy, j.TailPolicy = policy.Default, pol
			default:
				j.Config.Policy = pol
			}
			jobs = append(jobs, j)
		}
	}
	outs, err := r.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	perScenario := make(map[string]policyMetrics, len(outs))
	for _, o := range outs {
		splits, reclaims := countEvents(o.Result)
		perScenario[o.Name] = policyMetrics{
			P95Ms:     o.Result.Latency.Quantile(0.95),
			Dropped:   float64(o.Result.DroppedPackets),
			Redirects: float64(o.Result.Redirects),
			Peak:      float64(o.Result.PeakServers),
			Topology:  float64(splits + reclaims),
		}
	}
	return policyReport(rankPolicies(pols, scs, perScenario), scs, perScenario), nil
}

// rankPolicies computes each policy's composite score (see
// PolicyStanding.Score) and returns the standings best-first.
func rankPolicies(pols []string, scs []Scenario, perScenario map[string]policyMetrics) []PolicyStanding {
	standings := make([]PolicyStanding, 0, len(pols))
	for _, pol := range pols {
		var sum float64
		var mean policyMetrics
		for _, sc := range scs {
			mine := perScenario[sc.Name+"/"+pol].values()
			var scSum float64
			for mi, v := range mine {
				min := v
				for _, other := range pols {
					if ov := perScenario[sc.Name+"/"+other].values()[mi]; ov < min {
						min = ov
					}
				}
				scSum += (v + 1) / (min + 1)
			}
			sum += scSum / float64(len(mine))
			m := perScenario[sc.Name+"/"+pol]
			mean.P95Ms += m.P95Ms
			mean.Dropped += m.Dropped
			mean.Redirects += m.Redirects
			mean.Peak += m.Peak
			mean.Topology += m.Topology
		}
		n := float64(len(scs))
		mean.P95Ms /= n
		mean.Dropped /= n
		mean.Redirects /= n
		mean.Peak /= n
		mean.Topology /= n
		standings = append(standings, PolicyStanding{
			Policy: pol,
			Score:  sum / n,
			Mean:   mean,
		})
	}
	sort.SliceStable(standings, func(i, j int) bool {
		return standings[i].Score < standings[j].Score
	})
	return standings
}

// policyReport renders the E8 report: the ranked summary first, then the
// per-scenario detail grid. Numbers carry the composite per policy
// ("<policy>/score", "<policy>/rank") and the full metric grid
// ("<scenario>/<policy>/<metric>").
func policyReport(standings []PolicyStanding, scs []Scenario, perScenario map[string]policyMetrics) *Report {
	rep := &Report{ID: "E8", Title: "policy head-to-head — all registered policies across the scenario table", Numbers: map[string]float64{}}
	rep.addf("%-4s %-12s %7s %10s %9s %10s %6s %9s", "rank", "policy", "score", "p95(ms)", "dropped", "redirects", "peak", "topology")
	for i, s := range standings {
		rep.addf("%-4d %-12s %7.3f %10.1f %9.0f %10.0f %6.1f %9.1f",
			i+1, s.Policy, s.Score, s.Mean.P95Ms, s.Mean.Dropped, s.Mean.Redirects, s.Mean.Peak, s.Mean.Topology)
		rep.Numbers[s.Policy+"/score"] = s.Score
		rep.Numbers[s.Policy+"/rank"] = float64(i + 1)
	}
	rep.addf("")
	rep.addf("per-scenario detail (p95 ms / dropped / redirects / peak / topology):")
	for _, sc := range scs {
		rep.addf("%-16s", sc.Name)
		for _, s := range standings {
			m := perScenario[sc.Name+"/"+s.Policy]
			rep.addf("  %-12s %10.1f %9.0f %10.0f %6.0f %9.0f",
				s.Policy, m.P95Ms, m.Dropped, m.Redirects, m.Peak, m.Topology)
			for mi, name := range policyMetricNames {
				rep.Numbers[sc.Name+"/"+s.Policy+"/"+name] = m.values()[mi]
			}
		}
	}
	return rep
}
