// Flight-recorder integration: the sampling and decision-audit hooks the
// simulator drives when a recorder is attached (see internal/flight).
//
// Every hook runs on the stepping goroutine — sampling from Step's stage 7,
// decision audit from phase-B envelope routing and script handling — so a
// recording is byte-identical for any SimWorkers value. Recording is
// observation only: nothing here mutates simulation state, and attaching a
// recorder never changes Result.Fingerprint (both pinned by tests).
package sim

import (
	"fmt"
	"math"

	"matrix/internal/flight"
	"matrix/internal/id"
	"matrix/internal/protocol"
)

// SetRecorder attaches (nil detaches) a flight recorder. Like the tracer
// and SimWorkers it is an execution knob, not simulation state: snapshots do
// not record it and results are byte-identical with or without one.
func (s *Sim) SetRecorder(r *flight.Recorder) { s.rec = r }

// recordSample appends one recorder row: per-server load, fleet shape,
// cumulative protocol counters and the derived imbalance statistics. Called
// on the sample cadence, right after the metrics-registry sample, so the
// recording and Result.Metrics describe the same instants.
func (s *Sim) recordSample(tick int) {
	s.rec.Sample(int64(tick), s.now)

	active, depth := 0, 0
	var total, maxClients float64
	var drops, delivered uint64
	counts := make([]float64, 0, len(s.nodes))
	for _, n := range s.nodes {
		st := n.Game.Stats()
		drops += st.Dropped
		delivered += st.Delivered
		if !n.Core.Active() || n.dead {
			continue
		}
		sid := n.Core.ID()
		active++
		c := float64(n.Game.ClientCount())
		counts = append(counts, c)
		total += c
		if c > maxClients {
			maxClients = c
		}
		if d := s.treeDepth(sid); d > depth {
			depth = d
		}
		s.rec.Set(fmt.Sprintf("clients/%v", sid), c)
		s.rec.Set(fmt.Sprintf("queue/%v", sid), float64(n.Game.QueueLen()))
		s.rec.Set(fmt.Sprintf("objects/%v", sid), float64(n.Game.ObjectCount()))
	}
	s.rec.Set("servers/active", float64(active))
	s.rec.Set("servers/spare", float64(s.mc.SpareCount()))
	s.rec.Set("regions", float64(len(s.mc.Partitions())))
	s.rec.Set("tree/depth", float64(depth))

	s.rec.Set("drops/total", float64(drops))
	s.rec.Set("delivered/total", float64(delivered))
	s.rec.Set("redirects/total", float64(s.res.Redirects))
	s.rec.Set("splits/total", float64(s.mc.Splits()))
	s.rec.Set("reclaims/total", float64(s.mc.Reclaims()))

	// Load-imbalance statistics over active-server client counts, recorded
	// as percents so the Perfetto counter tracks (integer-valued after the
	// merge's rounding) keep the signal: CoV of 0.42 becomes 42.
	if active > 0 && total > 0 {
		mean := total / float64(active)
		var ss float64
		for _, c := range counts {
			ss += (c - mean) * (c - mean)
		}
		cov := math.Sqrt(ss/float64(active)) / mean
		s.rec.Set("imbalance/cov-pct", cov*100)
		s.rec.Set("imbalance/max-mean-pct", maxClients/mean*100)
	} else {
		s.rec.Set("imbalance/cov-pct", 0)
		s.rec.Set("imbalance/max-mean-pct", 0)
	}

	// Subsystem counters join the recording only when their subsystem ran,
	// mirroring the fingerprint's conditional netem/middleware lines.
	if s.res.NetemActive {
		s.rec.Set("netem/lost", float64(s.res.NetemLost))
		s.rec.Set("netem/severed", float64(s.res.NetemSevered))
		s.rec.Set("netem/delayed", float64(s.res.NetemDelayed))
		s.rec.Set("ghosts/expired", float64(s.res.GhostsExpired))
		s.rec.Set("restarts/total", float64(s.res.Restarts))
		s.rec.Set("recovery/rejoins", float64(s.res.RecoveryRejoins))
	}
	if s.res.MiddlewareActive {
		s.rec.Set("mw/rate-limited", float64(s.res.RateLimited))
		s.rec.Set("mw/shed", float64(s.res.AdmissionShed))
	}
}

// treeDepth walks sid's split-tree parent chain to the root.
func (s *Sim) treeDepth(sid id.ServerID) int {
	d := 0
	for at := sid; ; {
		p := s.node(at).Core.Parent()
		if s.node(p) == nil {
			return d
		}
		d++
		at = p
	}
}

// auditSplit records one split grant or denial with the inputs that
// produced it: the request's own load reading, the requester's tracker
// state and thresholds, and the MC's remaining spare pool.
func (s *Sim) auditSplit(req *protocol.SplitRequest, rep *protocol.SplitReply) {
	d := flight.Decision{
		Tick: int64(s.tick), Time: s.now, Kind: "split",
		Granted: rep.Granted, Server: int64(req.Server),
		Corr: rep.Corr, Reason: rep.Reason,
	}
	if rep.Granted {
		d.Child = int64(rep.Child)
	}
	if n := s.node(req.Server); n != nil {
		tr := n.Core.Tracker()
		d.Policy = tr.Policy()
		// Request and reply complete within one tick (request emitted in
		// phase A, reply routed in the same phase B), so the verdict the
		// policy cached when it asked for this split is still current: the
		// audit reproduces the exact inputs the policy read.
		if v := tr.SplitVerdict(); len(v.Inputs) > 0 {
			for _, kv := range v.Inputs {
				d.Inputs = append(d.Inputs, flight.KV{Key: kv.Key, Val: kv.Val})
			}
			d.Inputs = append(d.Inputs, flight.KV{Key: "spares-left", Val: float64(s.mc.SpareCount())})
		} else {
			// No cached verdict (a stray reply): reconstruct from tracker
			// state and thresholds.
			st, cfg := tr.State(), tr.Config()
			d.Inputs = append(d.Inputs,
				flight.KV{Key: "clients", Val: float64(req.Clients)},
				flight.KV{Key: "queue", Val: float64(st.QueueLen)},
				flight.KV{Key: "overload-clients", Val: float64(cfg.OverloadClients)},
				flight.KV{Key: "overload-queue", Val: float64(cfg.OverloadQueue)},
				flight.KV{Key: "split-cooldown-s", Val: cfg.SplitCooldown.Seconds()},
				flight.KV{Key: "spares-left", Val: float64(s.mc.SpareCount())},
			)
		}
	}
	s.rec.Record(d)
}

// auditReclaim records one reclaim grant or denial. corr is the correlation
// ID the MC stamped on the child's deactivating RangeUpdate (the reply
// itself is unstamped), zero for denials.
func (s *Sim) auditReclaim(req *protocol.ReclaimRequest, rep *protocol.ReclaimReply, corr uint64) {
	d := flight.Decision{
		Tick: int64(s.tick), Time: s.now, Kind: "reclaim",
		Granted: rep.Granted, Server: int64(req.Parent), Child: int64(req.Child),
		Corr: corr, Reason: rep.Reason,
	}
	if n := s.node(req.Parent); n != nil {
		tr := n.Core.Tracker()
		d.Policy = tr.Policy()
		// As with splits, the round trip completes within one tick and the
		// parent forgets the child only when the reply lands, so the cached
		// verdict still describes exactly what the policy saw.
		if v := tr.ReclaimVerdict(req.Child); len(v.Inputs) > 0 {
			for _, kv := range v.Inputs {
				d.Inputs = append(d.Inputs, flight.KV{Key: kv.Key, Val: kv.Val})
			}
		} else {
			st, cfg := tr.State(), tr.Config()
			d.Inputs = append(d.Inputs,
				flight.KV{Key: "parent-clients", Val: float64(st.Clients)},
				flight.KV{Key: "parent-queue", Val: float64(st.QueueLen)},
				flight.KV{Key: "underload-clients", Val: float64(cfg.UnderloadClients)},
				flight.KV{Key: "reclaim-headroom", Val: cfg.ReclaimHeadroom},
				flight.KV{Key: "reclaim-dwell-s", Val: cfg.ReclaimDwell.Seconds()},
			)
			for _, ch := range st.Children {
				if ch.Child != req.Child {
					continue
				}
				d.Inputs = append(d.Inputs,
					flight.KV{Key: "child-clients", Val: float64(ch.Clients)},
					flight.KV{Key: "child-queue", Val: float64(ch.QueueLen)},
					flight.KV{Key: "child-below", Val: b01(ch.Below)},
				)
				break
			}
		}
	}
	s.rec.Record(d)
}

func b01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
