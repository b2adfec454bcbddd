package game

import (
	"fmt"
	"math/rand"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/netem"
)

// This file holds the script generators behind the named workload
// scenarios (internal/experiments' scenario table): stress shapes beyond
// the paper's single Figure 2 schedule, all deterministic in their seed.

// FlashCrowdScript models flash-crowd churn: `waves` sudden crowds of
// `count` clients each materialize at random points, linger only `dwell`
// seconds, and vanish again, with `period` seconds between wave starts.
// Waves overlap whenever dwell+drain exceeds period, so the cluster is
// forced to split for crowds that are already dissolving — the
// pathological case for any slow-reacting partitioner.
func FlashCrowdScript(world geom.Rect, waves, count int, period, dwell float64, seed int64) Script {
	rnd := rand.New(rand.NewSource(seed))
	spread := 0.06 * world.Width()
	var s Script
	t := 5.0
	for w := 0; w < waves; w++ {
		center := randPoint(rnd, world, spread)
		tag := fmt.Sprintf("flash%d", w)
		s = append(s, Event{At: t, Kind: EventJoin, Count: count, Center: center, Spread: spread, Tag: tag})
		// Drain in two gulps: half at dwell, the rest shortly after, so the
		// leave edge is steep but not a single-tick cliff.
		s = append(s, Event{At: t + dwell, Kind: EventLeave, Count: count / 2, Tag: tag})
		s = append(s, Event{At: t + dwell + 3, Kind: EventLeave, Count: count - count/2, Tag: tag})
		t += period
	}
	return s.Sorted()
}

// MigrationScript models a multi-hotspot migration storm: `crowds`
// simultaneous hotspots of `count` clients each hop to a fresh random
// location every `dwellPerHop` seconds, `hops` times. Each hop is a full
// leave+rejoin at the new point, so ownership of every crowd keeps
// crossing partition boundaries while other crowds hold their load — the
// worst case for split placement and reclaim hysteresis at once.
func MigrationScript(world geom.Rect, crowds, hops, count int, dwellPerHop float64, seed int64) Script {
	rnd := rand.New(rand.NewSource(seed))
	spread := 0.05 * world.Width()
	var s Script
	for c := 0; c < crowds; c++ {
		// Stagger crowd starts so hops interleave instead of synchronizing.
		t := 5.0 + float64(c)*dwellPerHop/float64(crowds)
		for h := 0; h < hops; h++ {
			center := randPoint(rnd, world, spread)
			tag := fmt.Sprintf("crowd%d-hop%d", c, h)
			s = append(s, Event{At: t, Kind: EventJoin, Count: count, Center: center, Spread: spread, Tag: tag})
			s = append(s, Event{At: t + dwellPerHop, Kind: EventLeave, Count: count, Tag: tag})
			t += dwellPerHop
		}
	}
	return s.Sorted()
}

// ReclaimStressScript models split/reclaim thrash: one fixed point is
// hammered with `cycles` rounds of `count` clients joining and then fully
// leaving `dwell` seconds later, with only `gap` quiet seconds between
// rounds. Every round pushes the owner over the overload threshold and
// then drops it under the reclaim threshold, so the topology wants to
// oscillate; the dwell/cooldown hysteresis is what keeps the event count
// bounded.
func ReclaimStressScript(world geom.Rect, cycles, count int, dwell, gap float64) Script {
	center := geom.Pt(
		world.MinX+0.75*world.Width(),
		world.MinY+0.25*world.Height(),
	)
	spread := 0.06 * world.Width()
	var s Script
	t := 5.0
	for c := 0; c < cycles; c++ {
		tag := fmt.Sprintf("surge%d", c)
		s = append(s, Event{At: t, Kind: EventJoin, Count: count, Center: center, Spread: spread, Tag: tag})
		s = append(s, Event{At: t + dwell, Kind: EventLeave, Count: count, Tag: tag})
		t += dwell + gap
	}
	return s
}

// JitterStormScript models a hotspot played over a WAN that degrades
// mid-match: `count` clients pile onto the dyadic hotspot point at t=5,
// and at `worsenAt` an impair event swaps the baseline link for `storm`
// (typically much heavier jitter, forcing reordering) until `calmAt`
// restores `baseline`. The crowd drains near the end so reclaim runs under
// the restored network.
func JitterStormScript(world geom.Rect, count int, worsenAt, calmAt float64, baseline, storm netem.LinkConfig) Script {
	center := geom.Pt(
		world.MinX+0.75*world.Width(),
		world.MinY+0.25*world.Height(),
	)
	spread := 0.06 * world.Width()
	return Script{
		{At: 5, Kind: EventJoin, Count: count, Center: center, Spread: spread, Tag: "storm"},
		{At: worsenAt, Kind: EventImpair, Impair: storm},
		{At: calmAt, Kind: EventImpair, Impair: baseline},
		{At: calmAt + 15, Kind: EventLeave, Count: count, Tag: "storm"},
	}
}

// PartitionScript models a backbone partition: a hotspot big enough to
// force a split joins at t=5, and once the child server (server-2, the
// first spare a deterministic run activates) is carrying the load, it is
// cut off the inter-server network from `cutAt` to `healAt`. Peer
// forwarding across the partition blackholes while clients keep talking to
// their own servers — the consistency-set half of the protocol runs
// degraded, the session half doesn't.
func PartitionScript(world geom.Rect, count int, cutAt, healAt float64) Script {
	center := geom.Pt(
		world.MinX+0.75*world.Width(),
		world.MinY+0.25*world.Height(),
	)
	spread := 0.10 * world.Width()
	return Script{
		{At: 5, Kind: EventJoin, Count: count, Center: center, Spread: spread, Tag: "hot"},
		{At: cutAt, Kind: EventPartition, Servers: []id.ServerID{2}},
		{At: healAt, Kind: EventHeal, Servers: []id.ServerID{2}},
		{At: healAt + 15, Kind: EventLeave, Count: count, Tag: "hot"},
	}
}

// CrashStormScript models rolling server failures under sustained load:
// two hotspots of `count` clients each force the fleet to split out
// several children, then the listed victims crash for `downtime` seconds
// one after another, `interval` seconds apart, starting at `firstCrash`.
// Crashed servers freeze (state retained) and all their links blackhole;
// their clients' traffic drops until recovery.
func CrashStormScript(world geom.Rect, count int, firstCrash, interval, downtime float64, victims []id.ServerID) Script {
	spread := 0.08 * world.Width()
	s := Script{
		{At: 5, Kind: EventJoin, Count: count, Center: geom.Pt(
			world.MinX+0.75*world.Width(), world.MinY+0.25*world.Height(),
		), Spread: spread, Tag: "east"},
		{At: 8, Kind: EventJoin, Count: count, Center: geom.Pt(
			world.MinX+0.25*world.Width(), world.MinY+0.75*world.Height(),
		), Spread: spread, Tag: "west"},
	}
	lastRecover := firstCrash + downtime
	for i, v := range victims {
		at := firstCrash + float64(i)*interval
		s = append(s, Event{At: at, Kind: EventCrash, Servers: []id.ServerID{v}})
		s = append(s, Event{At: at + downtime, Kind: EventRecover, Servers: []id.ServerID{v}})
		if at+downtime > lastRecover {
			lastRecover = at + downtime
		}
	}
	// Drain once the storm has passed, so reclaim runs over the healed
	// fleet.
	s = append(s, Event{At: lastRecover + 5, Kind: EventLeave, Count: count, Tag: "east"})
	s = append(s, Event{At: lastRecover + 5, Kind: EventLeave, Count: count, Tag: "west"})
	return s.Sorted()
}

// RecoveryScript models a real, state-losing crash of *loaded* servers.
// The crowd joins in the left half of the world at x=0.375·W — the piece
// the first split hands to server-2 (split-to-left) and the second split
// leaves with it — so the first spare ends up carrying the hotspot. A
// transient wave then joins and fully departs before `crashAt`: a region
// adopted from a checkpoint older than the departure resurrects the wave as
// ghosts, so checkpoint staleness becomes measurable. At `crashAt` the
// victims die for good, their state and their clients' connections with
// them; the coordinator's leases find that out and re-home their regions
// (see sim.Config.CheckpointEverySeconds); at `recoverAt` one fresh server
// per victim registers — the recovery gap and rejoin storm E7 measures. The
// crowd half-drains afterwards so reclaim runs over the healed fleet.
func RecoveryScript(world geom.Rect, count int, crashAt, recoverAt float64, victims []id.ServerID) Script {
	center := geom.Pt(
		world.MinX+0.375*world.Width(),
		world.MinY+0.25*world.Height(),
	)
	spread := 0.08 * world.Width()
	waveStart := crashAt * 0.5
	waveEnd := crashAt - 8
	return Script{
		{At: 5, Kind: EventJoin, Count: count, Center: center, Spread: spread, Tag: "town"},
		{At: waveStart, Kind: EventJoin, Count: count / 4, Center: center, Spread: spread, Tag: "wave"},
		{At: waveEnd, Kind: EventLeave, Count: count / 4, Tag: "wave"},
		{At: crashAt, Kind: EventCrashLose, Servers: victims},
		{At: recoverAt, Kind: EventRecover, Servers: victims},
		{At: recoverAt + 25, Kind: EventLeave, Count: count / 2, Tag: "town"},
	}
}

// randPoint picks a point uniformly inside world, inset by margin so a
// crowd scattered around it stays mostly on the map.
func randPoint(rnd *rand.Rand, world geom.Rect, margin float64) geom.Point {
	w := world.Width() - 2*margin
	h := world.Height() - 2*margin
	return geom.Pt(
		world.MinX+margin+rnd.Float64()*w,
		world.MinY+margin+rnd.Float64()*h,
	)
}
