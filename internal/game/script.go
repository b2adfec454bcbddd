package game

import (
	"errors"
	"fmt"
	"sort"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/netem"
)

// EventKind classifies a workload script event.
type EventKind uint8

// Event kinds.
const (
	// EventJoin adds clients near a point.
	EventJoin EventKind = iota + 1
	// EventLeave removes clients previously added under the same tag.
	EventLeave
	// EventImpair replaces the network-emulation link impairment applied
	// to every link from this time on (see Event.Impair).
	EventImpair
	// EventPartition cuts the listed servers off the server backbone:
	// peer links to the rest of the fleet blackhole until an EventHeal.
	EventPartition
	// EventHeal reconnects the listed servers (empty Servers heals every
	// partition).
	EventHeal
	// EventCrash fail-stops the listed servers: they stop processing and
	// every link touching them blackholes until an EventRecover.
	EventCrash
	// EventRecover resumes the listed crashed servers (empty Servers
	// recovers all). One that an EventCrashLose killed does not resume: a
	// fresh server registers in its place, under a new ID.
	EventRecover
	// EventCrashLose kills the listed servers for good, as kill -9 does:
	// links blackholed, state lost, every client connection reset. The
	// coordinator's lease runs out and it re-homes the region from the last
	// checkpoint the victim shipped (cold when none was) or parks it. Needs a
	// run that checkpoints (sim.Config.CheckpointEverySeconds > 0).
	EventCrashLose
)

// Event is one scripted population or network-condition change.
type Event struct {
	// At is the virtual time in seconds.
	At float64
	// Kind says what happens.
	Kind EventKind
	// Count is how many clients (join/leave events).
	Count int
	// Center and Spread place joining clients (joiners scatter uniformly
	// within Spread of Center and stay attracted to it).
	Center geom.Point
	Spread float64
	// Tag groups joiners so a later leave event removes the same crowd.
	Tag string
	// Servers lists the targets of partition/heal/crash/recover events,
	// in coordinator registration order (server-1 is the adaptive root;
	// spares become active in split order for a fixed seed).
	Servers []id.ServerID
	// Impair is the new fleet-wide link impairment for EventImpair.
	Impair netem.LinkConfig
}

// impairment reports whether the event changes network conditions rather
// than population.
func (e Event) impairment() bool { return e.Kind >= EventImpair }

// Script is a time-ordered population schedule.
type Script []Event

// Validate checks ordering and field sanity.
func (s Script) Validate() error {
	for i, e := range s {
		switch e.Kind {
		case EventJoin, EventLeave:
			if e.Count <= 0 {
				return fmt.Errorf("game: event %d has count %d", i, e.Count)
			}
			if e.Kind == EventJoin && e.Spread < 0 {
				return fmt.Errorf("game: event %d has negative spread", i)
			}
		case EventImpair:
			if err := e.Impair.Validate(); err != nil {
				return fmt.Errorf("game: event %d: %w", i, err)
			}
		case EventPartition, EventCrash, EventCrashLose:
			if len(e.Servers) == 0 {
				return fmt.Errorf("game: event %d names no servers", i)
			}
		case EventHeal, EventRecover:
			// An empty server list legitimately means "all".
		default:
			return fmt.Errorf("game: event %d has invalid kind", i)
		}
		if i > 0 && e.At < s[i-1].At {
			return errors.New("game: script events must be time-ordered")
		}
	}
	return nil
}

// HasImpairment reports whether any event changes network conditions —
// the simulator activates its netem model when so.
func (s Script) HasImpairment() bool {
	for _, e := range s {
		if e.impairment() {
			return true
		}
	}
	return false
}

// Sorted returns a copy of the script ordered by time (stable).
func (s Script) Sorted() Script {
	out := make(Script, len(s))
	copy(out, s)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// PrefixBefore returns the time-sorted events strictly before cutoff —
// the executed prefix of a run snapshotted at cutoff. Both sides of the
// branching contract use it: warmup runs truncate their script with it,
// and restore-time validation compares prefixes through it, so the
// "strictly before" boundary can never drift between the two.
func (s Script) PrefixBefore(cutoff float64) Script {
	var out Script
	for _, e := range s.Sorted() {
		if e.At >= cutoff {
			break
		}
		out = append(out, e)
	}
	return out
}

// Due returns the events with from <= At < to, assuming s is sorted.
func (s Script) Due(from, to float64) []Event {
	var out []Event
	for _, e := range s {
		if e.At >= to {
			break
		}
		if e.At >= from {
			out = append(out, e)
		}
	}
	return out
}

// Figure2Script reproduces the paper's Figure 2 experiment on the given
// world: "a hotspot of 600 clients ... was introduced at around the 10
// second mark for about 75 seconds, after which the entire hotspot
// gradually disappeared (indicated by 200 clients disappearing at fixed
// intervals). The hotspot was reintroduced at a different position in the
// world at 170 seconds, for about 50 seconds, and then gradually removed."
//
// The first hotspot is placed in the right half of the world so that after
// the first split-to-left (which hands the left half away) the load stays
// with server 1, forcing the recursive second split the paper describes.
func Figure2Script(world geom.Rect) Script {
	// The hotspot centers sit on dyadic cut lines (3/4, 1/4) so the
	// recursive split-to-left halvings bisect the crowds the way the
	// paper's run did, instead of shaving slivers off their edges.
	h1 := geom.Pt(
		world.MinX+0.75*world.Width(),
		world.MinY+0.25*world.Height(),
	)
	h2 := geom.Pt(
		world.MinX+0.25*world.Width(),
		world.MinY+0.75*world.Height(),
	)
	spread := 0.06 * world.Width()
	return Script{
		// Hotspot 1: 600 clients at t=10, drained 200 at a time from t=85.
		{At: 10, Kind: EventJoin, Count: 600, Center: h1, Spread: spread, Tag: "hotspot1"},
		{At: 85, Kind: EventLeave, Count: 200, Tag: "hotspot1"},
		{At: 110, Kind: EventLeave, Count: 200, Tag: "hotspot1"},
		{At: 135, Kind: EventLeave, Count: 200, Tag: "hotspot1"},
		// Hotspot 2 at a different position: t=170 for ~50s, then removed.
		{At: 170, Kind: EventJoin, Count: 600, Center: h2, Spread: spread, Tag: "hotspot2"},
		{At: 220, Kind: EventLeave, Count: 200, Tag: "hotspot2"},
		{At: 240, Kind: EventLeave, Count: 200, Tag: "hotspot2"},
		{At: 260, Kind: EventLeave, Count: 200, Tag: "hotspot2"},
	}
}
