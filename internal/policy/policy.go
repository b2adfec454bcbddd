// Package policy separates the control plane's *decisions* from the
// mechanism that executes them. The four topology decisions a Matrix
// deployment makes — when an overloaded server splits, where the child's
// region is carved, when a parent reclaims an idle child, and which spare
// backs the next split — were hard-coded across internal/load,
// internal/core and internal/coordinator; this package puts them behind
// one interface so rival heuristics can be swapped in by name and judged
// head-to-head by the experiment suite (E8).
//
// The mechanism/policy boundary: trackers, servers and the coordinator
// own the measurements (client counts, queue depths, dwell timers, the
// spare pool, the space map) and drive the protocol; a Policy only reads
// immutable views of those measurements and answers. Implementations
// need no internal locking — every instance is owned by exactly one
// tracker or one coordinator, and its owner serialises the calls.
//
// Determinism contract for stateful policies: a policy may keep internal
// state (dwell anchors, load history, churn windows) but it must evolve
// only from the views and events it is handed — never from wall-clock
// reads, map iteration or randomness — and it must round-trip through
// State/RestoreState exactly, so a run restored from a snapshot finishes
// byte-identical to the uninterrupted run.
package policy

import (
	"fmt"
	"strings"
	"time"

	"matrix/internal/geom"
	"matrix/internal/id"
)

// KV is one named input a policy read while deciding, in read order. The
// flight recorder's decision audit reproduces these verbatim, so every
// audited split/reclaim names the exact numbers that produced it.
type KV struct {
	Key string
	Val float64
}

// Verdict is a policy's answer to a should-we question.
type Verdict struct {
	// Act is true when the policy wants the action taken now.
	Act bool
	// Reason is a short human explanation ("overloaded", "split cooldown").
	Reason string
	// Inputs are the values the policy read, for the decision audit.
	Inputs []KV
}

// Thresholds are the paper's tunables, the one definition every layer
// shares: load.Config (and through it sim.Config.LoadPolicy and the
// facade's LoadPolicy) is an alias of this type, and policies read it
// already sanitized (defaults filled in, ranges validated).
type Thresholds struct {
	// OverloadClients is the client count at which a server is overloaded
	// and tries to split (paper: 300).
	OverloadClients int
	// UnderloadClients is the client count below which a server counts as
	// underloaded and becomes a reclamation candidate (paper: 150).
	UnderloadClients int
	// OverloadQueue, when positive, also marks the server overloaded when
	// its receive-queue length reaches this value — the paper's "or via
	// system performance measurements" trigger. It catches overloads that
	// client counts miss (e.g. heavy inter-server forwarding near a
	// partition corner). Zero disables the queue trigger.
	OverloadQueue int
	// SplitCooldown is the minimum interval between two splits by the same
	// server, preventing split storms while redirected clients are still in
	// flight.
	SplitCooldown time.Duration
	// ReclaimDwell is how long the combined parent+child load must stay
	// under the reclaim headroom before the parent actually reclaims,
	// preventing split/reclaim oscillation at the threshold boundary.
	ReclaimDwell time.Duration
	// ReclaimHeadroom is the fraction of OverloadClients that the combined
	// parent+child load must stay below for a reclaim to be safe. A merge
	// that immediately re-overloads the parent would oscillate.
	ReclaimHeadroom float64
}

// DefaultThresholds returns the paper-aligned tunables: overload at 300
// clients, underload below 150, 2s split cooldown, 3s reclaim dwell, and a
// merged load ceiling of 80% of the overload threshold.
func DefaultThresholds() Thresholds {
	return Thresholds{
		OverloadClients:  300,
		UnderloadClients: 150,
		SplitCooldown:    2 * time.Second,
		ReclaimDwell:     3 * time.Second,
		ReclaimHeadroom:  0.8,
	}
}

// withDefaults returns c with zero fields replaced by defaults.
func (c Thresholds) withDefaults() Thresholds {
	d := DefaultThresholds()
	if c.OverloadClients <= 0 {
		c.OverloadClients = d.OverloadClients
	}
	if c.UnderloadClients <= 0 {
		c.UnderloadClients = d.UnderloadClients
	}
	if c.SplitCooldown <= 0 {
		c.SplitCooldown = d.SplitCooldown
	}
	if c.ReclaimDwell <= 0 {
		c.ReclaimDwell = d.ReclaimDwell
	}
	if c.ReclaimHeadroom <= 0 || c.ReclaimHeadroom > 1 {
		c.ReclaimHeadroom = d.ReclaimHeadroom
	}
	return c
}

// Validate rejects configurations that defaults cannot repair. A negative
// OverloadQueue is a typo (zero disables the queue trigger, positive
// enables it), and an underload threshold above the overload threshold
// would mark every freshly split child reclaimable the moment it spawns,
// so the fleet would thrash split/reclaim forever. (The messages keep the
// "load:" prefix every CLI and facade caller has always been shown.)
func (c Thresholds) Validate() error {
	if c.OverloadQueue < 0 {
		return fmt.Errorf("load: OverloadQueue must be zero (queue trigger off) or positive, got %d", c.OverloadQueue)
	}
	e := c.withDefaults()
	if e.UnderloadClients > e.OverloadClients {
		return fmt.Errorf("load: UnderloadClients (%d) exceeds OverloadClients (%d); a server would be underloaded and overloaded at once", e.UnderloadClients, e.OverloadClients)
	}
	return nil
}

// Sanitized validates c and fills defaults.
func (c Thresholds) Sanitized() (Thresholds, error) {
	if err := c.Validate(); err != nil {
		return Thresholds{}, err
	}
	return c.withDefaults(), nil
}

// LoadView is what a split decision may read: one server's latest load
// report plus its split history, on the policy clock (virtual in the sim).
type LoadView struct {
	Now       time.Time
	Clients   int
	QueueLen  int
	HaveSplit bool
	// LastSplit is meaningful only when HaveSplit is true.
	LastSplit time.Time
	Cfg       Thresholds
}

// ChildView is one child's load as its parent last heard it.
type ChildView struct {
	ID id.ServerID
	// Known is false until the child's first relayed load report.
	Known    bool
	Clients  int
	QueueLen int
	// Below reports the mechanism's combined-under condition right now;
	// BelowSince is when the current quiet streak began (zero when none).
	// The tracker maintains the streak from the paper's combined-load
	// predicate; policies are free to use it or apply their own test.
	Below      bool
	BelowSince time.Time
}

// FamilyView is what a reclaim decision may read: the parent's own load
// and one candidate child.
type FamilyView struct {
	Now      time.Time
	Clients  int
	QueueLen int
	Child    ChildView
	Cfg      Thresholds
}

// SplitView is what a placement decision may read: the parent region
// being divided and the pool pressure behind the split.
type SplitView struct {
	Parent  id.ServerID
	Child   id.ServerID
	Bounds  geom.Rect
	World   geom.Rect
	Clients int
	Spares  int
}

// Placement is where the child goes: Keep and Give must partition
// SplitView.Bounds into two disjoint non-empty rectangles (the space map
// rejects anything else).
type Placement struct {
	Keep   geom.Rect
	Give   geom.Rect
	Reason string
}

// PoolView is what a spare-selection decision may read: the warm-spare
// pool in arrival (FIFO) order.
type PoolView struct {
	Spares []id.ServerID
}

// Event is feedback a policy receives when a topology action it (or its
// peer instance at the coordinator) approved actually happened.
type Event struct {
	Now time.Time
	// Kind is "split" or "reclaim".
	Kind  string
	Child id.ServerID
}

// Policy answers the four topology questions. One instance serves one
// decision site (a server's tracker, or the coordinator); instances are
// never shared, so implementations need no locking.
type Policy interface {
	// Name is the registered identifier ("paper", "hysteresis", ...).
	Name() string
	// ShouldSplit decides whether the server should request a split now.
	ShouldSplit(LoadView) Verdict
	// ShouldReclaim decides whether the parent should reclaim the child.
	ShouldReclaim(FamilyView) Verdict
	// PlaceChild carves the child's region out of the parent's.
	PlaceChild(SplitView) Placement
	// PickSpare chooses the next child from a non-empty spare pool. The
	// returned ID must be one of PoolView.Spares.
	PickSpare(PoolView) id.ServerID
	// NoteEvent feeds back a granted split/reclaim (for churn tracking).
	NoteEvent(Event)
	// State snapshots the policy's internal state deterministically; nil
	// means stateless. RestoreState(State()) must reproduce the policy
	// exactly — the snapshot/restore fingerprint contract depends on it.
	State() []byte
	// RestoreState rebuilds internal state from a State() snapshot. A nil
	// or empty snapshot resets to the fresh state.
	RestoreState([]byte) error
}

// Default is the policy used when no name is given.
const Default = "paper"

type entry struct {
	name string
	desc string
	make func() Policy
}

// registry lists the policies in presentation order, paper first.
var registry = []entry{
	{"paper", "the paper's heuristics: overload at 300 clients (or queue depth), 2s split cooldown, reclaim after a 3s combined-under dwell, FIFO spares, split-to-left", func() Policy { return paper{} }},
	{"hysteresis", "paper plus a split-side dwell: overload must persist one full cooldown before a split is requested, damping flash-crowd overreaction", func() Policy { return &hysteresis{} }},
	{"predictive", "load-derivative trigger: splits early when the 5s client-count forecast crosses the overload threshold, reclaims like paper", func() Policy { return &predictive{} }},
	{"costaware", "migration-storm penalty: reclaim dwell stretches with recent topology churn, and splits hand away the half farther from the world center", func() Policy { return &costaware{} }},
	{"static", "straw man: never splits, never reclaims — the fleet keeps whatever partitioning it started with (pair with a static grid)", func() Policy { return static{} }},
}

// Names returns the registered policy names in presentation order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// Describe returns name's one-line description, or "" for unknown names.
func Describe(name string) string {
	for _, e := range registry {
		if e.name == name {
			return e.desc
		}
	}
	return ""
}

// New builds a fresh instance of the named policy; the empty string means
// Default. Unknown names fail with the valid names listed, so a mistyped
// -policy flag is caught at parse time.
func New(name string) (Policy, error) {
	if name == "" {
		name = Default
	}
	for _, e := range registry {
		if e.name == name {
			return e.make(), nil
		}
	}
	return nil, fmt.Errorf("policy: unknown policy %q (known: %s)", name, strings.Join(Names(), ", "))
}

// Valid reports whether name refers to a registered policy (or is empty,
// meaning Default), returning the New error otherwise.
func Valid(name string) error {
	_, err := New(name)
	return err
}

// Normalize maps the empty name to Default and leaves others unchanged,
// so callers can compare policy identities.
func Normalize(name string) string {
	if name == "" {
		return Default
	}
	return name
}
