// Snapshot support: State is a Sim's complete serializable image, and
// RestoreSim rebuilds a Sim that continues byte-identically to the captured
// run (fingerprint-verified by internal/snapshot's tests).
//
// Every collection in State is a deterministically ordered slice — nodes in
// registration order (ascending server ID), clients and the latency-skip
// list by ascending client ID, delayed buckets by due tick — so encoding the
// same State twice produces byte-identical output. Per-server and per-client
// facts are fields of the node and client records. Protocol messages held in queues serialize as wire
// frames (the codec the transports already pin with golden tests).
//
// The DTOs live here, next to the fields they mirror; internal/snapshot
// wraps State in a versioned envelope and owns the file format.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"matrix/internal/coordinator"
	"matrix/internal/core"
	"matrix/internal/game"
	"matrix/internal/gameclient"
	"matrix/internal/gameserver"
	"matrix/internal/id"
	"matrix/internal/metrics"
	"matrix/internal/middleware"
	"matrix/internal/netem"
	"matrix/internal/policy"
	"matrix/internal/protocol"
)

// ClientState is one synthetic player inside a State.
type ClientState struct {
	Client    gameclient.State
	Mover     game.MoverState
	Tag       string
	Assigned  id.ServerID
	Acc       float64
	Alive     bool
	HelloAt   float64
	RedirAt   float64
	RedirOpen bool
	// The crash-recovery timers (see simClient): a ghost awaiting expiry
	// since GhostAt, a client redialing since RejoinAt.
	Ghost     bool    `json:",omitempty"`
	GhostAt   float64 `json:",omitempty"`
	Rejoining bool    `json:",omitempty"`
	RejoinAt  float64 `json:",omitempty"`
}

// NodeState is one server slot inside a State.
type NodeState struct {
	Server id.ServerID
	Core   *core.State
	Game   *gameserver.State
	// Limiter is the server's middleware rate-limiter image (per-client
	// token buckets, sorted by client). Omitted when empty so middleware-
	// free snapshots re-encode byte-identically to their history.
	Limiter []middleware.BucketState `json:",omitempty"`
	// CheckpointTick is the tick at which the server last shipped a
	// checkpoint to the coordinator (what its heartbeats report).
	CheckpointTick uint64 `json:",omitempty"`
	// ActivePrev: active at the last sample. Dead: killed by an
	// EventCrashLose (its checkpoint, lease and parked region are the
	// coordinator's state, not the sim's).
	ActivePrev bool `json:",omitempty"`
	Dead       bool `json:",omitempty"`
}

// DelayedEntry is one in-flight netem-delayed message.
type DelayedEntry struct {
	FromServer id.ServerID
	FromClient id.ClientID
	ToServer   id.ServerID
	ToClient   id.ClientID
	Kind       uint8
	Frame      []byte
}

// DelayedBucket holds the messages due at one tick, in send order.
type DelayedBucket struct {
	DueTick int
	Entries []DelayedEntry
}

// SkipState is one client's latency-window skip count.
type SkipState struct {
	Client id.ClientID
	Skip   int
}

// State is a Sim's complete serializable image between two ticks.
type State struct {
	Config      Config
	Tick        int
	RNG         uint64
	Gen         id.GeneratorState
	Coordinator *coordinator.State
	Nodes       []NodeState
	Clients     []ClientState

	Registry      metrics.RegistryState
	Latency       []float64
	SwitchLatency []float64
	RecoveryGap   []float64
	Events        []TopologyEvent
	Counters      Counters
	LatSkip       []SkipState
	LatWindowed   bool

	Netem   *netem.ModelState
	Delayed []DelayedBucket
}

// CaptureState snapshots the simulation between two ticks. The returned
// State shares no mutable memory with the Sim: the run may continue (or the
// State may seed several restored runs) without either affecting the other.
// Valid after Start; the usual points are mid-run (between Step calls) or
// after Done.
func (s *Sim) CaptureState() (*State, error) {
	if !s.started {
		return nil, errors.New("sim: capture before Start")
	}
	st := &State{
		Config: s.cfg,
		Tick:   s.tick,
		RNG:    s.rng.State,
		Gen:    s.gen.State(),

		Registry:      s.reg.State(),
		Latency:       s.lat.Samples(),
		SwitchLatency: s.swLat.Samples(),
		RecoveryGap:   s.recGap.Samples(),
		Events:        append([]TopologyEvent(nil), s.events...),
		LatWindowed:   s.latWindowed,
		Counters:      s.res.Counters,
	}
	// The worker count is an execution knob that never affects results:
	// captured state is identical whatever pool the run used, and a
	// restored run picks its own (RestoreOptions.SimWorkers).
	st.Config.SimWorkers = 0
	st.Coordinator = s.mc.CaptureState()

	for _, n := range s.nodes {
		sid := n.Core.ID()
		cs, err := n.Core.CaptureState()
		if err != nil {
			return nil, fmt.Errorf("sim: capture %v core: %w", sid, err)
		}
		gs, err := n.Game.CaptureState()
		if err != nil {
			return nil, fmt.Errorf("sim: capture %v game server: %w", sid, err)
		}
		ns := NodeState{Server: sid, Core: cs, Game: gs, CheckpointTick: n.cpTick, ActivePrev: n.activePrev, Dead: n.dead}
		if n.MW != nil && n.MW.Limiter() != nil {
			ns.Limiter = n.MW.Limiter().State()
		}
		st.Nodes = append(st.Nodes, ns)
	}

	for i, sc := range s.clients {
		cid := sc.cl.ID()
		if i < len(s.latSkip) {
			st.LatSkip = append(st.LatSkip, SkipState{Client: cid, Skip: s.latSkip[i]})
		}
		st.Clients = append(st.Clients, ClientState{
			Client:    sc.cl.State(),
			Mover:     sc.mover.State(),
			Tag:       sc.tag,
			Assigned:  sc.assigned,
			Acc:       sc.acc,
			Alive:     sc.alive,
			HelloAt:   sc.helloAt,
			RedirAt:   sc.redirAt,
			RedirOpen: sc.redirOpen,
			Ghost:     sc.ghost,
			GhostAt:   sc.ghostAt,
			Rejoining: sc.rejoining,
			RejoinAt:  sc.rejoinAt,
		})
	}

	if s.nm != nil {
		ns := s.nm.State()
		st.Netem = &ns

		dues := make([]int, 0, len(s.nq))
		for due := range s.nq {
			dues = append(dues, due)
		}
		slices.Sort(dues)
		for _, due := range dues {
			bucket := DelayedBucket{DueTick: due}
			for _, e := range s.nq[due] {
				frame, err := protocol.Marshal(e.msg)
				if err != nil {
					return nil, fmt.Errorf("sim: capture delayed %v: %w", e.msg.MsgType(), err)
				}
				bucket.Entries = append(bucket.Entries, DelayedEntry{
					FromServer: e.from.Server,
					FromClient: e.from.Client,
					ToServer:   e.to.Server,
					ToClient:   e.to.Client,
					Kind:       uint8(e.kind),
					Frame:      frame,
				})
			}
			st.Delayed = append(st.Delayed, bucket)
		}
	}
	return st, nil
}

// RestoreOptions lets a restored run diverge from the captured one at or
// after the snapshot point — the branching-sweep primitive.
type RestoreOptions struct {
	// Script, when non-nil, replaces the captured config's script. Every
	// event strictly before the snapshot time must match the captured
	// script exactly (those events already executed); events at or after
	// it may differ freely.
	Script game.Script
	// DurationSeconds, when positive, overrides the captured run length.
	// It must not cut the run shorter than the snapshot point.
	DurationSeconds float64
	// SimWorkers, when positive, sets the restored run's intra-sim worker
	// pool (snapshots never record one — the worker count cannot affect
	// results, so the restored run continues byte-identically to the
	// captured one under any value).
	SimWorkers int
	// Policy, when non-empty, names the decision policy for the restored
	// run — the policy-sweep branching primitive: one warmup fans out into
	// one tail per rival. Naming a different policy than the captured run
	// swaps in fresh instances (their internal state starts empty and the
	// captured policy state is discarded); naming the same policy, or
	// leaving this empty, restores the captured policy state and the run
	// continues byte-identically.
	Policy string
}

// Restore rebuilds a simulation from a captured state; the state is not
// retained and may seed any number of restores.
func Restore(st *State) (*Sim, error) {
	return RestoreWith(st, RestoreOptions{})
}

// RestoreWith rebuilds a simulation from a captured state, optionally
// replacing the script tail and run length (see RestoreOptions). The
// restored run continues byte-identically to the captured one when the
// options are empty.
func RestoreWith(st *State, opts RestoreOptions) (*Sim, error) {
	cfg := st.Config
	snapTime := float64(st.Tick) * cfg.TickSeconds
	if opts.Script != nil {
		if err := scriptPrefixesMatch(cfg.Script, opts.Script, snapTime); err != nil {
			return nil, err
		}
		cfg.Script = opts.Script
	}
	if opts.DurationSeconds > 0 {
		cfg.DurationSeconds = opts.DurationSeconds
	}
	if opts.SimWorkers > 0 {
		cfg.SimWorkers = opts.SimWorkers
	}
	// A policy swap drops the captured policy state everywhere (coordinator,
	// per-server trackers): the new policy starts fresh at the snapshot point,
	// exactly as if it had observed nothing yet. (The checkpoint blobs the
	// coordinator holds carry policy state too, but an adoption restores only
	// their game world.)
	dropPolicyState := false
	if opts.Policy != "" && policy.Normalize(opts.Policy) != policy.Normalize(cfg.Policy) {
		cfg.Policy = opts.Policy
		dropPolicyState = true
	}
	cfg, err := cfg.sanitized()
	if err != nil {
		return nil, err
	}
	if int(cfg.DurationSeconds/cfg.TickSeconds+0.5)+1 < st.Tick {
		return nil, errors.New("sim: restored duration ends before the snapshot point")
	}

	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	s.reg = metrics.NewRegistryFromState(st.Registry)
	s.lat = metrics.NewHistogramFromSamples(st.Latency)
	s.swLat = metrics.NewHistogramFromSamples(st.SwitchLatency)
	s.recGap = metrics.NewHistogramFromSamples(st.RecoveryGap)
	s.started = true
	s.tick = st.Tick
	s.latWindowed = st.LatWindowed
	s.initCadence()
	s.rng = netem.Rand{State: st.RNG}
	s.gen.SetState(st.Gen)
	s.now = float64(st.Tick) * s.dt
	// Advance the virtual clock tick by tick's worth in one jump: Time
	// addition is exact integer nanosecond arithmetic, so k single-tick
	// advances equal one k-tick advance.
	s.clk.Advance(time.Duration(st.Tick) * time.Duration(s.dt*float64(time.Second)))

	if st.Coordinator == nil {
		return nil, errors.New("sim: state has no coordinator")
	}
	mcState := st.Coordinator
	if dropPolicyState && len(mcState.PolicyState) > 0 {
		cp := *mcState
		cp.PolicyState = nil
		mcState = &cp
	}
	if err := s.mc.RestoreState(mcState); err != nil {
		return nil, err
	}

	for _, ns := range st.Nodes {
		if ns.Core == nil || ns.Game == nil {
			return nil, fmt.Errorf("sim: node %v state incomplete", ns.Server)
		}
		n, err := s.addNode(&protocol.RegisterReply{Server: ns.Server, Bounds: ns.Core.Bounds, World: cfg.World})
		if err != nil {
			return nil, err
		}
		coreState := ns.Core
		if dropPolicyState && len(coreState.PolicyState) > 0 {
			cp := *coreState
			cp.PolicyState = nil
			coreState = &cp
		}
		if err := n.Core.RestoreState(coreState); err != nil {
			return nil, fmt.Errorf("sim: restore %v core: %w", ns.Server, err)
		}
		if err := n.Game.RestoreState(ns.Game); err != nil {
			return nil, fmt.Errorf("sim: restore %v game server: %w", ns.Server, err)
		}
		if len(ns.Limiter) > 0 && n.MW != nil && n.MW.Limiter() != nil {
			n.MW.Limiter().SetState(ns.Limiter)
		}
		n.cpTick, n.activePrev, n.dead = ns.CheckpointTick, ns.ActivePrev, ns.Dead
	}

	// Client c sits at index c-1 (see Sim.client), so the image must hold
	// exactly the IDs the generator has handed out, in order.
	if st.Gen.Client != uint64(len(st.Clients)) {
		return nil, fmt.Errorf("sim: state has %d clients but the generator issued %d", len(st.Clients), st.Gen.Client)
	}
	for _, cst := range st.Clients {
		if cst.Client.ID != id.ClientID(len(s.clients)+1) {
			return nil, fmt.Errorf("sim: state client %d is %v, want ascending IDs from 1", len(s.clients), cst.Client.ID)
		}
		cl, err := gameclient.NewFromState(cst.Client, s.clk)
		if err != nil {
			return nil, fmt.Errorf("sim: restore client %v: %w", cst.Client.ID, err)
		}
		s.clients = append(s.clients, &simClient{
			cl:        *cl,
			mover:     game.NewMoverFromState(cfg.Profile, cfg.World, cst.Mover),
			tag:       cst.Tag,
			assigned:  cst.Assigned,
			acc:       cst.Acc,
			alive:     cst.Alive,
			helloAt:   cst.HelloAt,
			redirAt:   cst.RedirAt,
			redirOpen: cst.RedirOpen,
			ghost:     cst.Ghost,
			ghostAt:   cst.GhostAt,
			rejoining: cst.Rejoining,
			rejoinAt:  cst.RejoinAt,
		})
	}

	s.events = append([]TopologyEvent(nil), st.Events...)
	s.res.Counters = st.Counters
	// The window covered clients 1..k when it opened (see Sim.latSkip).
	for i, sk := range st.LatSkip {
		if sk.Client != id.ClientID(i+1) || i >= len(s.clients) {
			return nil, fmt.Errorf("sim: state LatSkip entry %d is %v, want the first clients ascending from 1", i, sk.Client)
		}
		s.latSkip = append(s.latSkip, sk.Skip)
	}

	switch {
	case st.Netem != nil:
		s.nm = netem.NewModelFromState(*st.Netem)
		s.nq = make(map[int][]netemEntry)
		for _, bucket := range st.Delayed {
			entries := make([]netemEntry, 0, len(bucket.Entries))
			for _, e := range bucket.Entries {
				m, err := protocol.Unmarshal(e.Frame)
				if err != nil {
					return nil, fmt.Errorf("sim: restore delayed frame: %w", err)
				}
				entries = append(entries, netemEntry{
					from: netem.Endpoint{Server: e.FromServer, Client: e.FromClient},
					to:   netem.Endpoint{Server: e.ToServer, Client: e.ToClient},
					kind: netemDest(e.Kind),
					msg:  m,
				})
			}
			s.nq[bucket.DueTick] = entries
		}
	case cfg.Netem.Enabled() || s.script.HasImpairment():
		// The captured run never activated emulation, but the (possibly
		// replaced) script introduces it after the snapshot point — the
		// branching case of a clean warmup fanning into impaired tails.
		// This matches a cold run of the full script: its model would have
		// existed from t=0 but, with a zero link config and no events yet,
		// would have made no draws and held no link state.
		s.enableNetem()
	}
	return s, nil
}

// scriptPrefixesMatch verifies that every event strictly before cutoff is
// identical in both scripts (after time-sorting, the order the simulator
// executes them in).
func scriptPrefixesMatch(captured, replacement game.Script, cutoff float64) error {
	a := captured.PrefixBefore(cutoff)
	b := replacement.PrefixBefore(cutoff)
	if len(a) != len(b) {
		return fmt.Errorf("sim: replacement script has %d events before t=%g, captured run had %d", len(b), cutoff, len(a))
	}
	for i := range a {
		if !eventsEqual(a[i], b[i]) {
			return fmt.Errorf("sim: replacement script diverges before the snapshot point (event %d, t=%g)", i, a[i].At)
		}
	}
	return nil
}

// eventsEqual compares two script events field by field.
func eventsEqual(a, b game.Event) bool {
	if a.At != b.At || a.Kind != b.Kind || a.Count != b.Count ||
		a.Center != b.Center || a.Spread != b.Spread || a.Tag != b.Tag ||
		a.Impair != b.Impair {
		return false
	}
	return slices.Equal(a.Servers, b.Servers)
}
