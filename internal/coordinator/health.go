// Fleet health: heartbeat leases, death detection, warm-spare adoption and
// operator drain.
//
// This is the repo's one crash-recovery path, driven by wall-clock goroutines
// in a live fleet (internal/host) and by the simulator's step on virtual time
// (internal/sim, in any run that checkpoints). Servers renew a lease with
// periodic Heartbeat frames and ship checkpoint blobs between beats; the
// coordinator expires leases on its clock, declares the holder dead, and
// hands the dead server's partition to the first warm spare (restored from
// the victim's last checkpoint). Everything here is inert while
// Config.HeartbeatEvery is zero, so health-unaware deployments — and
// simulations that do not checkpoint — behave exactly as before.
package coordinator

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/protocol"
)

// defaultLeaseMisses is how many beats a server may miss before its lease
// expires when Config.LeaseMisses is zero.
const defaultLeaseMisses = 3

// healthEnabled reports whether heartbeat/lease tracking is on.
func (c *Coordinator) healthEnabled() bool { return c.cfg.HeartbeatEvery > 0 }

func (c *Coordinator) now() time.Time {
	if c.cfg.Clock != nil {
		return c.cfg.Clock.Now()
	}
	return time.Now()
}

// lease is how long a server may go without beating before it is
// declared dead.
func (c *Coordinator) lease() time.Duration {
	misses := c.cfg.LeaseMisses
	if misses <= 0 {
		misses = defaultLeaseMisses
	}
	return time.Duration(misses) * c.cfg.HeartbeatEvery
}

// handleHeartbeat renews from's lease. A beat from a server previously
// declared dead means it was paused or partitioned, not crashed: if its
// region is still parked it is revived in place; if a spare already adopted
// the region the zombie is demoted back into the pool and resynced so it
// redirects any clients it still holds.
func (c *Coordinator) handleHeartbeat(from id.ServerID, hb *protocol.Heartbeat) ([]Envelope, error) {
	st, ok := c.servers[from]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownServer, from)
	}
	if !c.healthEnabled() {
		return nil, nil
	}
	st.lastBeat = c.now()
	st.beats++
	st.clients = int(hb.Clients)
	st.cpTick = hb.CheckpointTick
	if !st.dead {
		return nil, nil
	}
	st.dead = false
	if i := slices.Index(c.parked, from); i >= 0 {
		// Nobody adopted the region yet: the returning server still owns it.
		c.parked = append(c.parked[:i], c.parked[i+1:]...)
		st.active = true
		return c.resync(from)
	}
	// Replaced while away: demote to the spare pool and hand clients over.
	st.active = false
	st.draining = false
	if !st.retired && slices.Index(c.spares, from) < 0 {
		c.spares = append(c.spares, from)
	}
	return c.resync(from)
}

// handleCheckpoint accumulates a server's chunked checkpoint upload and
// installs it as the server's recovery blob when the final chunk arrives. An
// upload that outgrows protocol.MaxBlobSize is dropped and counted (the
// returned error is the one log line); the last complete checkpoint stays.
func (c *Coordinator) handleCheckpoint(from id.ServerID, msg *protocol.SnapshotData) ([]Envelope, error) {
	if _, ok := c.servers[from]; !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownServer, from)
	}
	part := c.cpPartial[from]
	blob, done, err := part.Add(msg.Blob, msg.Final)
	c.cpPartial[from] = part
	if err != nil {
		c.cpOverflows++
		return nil, fmt.Errorf("coordinator: checkpoint upload from %v dropped: %w", from, err)
	}
	if done {
		c.checkpoints[from] = blob
	}
	return nil, nil
}

// HandleDisconnect reacts to a server's control connection dropping. With
// health enabled a dropped connection is an immediate lease expiry — a TCP
// reset is a faster death signal than waiting out N missed beats. With
// health disabled it is a no-op, preserving the pre-health contract that a
// reconnecting server resyncs explicitly. Tick declares an expired lease
// dead through it too. A dead spare (including a server that crashed
// mid-drain, which re-pooled when its drain was granted) simply leaves the
// pool; a dead partition owner triggers adoption.
func (c *Coordinator) HandleDisconnect(sid id.ServerID) []Envelope {
	if !c.healthEnabled() {
		return nil
	}
	st, ok := c.servers[sid]
	if !ok || st.dead || st.retired {
		return nil
	}
	st.dead = true
	c.deaths++
	delete(c.cpPartial, sid) // a half-shipped checkpoint is useless
	if i := slices.Index(c.spares, sid); i >= 0 {
		c.spares = append(c.spares[:i], c.spares[i+1:]...)
		return nil
	}
	if !st.active || c.m == nil {
		return nil
	}
	st.active = false
	return c.adopt(sid)
}

// Tick advances failure detection: leases older than HeartbeatEvery ×
// LeaseMisses expire, and parked regions retry adoption against any spares
// that have appeared. The coordinator host calls it once per heartbeat
// interval; tests call it after advancing a virtual clock.
func (c *Coordinator) Tick() []Envelope {
	if !c.healthEnabled() {
		return nil
	}
	lease := c.lease()
	now := c.now()
	var expired []id.ServerID
	for sid, st := range c.servers {
		if st.dead || st.retired || st.lastBeat.IsZero() {
			continue
		}
		if now.Sub(st.lastBeat) > lease {
			expired = append(expired, sid)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	var out []Envelope
	for _, sid := range expired {
		out = append(out, c.HandleDisconnect(sid)...)
	}
	for len(c.parked) > 0 && len(c.spares) > 0 {
		victim := c.parked[0]
		c.parked = c.parked[1:]
		out = append(out, c.adopt(victim)...)
	}
	return out
}

// adopt hands victim's partition to the first spare in the pool,
// restored from the victim's last shipped checkpoint. With no spare
// available the victim parks for a later Tick or registration to retry —
// regions are never silently dropped.
func (c *Coordinator) adopt(victim id.ServerID) []Envelope {
	if c.m == nil {
		return nil
	}
	if _, err := c.m.Bounds(victim); err != nil {
		return nil // already adopted or reclaimed away
	}
	if len(c.spares) == 0 {
		if slices.Index(c.parked, victim) < 0 {
			c.parked = append(c.parked, victim)
		}
		return nil
	}
	spareID := c.spares[0]
	bounds, err := c.m.ReplaceOwner(victim, spareID)
	if err != nil {
		return nil
	}
	c.activateSpare(0)
	c.adoptions++

	// On file under the adopter's ID until its own first upload replaces it:
	// an adopter dying inside one checkpoint period is not re-adopted cold.
	blob := c.checkpoints[victim]
	delete(c.checkpoints, victim)
	if len(blob) > 0 {
		c.checkpoints[spareID] = blob
	}
	corr := c.nextCorr()
	c.record(Decision{Seq: corr, Kind: "adopt", Server: victim, Child: spareID, Granted: true,
		Inputs: map[string]float64{
			"checkpoint_bytes": float64(len(blob)),
			"checkpoint_tick":  float64(c.servers[victim].cpTick),
			"spares":           float64(len(c.spares)),
			"parked":           float64(len(c.parked)),
		}})

	// Envelope order on the spare's connection is the restore contract:
	// checkpoint chunks, then overlap tables, then the activating
	// RangeUpdate — the spare must hold the victim's world before it owns
	// the victim's rectangle. The handoff list lets it immediately migrate
	// avatars the stale checkpoint places outside the adopted bounds.
	var out []Envelope
	// A cold adoption (no checkpoint was ever shipped) is the empty blob's
	// single empty Final chunk: the spare starts the region empty and
	// clients rebuild their avatars on reconnect.
	for chunk, final := range protocol.Chunks(blob) {
		out = append(out, Envelope{To: spareID, Msg: &protocol.Adopt{Victim: victim, Bounds: bounds, Blob: chunk, Final: final, Corr: corr}})
	}
	if tables, err := c.tableEnvelopes(); err == nil {
		out = append(out, tables...)
	}
	// Best-effort demotion in case the victim is a zombie still draining
	// its socket; for a truly dead process the envelope is simply dropped.
	return append(out,
		c.rangeEnvelope(spareID, bounds, corr),
		c.rangeEnvelope(victim, geom.Rect{}, corr))
}

// handleDrainRequest services a server-initiated drain (matrix-server
// -drain): the requester gets a DrainReply verdict, then the usual drain
// envelopes.
func (c *Coordinator) handleDrainRequest(from id.ServerID, req *protocol.DrainRequest) ([]Envelope, error) {
	target := req.Server
	if !target.Valid() {
		target = from
	}
	envs, err := c.Drain(target, req.Exit)
	if err != nil {
		return []Envelope{{To: from, Msg: &protocol.DrainReply{Granted: false, Reason: err.Error()}}}, nil
	}
	return append([]Envelope{{To: from, Msg: &protocol.DrainReply{Granted: true}}}, envs...), nil
}

// Drain evacuates target's partition and removes it from service: its
// rectangle goes to a warm spare if one is free, else merges back into its
// split-tree parent. The drainee migrates every client through the live
// handoff path, then re-joins the spare pool — or retires for good when
// exit is set. Operator tooling (the coordinator admin port) calls this
// directly; servers request it over the wire via DrainRequest.
func (c *Coordinator) Drain(target id.ServerID, exit bool) ([]Envelope, error) {
	if !c.healthEnabled() {
		return nil, errors.New("coordinator: health tracking disabled (set -heartbeat-every)")
	}
	st, ok := c.servers[target]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownServer, target)
	}
	switch {
	case st.dead:
		return nil, fmt.Errorf("coordinator: server %v is dead", target)
	case st.retired:
		return nil, fmt.Errorf("coordinator: server %v already retired", target)
	case st.draining:
		return nil, fmt.Errorf("coordinator: server %v already draining", target)
	}
	if !st.active {
		// An idle spare has nothing to migrate; draining it only makes
		// sense as a retirement.
		if !exit {
			return nil, fmt.Errorf("%w: %v is already an idle spare", ErrNotActive, target)
		}
		if i := slices.Index(c.spares, target); i >= 0 {
			c.spares = append(c.spares[:i], c.spares[i+1:]...)
		}
		st.retired = true
		c.drains++
		corr := c.nextCorr()
		c.record(Decision{Seq: corr, Kind: "drain", Server: target, Granted: true,
			Inputs: map[string]float64{"exit": 1, "spares": float64(len(c.spares))}})
		return []Envelope{{To: target, Msg: &protocol.DrainRequest{Server: target, Exit: true, Corr: corr}}}, nil
	}
	if c.m == nil {
		return nil, errors.New("coordinator: no active map")
	}
	drainClients := st.clients
	corr := c.nextCorr()
	var out []Envelope
	var successor id.ServerID
	if len(c.spares) > 0 {
		// A warm spare takes over the exact rectangle; the drainee's
		// clients and objects flow to it through live handoff, so no
		// checkpoint is involved.
		spareID := c.spares[0]
		bounds, err := c.m.ReplaceOwner(target, spareID)
		if err != nil {
			return nil, err
		}
		c.activateSpare(0)
		successor = spareID
		out = append(out, c.rangeEnvelope(spareID, bounds, corr))
	} else if c.m.CanReclaim(target) {
		// No spare capacity: fold the rectangle back into the parent, the
		// same merge a reclamation performs.
		parent, merged, err := c.m.Reclaim(target)
		if err != nil {
			return nil, err
		}
		successor = parent
		out = append(out, Envelope{To: parent, Msg: &protocol.RangeUpdate{Server: parent, Bounds: merged, Corr: corr}})
	} else {
		return nil, fmt.Errorf("%w: no spare and partition of %v is not mergeable", ErrPoolExhausted, target)
	}
	st.active = false
	st.clients = 0
	st.draining = true
	c.drains++
	c.record(Decision{Seq: corr, Kind: "drain", Server: target, Child: successor, Granted: true,
		Inputs: map[string]float64{"clients": float64(drainClients), "exit": b2f(exit), "spares": float64(len(c.spares))}})
	if exit {
		st.retired = true
	} else {
		// Re-pool immediately: a crash mid-drain then reads as a dead
		// spare (regions are already elsewhere), not a lost partition.
		c.spares = append(c.spares, target)
	}
	if tables, err := c.tableEnvelopes(); err == nil {
		out = append(out, tables...)
	}
	// Deactivate the drainee last so its successors' tables are already
	// out when it starts migrating clients away.
	return append(out,
		c.rangeEnvelope(target, geom.Rect{}, corr),
		Envelope{To: target, Msg: &protocol.DrainRequest{Server: target, Exit: exit, Corr: corr}}), nil
}

// b2f renders a flag as a decision input.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// --- health introspection (tooling, /metrics and tests) ---

// Deaths returns the number of servers declared dead so far.
func (c *Coordinator) Deaths() int {
	return c.deaths
}

// CheckpointOverflows returns the number of checkpoint uploads dropped for
// outgrowing protocol.MaxBlobSize.
func (c *Coordinator) CheckpointOverflows() int {
	return c.cpOverflows
}

// Adoptions returns the number of partitions adopted by spares.
func (c *Coordinator) Adoptions() int {
	return c.adoptions
}

// Drains returns the number of granted drains.
func (c *Coordinator) Drains() int {
	return c.drains
}

// Parked returns the dead owners whose regions still await a spare, in
// retry (FIFO) order.
func (c *Coordinator) Parked() []id.ServerID {
	return append([]id.ServerID(nil), c.parked...)
}

// CheckpointSize returns the byte length of sid's last complete checkpoint
// (zero when none was shipped).
func (c *Coordinator) CheckpointSize(sid id.ServerID) int {
	return len(c.checkpoints[sid])
}
