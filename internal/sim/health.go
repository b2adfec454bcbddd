// The health plane under the deterministic engine. A run that checkpoints
// builds its coordinator with leases on and the virtual clock (newSim); this
// file is the part of a live host (internal/host) the simulated servers need
// to be healed by it. Nothing here decides anything: death detection, spare
// choice, parking and the restore order are coordinator/health.go's, so a
// simulated state-losing crash heals through the production path or not at all.
package sim

import (
	"time"

	"matrix/internal/flight"
	"matrix/internal/id"
	"matrix/internal/protocol"
)

// heartbeatEvery is the lease-renewal and lease-check period: the live host's
// default (host.ServerConfig.HeartbeatEvery), not a knob.
const heartbeatEvery = time.Second

// healthStage ends a tick: on the checkpoint period every live partition owner
// ships its node blob to the MC, on the beat period every live server renews
// its lease and the MC checks them all; what that decides is delivered like
// any MC traffic. Like a ticker, neither period fires at t = 0 (registration
// is the first lease). Stepping goroutine, registration order.
func (s *Sim) healthStage(tick int) {
	ship, beat := tick%s.chkEvery == 0, tick%s.beatEvery == 0
	if tick == 0 || !ship && !beat {
		return
	}
	for _, n := range s.live {
		if ship {
			s.shipCheckpoint(n)
		}
		if beat {
			s.toMC(n.Core.ID(), n.Heartbeat(n.cpTick))
		}
	}
	if beat {
		s.fromMC(s.mc.Tick())
	}
}

// shipCheckpoint streams n's checkpoint, when it has one to ship, to the MC as
// SnapshotData chunks.
func (s *Sim) shipCheckpoint(n *simNode) {
	blob, err := n.Checkpoint()
	if err != nil {
		s.reg.Counter("errors/checkpoint").Inc()
	}
	if blob == nil {
		return // a spare, or a state too big to ship
	}
	for chunk, final := range protocol.Chunks(blob) {
		s.toMC(n.Core.ID(), &protocol.SnapshotData{Blob: chunk, Final: final})
	}
	n.cpTick = uint64(s.tick)
}

// noteAdoption is the observer's bookkeeping once node.Handle has taken the
// last chunk of an Adopt stream (bytes of checkpoint restored; none is a cold
// adoption): counter, event, audit record, and a ghost timer for every
// restored avatar whose client is gone or is (still) elsewhere — the idle
// expiry spares a client's copy on the server it has rejoined by then.
func (s *Sim) noteAdoption(n *simNode, m *protocol.Adopt, bytes int) {
	sid := n.Core.ID()
	s.res.Restarts++
	s.events = append(s.events, TopologyEvent{Time: s.now, Kind: "adopt", Server: sid})
	if s.rec != nil {
		s.rec.Record(flight.Decision{
			Tick: int64(s.tick), Time: s.now, Kind: "adopt",
			Granted: true, Server: int64(m.Victim), Child: int64(sid), Corr: m.Corr,
			Inputs: []flight.KV{
				{Key: "checkpoint-bytes", Val: float64(bytes)},
				{Key: "clients", Val: float64(n.Game.ClientCount())},
			},
		})
	}
	for _, cid := range n.Game.ClientIDs() {
		if sc := s.client(cid); sc == nil || !sc.alive || sc.assigned != sid {
			s.markGhost(cid)
		}
	}
}

// kill is EventCrashLose beyond blackholing the links: the process is dead
// for good — never stepped, beaten for or delivered to again — and every
// connection it held is reset. The MC is told nothing; the lease runs out.
func (s *Sim) kill(sid id.ServerID) {
	n := s.node(sid)
	if n == nil || n.dead {
		return
	}
	n.dead = true
	for _, sc := range s.clients {
		if sc.alive && sc.assigned == sid {
			sc.cl.Disconnect()
			sc.rejoining, sc.rejoinAt = true, s.now
			s.res.RecoveryRejoins++
		}
	}
}

// recoverServers is EventRecover for the named crashed servers (all, when
// none is named): a paused one resumes where it froze; for a dead one a fresh
// process registers under a new ID and joins the pool, or adopts a parked
// region on the spot (coordinator.Register). The dead slot stays dead.
func (s *Sim) recoverServers(named []id.ServerID) error {
	s.noteNetemEvent("recover", named)
	if len(named) == 0 {
		named = s.nm.CrashedServers()
	}
	for _, sid := range named {
		if !s.nm.Crashed(sid) {
			continue
		}
		s.nm.Recover([]id.ServerID{sid})
		if n := s.node(sid); n != nil && n.dead {
			if err := s.registerServer(); err != nil {
				return err
			}
		}
	}
	return nil
}

// redial re-aims a disconnected client whose server is dead at a survivor, as
// host.ClientHost.redialLoop does: any server that is up welcomes it and the
// hello-retry path migrates it to its position's owner. The lobby's answer is
// tried first, then the fleet in registration order.
func (s *Sim) redial(sc *simClient) {
	if n := s.node(sc.assigned); n == nil || !n.dead {
		return
	}
	up := func(n *simNode) bool { return n != nil && !n.dead && n.Core.Active() && !s.nm.Crashed(n.Core.ID()) }
	to := s.node(s.ownerOf(sc.cl.Pos()))
	for i := 0; !up(to) && i < len(s.nodes); i++ {
		to = s.nodes[i]
	}
	if up(to) {
		sc.assigned = to.Core.ID()
	}
}
