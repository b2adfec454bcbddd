// The intra-sim parallel tick engine: one simulation's per-server hot
// path — game-server inbox processing and the co-located Matrix server's
// packet/load logic — fans out across a bounded worker pool without
// changing a single byte of the run's Result.Fingerprint.
//
// The tick is split into two phases:
//
//   - Phase A (parallel): every live server drains its own inbox and hands
//     its own game updates and load report to its co-located Matrix
//     server. This work reads and writes only that server's state (the
//     game server, its spatial grid, and the co-located core — including
//     the ResolveOwner binding between the two) and emits envelopes into the
//     server's own output slot (node.out). No shared state is touched: no
//     coordinator, no netem model, no RNG, no clients, no metrics registry.
//
//   - Phase B (serial): the stepping goroutine walks each live server's
//     game-server envelope list in canonical order — registration order,
//     then emission order within a server — sending client deliveries and
//     routing each Matrix envelope's fallout in place. Everything
//     order-sensitive (per-link netem RNG draws, inbox append order, MC
//     grant order, client event order) happens here, on one goroutine, in
//     an order that does not depend on how phase A was scheduled.
//
// Workers claim servers through an atomic cursor, so WHICH worker runs a
// server is scheduling noise — but each server's output lands in its own
// slot and its computation touches only its own state, so the tick is
// byte-identical for any SimWorkers value (pinned by the equivalence tests
// and the race suite).
package sim

import (
	"sync"
	"sync/atomic"

	"matrix/internal/core"
	"matrix/internal/gameserver"
	"matrix/internal/id"
	"matrix/internal/netem"
	"matrix/internal/protocol"
	"matrix/internal/trace"
)

// serverOut is one server's phase-A output, its backing arrays reused across
// ticks: the game server's own envelope list, and the co-located Matrix
// server's fallout for every DestMatrix envelope in it, back to back. Only
// the worker that claimed the server writes it during phase A; phase B
// consumes it on the stepping goroutine.
type serverOut struct {
	gsEnvs   []gameserver.Envelope
	coreEnvs []core.Envelope
	// coreEnds[k] is where the k-th DestMatrix envelope's fallout ends in
	// coreEnvs (it starts where the previous one ended). A load report's
	// fallout has no game-server envelope in front of it and follows the
	// last end.
	coreEnds []int
	gsErrs   int64 // gs processing errors, merged into errors/gs
	coreErrs int64 // core handling errors, merged into errors/core
}

// reset empties the slot for a new phase A, clearing message pointers so a
// burst tick's envelopes are not pinned until the next equally large burst.
func (o *serverOut) reset() {
	clear(o.gsEnvs)
	clear(o.coreEnvs)
	o.gsEnvs, o.coreEnvs, o.coreEnds = o.gsEnvs[:0], o.coreEnvs[:0], o.coreEnds[:0]
	o.gsErrs, o.coreErrs = 0, 0
}

// liveServers rebuilds s.live: every server that processes this tick.
// Crashed servers are frozen — their queues keep whatever arrived before the
// crash and resume draining on recovery — and dead ones are gone. Computed
// serially so phase A never reads the netem model.
func (s *Sim) liveServers() {
	s.live = s.live[:0]
	for _, n := range s.nodes {
		if n.dead || s.nm != nil && s.nm.Crashed(n.core.ID()) {
			continue
		}
		s.live = append(s.live, n)
	}
}

// runPhaseA executes f(worker, server) for every live server, fanning out
// to at most Config.SimWorkers goroutines. The atomic cursor makes the
// server→worker assignment scheduling-dependent, which is safe because f
// only touches the claimed server's own state and its own output slot.
func (s *Sim) runPhaseA(f func(w int, n *node)) {
	workers := min(s.cfg.SimWorkers, len(s.live))
	if workers <= 1 {
		for _, n := range s.live {
			f(0, n)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(s.live) {
					return
				}
				f(k, s.live[i])
			}
		}(k)
	}
	wg.Wait()
}

// processNode is phase A of the queue-processing step for one server:
// drain up to the service budget from the inbox and hand every DestMatrix
// envelope to the co-located Matrix server, keeping its fallout. Reads and
// writes only this server's state.
func (s *Sim) processNode(_ int, n *node) {
	out := &n.out
	out.reset()
	var err error
	if out.gsEnvs, err = n.gs.ProcessAppend(out.gsEnvs, s.cfg.ServiceRatePerTick); err != nil {
		out.gsErrs++
	}
	for i := range out.gsEnvs {
		e := &out.gsEnvs[i]
		if e.Dest != gameserver.DestMatrix {
			continue
		}
		if s.tr != nil {
			// The packet reached the co-located Matrix server's handler:
			// the core-handle step in its span. Safe in phase A — the
			// tracer is lock-free and feeds nothing back into the tick.
			if u, isUpdate := e.Msg.(*protocol.GameUpdate); isUpdate {
				s.tr.AsyncStep(tracePidServer(n.core.ID()), "packet", "core-handle",
					trace.PacketID(u.Client, u.Seq), s.tr.Now())
			}
		}
		out.appendCore(n, e.Msg)
	}
}

// appendCore hands one message from the game server to its co-located
// Matrix server and records where the emitted envelopes end.
func (o *serverOut) appendCore(n *node, m protocol.Message) {
	lo := len(o.coreEnvs)
	var err error
	if u, isUpdate := m.(*protocol.GameUpdate); isUpdate {
		o.coreEnvs, err = n.core.AppendGameUpdate(o.coreEnvs, u)
	} else {
		var envs []core.Envelope
		envs, err = n.core.HandleMessage(id.None, m)
		o.coreEnvs = append(o.coreEnvs, envs...)
	}
	if err != nil {
		// Inactive servers legitimately reject packets in flight across a
		// topology change; count the error, route nothing.
		o.coreEnvs = o.coreEnvs[:lo]
		o.coreErrs++
	}
	o.coreEnds = append(o.coreEnds, len(o.coreEnvs))
}

// loadReportNode is phase A of the load-report step for one server: build
// the report from the game server and run the core's split/reclaim policy
// on it, keeping the MC traffic it emits. Reads and writes only this
// server's state (the policy clock is read-only during a tick).
func (s *Sim) loadReportNode(_ int, n *node) {
	out := &n.out
	out.reset()
	if !n.core.Active() {
		return
	}
	rep := n.gs.LoadReport()
	envs, err := n.core.HandleLocalLoad(int(rep.Clients), int(rep.QueueLen))
	if err != nil {
		out.coreErrs++
		return
	}
	out.coreEnvs = append(out.coreEnvs, envs...)
}

// routePhaseB walks every live server's phase-A output in canonical server
// order and routes it. This is the only place those envelopes touch shared
// state — the coordinator, peer servers, clients, the netem model and its
// per-link RNG streams — so one canonical order (registration order, then
// emission order within a server) governs every order-sensitive effect
// regardless of how phase A was scheduled: a game update's Matrix fallout
// routes before the next envelope's client delivery.
func (s *Sim) routePhaseB() {
	for _, n := range s.live {
		sid, out := n.core.ID(), &n.out
		if out.gsErrs > 0 {
			s.reg.Counter("errors/gs").Add(out.gsErrs)
		}
		if out.coreErrs > 0 {
			s.reg.Counter("errors/core").Add(out.coreErrs)
		}
		self := netem.ServerEndpoint(sid)
		lo, k := 0, 0
		for i := range out.gsEnvs {
			switch e := &out.gsEnvs[i]; e.Dest {
			case gameserver.DestMatrix:
				hi := out.coreEnds[k]
				k++
				s.routeCoreEnvelopes(sid, out.coreEnvs[lo:hi])
				lo = hi
			case gameserver.DestClient:
				s.send(self, netem.ClientEndpoint(e.Client), netemToClient, e.Msg)
			}
		}
		s.routeCoreEnvelopes(sid, out.coreEnvs[lo:])
	}
}
