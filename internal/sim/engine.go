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
//     the ResolveOwner binding between the two) and emits envelopes into a
//     per-server output slot. No shared state is touched: no coordinator,
//     no netem model, no RNG, no clients, no metrics registry.
//
//   - Phase B (serial): the buffered fallout is merged in canonical server
//     order (registration order, the same order the serial loop uses) and
//     routed exactly as before — peer delivery, MC requests, client
//     delivery, netem judging. Everything order-sensitive (per-link netem
//     RNG draws, inbox append order, MC grant order, client event order)
//     happens here, on one goroutine, in an order that does not depend on
//     how phase A was scheduled.
//
// Workers claim servers through an atomic cursor, so WHICH worker runs a
// server is scheduling noise — but each server's output lands in its own
// slot and its computation touches only its own state, so the merged tick
// is byte-identical for any SimWorkers value (pinned by the equivalence
// tests and the race suite).
package sim

import (
	"sync"
	"sync/atomic"

	"matrix/internal/core"
	"matrix/internal/gameserver"
	"matrix/internal/id"
	"matrix/internal/netem"
	"matrix/internal/protocol"
	"matrix/internal/scratch"
	"matrix/internal/trace"
)

// actionKind tags one buffered phase-B routing action.
type actionKind uint8

const (
	// actCore routes a batch of Matrix-server envelopes
	// (serverOut.coreEnvs[lo:hi]) through routeCoreEnvelopes.
	actCore actionKind = iota + 1
	// actClient delivers one message to a client (netem-judged first).
	actClient
)

// tickAction is one phase-B routing action. Actions preserve the exact
// emission order of the serial path: a game update's Matrix fallout routes
// before the next envelope's client delivery, just as the inline loop did.
type tickAction struct {
	kind   actionKind
	client id.ClientID // actClient: destination client
	msg    protocol.Message
	lo, hi int // actCore: slice bounds into serverOut.coreEnvs
}

// serverOut is one server's buffered phase-A fallout, reused across ticks.
// Only the worker that claimed the server writes it during phase A; phase B
// consumes it on the stepping goroutine.
type serverOut struct {
	actions  []tickAction
	coreEnvs []core.Envelope
	gsErrs   int64 // gs processing errors, merged into errors/gs
	coreErrs int64 // core handling errors, merged into errors/core

	actBuf scratch.Buf[tickAction]
	envBuf scratch.Buf[core.Envelope]
}

// reset readies the slot for a new phase A.
func (o *serverOut) reset() {
	o.actions = o.actBuf.Take()
	o.coreEnvs = o.envBuf.Take()
	o.gsErrs, o.coreErrs = 0, 0
}

// release returns the consumed buffers for reuse, clearing message
// pointers so a burst tick's envelopes are not pinned until the next one.
func (o *serverOut) release() {
	o.actBuf.Done(o.actions)
	o.envBuf.Done(o.coreEnvs)
	o.actions, o.coreEnvs = nil, nil
}

// ensureEngine sizes the per-server output slots and per-worker buffers.
// Cheap when already sized; called once per Step so a restored sim (which
// skips Start) works too.
func (s *Sim) ensureEngine() int {
	w := s.cfg.SimWorkers
	if w < 1 {
		w = 1
	}
	if n := len(s.order); len(s.outs) < n {
		s.outs = append(s.outs, make([]serverOut, n-len(s.outs))...)
	}
	s.gsBufs.Grow(w)
	return w
}

// liveServers rebuilds s.live: the positions (indexes into s.order) of
// every server that processes this tick. Crashed servers are frozen —
// their queues keep whatever arrived before the crash and resume draining
// on recovery. Computed serially so phase A never reads the netem model.
func (s *Sim) liveServers() {
	s.live = s.live[:0]
	for i, sid := range s.order {
		if s.nm != nil && s.nm.Crashed(sid) {
			continue
		}
		s.live = append(s.live, i)
	}
}

// runPhaseA executes f(worker, orderIndex) for every live server, fanning
// out to at most `workers` goroutines. The atomic cursor makes the
// server→worker assignment scheduling-dependent, which is safe because f
// only touches the claimed server's own state and its own output slot.
func (s *Sim) runPhaseA(workers int, f func(w, idx int)) {
	if workers > len(s.live) {
		workers = len(s.live)
	}
	if workers <= 1 {
		for _, idx := range s.live {
			f(0, idx)
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
// drain up to the service budget from the inbox and hand the fallout to
// the co-located Matrix server, buffering every outbound envelope. Reads
// and writes only this server's state; the gs envelope buffer belongs to
// the claiming worker (each worker processes its servers sequentially).
func (s *Sim) processNode(w, idx int) {
	n := s.nodes[s.order[idx]]
	out := &s.outs[idx]
	out.reset()

	gsBuf := s.gsBufs.Worker(w)
	envs, err := n.gs.ProcessAppend(gsBuf.Take(), s.cfg.ServiceRatePerTick)
	defer gsBuf.Done(envs)
	if err != nil {
		out.gsErrs++
	}
	for _, e := range envs {
		switch e.Dest {
		case gameserver.DestMatrix:
			if s.tr != nil {
				// The packet reached the co-located Matrix server's handler:
				// the core-handle step in its span. Safe in phase A — the
				// tracer is lock-free and feeds nothing back into the tick.
				if u, isUpdate := e.Msg.(*protocol.GameUpdate); isUpdate {
					s.tr.AsyncStep(tracePidServer(s.order[idx]), "packet", "core-handle",
						trace.PacketID(u.Client, u.Seq), s.tr.Now())
				}
			}
			out.appendCore(n, e.Msg)
		case gameserver.DestClient:
			out.actions = append(out.actions, tickAction{kind: actClient, client: e.Client, msg: e.Msg})
		}
	}
}

// appendCore hands one message from the game server to its co-located
// Matrix server and buffers the emitted envelopes as one phase-B action.
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
		// topology change; count the error, route nothing — exactly what
		// the serial path did.
		o.coreEnvs = o.coreEnvs[:lo]
		o.coreErrs++
		return
	}
	if hi := len(o.coreEnvs); hi > lo {
		o.actions = append(o.actions, tickAction{kind: actCore, lo: lo, hi: hi})
	}
}

// loadReportNode is phase A of the load-report step for one server: build
// the report from the game server and run the core's split/reclaim policy
// on it, buffering the MC traffic it emits. Reads and writes only this
// server's state (the policy clock is read-only during a tick).
func (s *Sim) loadReportNode(idx int) {
	n := s.nodes[s.order[idx]]
	out := &s.outs[idx]
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
	lo := len(out.coreEnvs)
	out.coreEnvs = append(out.coreEnvs, envs...)
	if hi := len(out.coreEnvs); hi > lo {
		out.actions = append(out.actions, tickAction{kind: actCore, lo: lo, hi: hi})
	}
}

// routePhaseB merges every live server's buffered fallout in canonical
// server order and routes it. This is the only place the buffered
// envelopes touch shared state — the coordinator, peer servers, clients,
// the netem model and its per-link RNG streams — so one canonical order
// (registration order, then emission order within a server) governs every
// order-sensitive effect regardless of how phase A was scheduled.
func (s *Sim) routePhaseB() {
	for _, idx := range s.live {
		sid := s.order[idx]
		out := &s.outs[idx]
		if out.gsErrs > 0 {
			s.reg.Counter("errors/gs").Add(out.gsErrs)
		}
		if out.coreErrs > 0 {
			s.reg.Counter("errors/core").Add(out.coreErrs)
		}
		for _, a := range out.actions {
			switch a.kind {
			case actCore:
				s.routeCoreEnvelopes(sid, out.coreEnvs[a.lo:a.hi])
			case actClient:
				if s.nm != nil && s.impair(netem.ServerEndpoint(sid), netem.ClientEndpoint(a.client), netemToClient, a.msg) {
					continue
				}
				s.deliverToClient(a.client, a.msg)
			}
		}
		out.release()
	}
}
