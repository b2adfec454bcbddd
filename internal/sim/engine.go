// The intra-sim parallel tick engine: one simulation's per-server hot
// path — game-server inbox processing and the co-located Matrix server's
// packet/load logic — fans out across a bounded worker pool without
// changing a single byte of the run's Result.Fingerprint.
//
// The tick is split into two phases:
//
//   - Phase A (parallel): every live server runs its node.Step (on the
//     report period, its node.LoadReport) into its own output slot
//     (simNode.out). What a server does per tick, and the contract this phase
//     stands on — only that server's own state is touched — are internal/node's.
//
//   - Phase B (serial): the stepping goroutine routes each live server's
//     output in canonical order — registration order, then node.Out.Route's
//     emission order within a server. Everything order-sensitive (per-link
//     netem RNG draws, inbox append order, MC grant order, client event order)
//     happens here, on one goroutine, in an order that does not depend on how
//     phase A was scheduled.
//
// Workers claim servers through an atomic cursor, so WHICH worker runs a
// server is scheduling noise, and the tick is byte-identical for any
// SimWorkers value (pinned by the equivalence tests and the race suite).
package sim

import (
	"sync"
	"sync/atomic"

	"matrix/internal/id"
	"matrix/internal/netem"
	"matrix/internal/node"
	"matrix/internal/protocol"
)

// liveServers rebuilds s.live: every server that processes this tick.
// Crashed servers are frozen — their queues keep whatever arrived before the
// crash and resume draining on recovery — and dead ones are gone. Computed
// serially so phase A never reads the netem model.
func (s *Sim) liveServers() {
	s.live = s.live[:0]
	for _, n := range s.nodes {
		if n.dead || s.nm != nil && s.nm.Crashed(n.Core.ID()) {
			continue
		}
		s.live = append(s.live, n)
	}
}

// runPhaseA executes f(worker, server) for every live server, fanning out
// to at most Config.SimWorkers goroutines. The atomic cursor makes the
// server→worker assignment scheduling-dependent, which is safe because f
// only touches the claimed server's own state and its own output slot.
func (s *Sim) runPhaseA(f func(w int, n *simNode)) {
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

// stepNode is phase A of the queue-processing step for one server.
func (s *Sim) stepNode(_ int, n *simNode) { n.Step(s.cfg.ServiceRatePerTick, &n.out) }

// reportNode is phase A of the load-report step for one server (the policy
// clock it reads is read-only during a tick).
func (s *Sim) reportNode(_ int, n *simNode) { n.LoadReport(&n.out) }

// routePhaseB routes every live server's phase-A output in canonical server
// order. This is the only place those envelopes touch shared state — the
// coordinator, peer servers, clients, the netem model and its per-link RNG
// streams — so one canonical order (registration order, then emission order
// within a server) governs every order-sensitive effect regardless of how
// phase A was scheduled.
func (s *Sim) routePhaseB() {
	for _, n := range s.live {
		if n.out.GameErr != nil {
			s.reg.Counter("errors/gs").Inc()
		}
		if k := len(n.out.CoreErrs); k > 0 {
			s.reg.Counter("errors/core").Add(int64(k))
		}
		n.out.Route(s)
	}
}

// ToClient is, with FromCore, the node.Sink of phase B: a client delivery
// crosses the server's link to that client.
func (s *Sim) ToClient(n *node.Node, c id.ClientID, m protocol.Message) {
	s.send(netem.ServerEndpoint(n.Core.ID()), netem.ClientEndpoint(c), netemToClient, m)
}
