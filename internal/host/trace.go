// Live-host observability: tick-phase slices and packet-path events for a
// ServerHost with a Tracer attached, plus the readiness probe backing
// /readyz.
//
// Unlike the simulator (which runs on a virtual clock), the live host uses
// the tracer's default clock — wall microseconds since the tracer was
// created — so slices from the tick loop and async packet spans from the
// connection pumps land on one shared timeline. The tick-phase histograms
// live in a host-local registry that writeMetrics resets after every
// scrape; with no scraper they restart at maxPhaseSamples, so the
// raw-sample store is bounded either way.
package host

import (
	"errors"

	"matrix/internal/id"
	"matrix/internal/nodeblob"
	"matrix/internal/protocol"
	"matrix/internal/trace"
)

// Trace track layout for a live host: one process (the host), with the
// tick loop on tid 1 and connection-pump events on tid 2. Packet spans are
// async events, so they render on their own id-keyed tracks.
const (
	hostTracePid     = 1
	hostTraceTidTick = 1
	hostTraceTidNet  = 2
)

// maxPhaseSamples caps each tick-phase histogram's raw-sample store: one
// that reaches it starts over. A busy host ticks every minTickGap, so that is
// a minute between scrapes at the least (eleven when idle) — beyond any scrape
// interval, so only a traced host that nobody scrapes ever gets there (4 ×
// 512 KiB at most, for ever).
const maxPhaseSamples = 1 << 16

// hostPhaseHistograms names the tick-phase histograms traceTick feeds, in
// its order, and writeMetrics renders and resets each scrape (milliseconds
// per tick spent in each phase).
var hostPhaseHistograms = [...]string{
	"tick/drain-ms",
	"tick/process-ms",
	"tick/route-ms",
	"tick/total-ms",
}

// traceTick closes the tick's phase slices and feeds the phase histograms.
// t0..t3 bracket drainIngress, node.Step — the game server's queue and, since
// the node does both before anything is routed, the co-located core's overlap
// lookups — and Route+flush: collecting the tick's deliveries plus writing them.
// Called from the tick goroutine only, and only while tracing.
func (h *ServerHost) traceTick(t0, t1, t2, t3 int64) {
	h.tr.Slice(hostTracePid, hostTraceTidTick, "drain-ingress", t0, t1-t0)
	h.tr.Slice(hostTracePid, hostTraceTidTick, "process", t1, t2-t1)
	h.tr.Slice(hostTracePid, hostTraceTidTick, "route-flush", t2, t3-t2)
	h.tr.Slice(hostTracePid, hostTraceTidTick, "tick", t0, t3-t0)
	for i, us := range [...]int64{t1 - t0, t2 - t1, t3 - t2, t3 - t0} {
		hist := h.treg.Histogram(hostPhaseHistograms[i])
		if hist.Count() >= maxPhaseSamples {
			hist.Reset()
		}
		hist.Observe(float64(us) / 1000)
	}
}

// tracePacketIn opens a packet span at time at, once a client game update has
// entered the inbox. Runs on the client's connection goroutine; the tracer is
// lock-free, so this is safe alongside the tick.
func (h *ServerHost) tracePacketIn(m protocol.Message, at int64) {
	if u, ok := m.(*protocol.GameUpdate); ok {
		h.tr.AsyncBegin(hostTracePid, "packet", "packet", trace.PacketID(u.Client, u.Seq), at)
	}
}

// tracePeerForward marks a packet leaving for a peer Matrix server.
func (h *ServerHost) tracePeerForward(m protocol.Message) {
	if f, ok := m.(*protocol.Forward); ok {
		h.tr.AsyncStep(hostTracePid, "packet", "peer-forward", trace.PacketID(f.Update.Client, f.Update.Seq), h.tr.Now())
	}
}

// tracePeerHandle marks a forwarded packet entering this host's core from
// the ingress funnel.
func (h *ServerHost) tracePeerHandle(m protocol.Message) {
	if f, ok := m.(*protocol.Forward); ok {
		h.tr.AsyncStep(hostTracePid, "packet", "peer-handle", trace.PacketID(f.Update.Client, f.Update.Seq), h.tr.Now())
	}
}

// tracePacketOut closes a packet span when the client's own update echoes
// back to it (the delivery the sim's latency measure uses too).
func (h *ServerHost) tracePacketOut(c id.ClientID, m protocol.Message) {
	if u, ok := m.(*protocol.GameUpdate); ok && u.Client == c {
		h.tr.AsyncEnd(hostTracePid, "packet", "packet", trace.PacketID(u.Client, u.Seq), h.tr.Now())
	}
}

// Ready is the /readyz probe: nil while the host can serve traffic. It
// reports an error once the coordinator connection is lost, the host is
// closed, a drain-for-exit has evacuated the node (a drain back to the
// spare pool keeps the host ready — it is still serving), or its latest
// checkpoint was too big to ship: a crash would lose the region.
func (h *ServerHost) Ready() error {
	if h.mcDown.Load() {
		return errors.New("coordinator connection lost")
	}
	if h.cpTooBig.Load() {
		return nodeblob.ErrOversize
	}
	if h.isClosed() {
		return errors.New("host closed")
	}
	select {
	case <-h.Drained():
		if h.drainExit.Load() {
			return errors.New("drained for exit")
		}
	default:
	}
	return nil
}
