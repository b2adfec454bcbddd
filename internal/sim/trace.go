// Tracing for the deterministic simulator: tick-phase profiling slices,
// worker-occupancy counters and cross-server packet spans, emitted into an
// attached internal/trace ring.
//
// The contract (pinned by TestTracingPreservesFingerprint and the alloc
// tests): tracing is OFF by default, costs zero allocations when off, and
// never influences the simulation — no RNG draws, no ordering changes, no
// registry series. Result.Fingerprint is byte-identical with and without a
// tracer attached. The engine histograms tracing feeds live in the result
// registry but are histogram instruments, which the fingerprint never
// renders (it walks series only), and they are registered only while a
// tracer is attached so untraced golden snapshots stay byte-stable too.
//
// The trace clock is virtual-first: each tick anchors the timeline at the
// tick's virtual time (tick N starts at N*dt seconds = N*dt*1e6 µs) and
// offsets within the tick advance in wall microseconds. Phase slices
// therefore nest inside their tick's virtual window and still show real
// compute durations; packet spans stretch across the virtual ticks a packet
// was actually in flight. A tick whose wall compute exceeds the virtual
// tick length (dt) paints past its window — cosmetic only.
package sim

import (
	"fmt"
	"time"

	"matrix/internal/gameserver"
	"matrix/internal/id"
	"matrix/internal/protocol"
	"matrix/internal/trace"
)

// Trace pid/tid layout: the engine is pid 1 (tid 0 = stepping goroutine,
// tid 1..W = phase-A workers); server sid renders as pid 10+sid so packet
// spans hop between visibly distinct process tracks.
const (
	tracePidEngine     = 1
	tracePidServerBase = 10
)

// tracePidServer maps a server to its trace process id.
func tracePidServer(sid id.ServerID) int32 { return tracePidServerBase + int32(sid) }

// SetTracer attaches (or, with nil, detaches) a tracer to the run. Call it
// before stepping; the sim installs its virtual-first clock into tr and
// names the engine and server tracks. Tracing is observation only: the
// run's Result.Fingerprint is byte-identical either way.
func (s *Sim) SetTracer(tr *trace.Tracer) {
	s.tr = tr
	if tr == nil {
		return
	}
	tr.SetClock(s.traceNow)
	tr.NameProcess(tracePidEngine, "engine")
	tr.NameThread(tracePidEngine, 0, "step")
	for k := 1; k <= max(1, s.cfg.SimWorkers); k++ {
		tr.NameThread(tracePidEngine, int32(k), fmt.Sprintf("worker-%d", k))
	}
	for _, n := range s.nodes {
		tr.NameProcess(tracePidServer(n.Core.ID()), n.Core.ID().String())
	}
}

// traceNow is the sim's trace clock: the current tick's virtual start plus
// the wall time spent inside the tick so far. trTickBase/trAnchor are
// written by the stepping goroutine before phase-A workers start, so worker
// reads are ordered by the goroutine-start happens-before edge.
func (s *Sim) traceNow() int64 {
	return s.trTickBase + time.Since(s.trAnchor).Microseconds()
}

// traceTickStart re-anchors the trace clock at the top of a tick and
// returns the tick's start timestamp.
func (s *Sim) traceTickStart() int64 {
	workers := max(1, s.cfg.SimWorkers)
	s.trTickBase = int64(s.now * 1e6)
	s.trAnchor = time.Now()
	if len(s.trBusy) < workers {
		s.trBusy = append(s.trBusy, make([]int64, workers-len(s.trBusy))...)
	}
	for i := range s.trBusy {
		s.trBusy[i] = 0
	}
	return s.trTickBase
}

// traceProcessNode wraps stepNode with a per-server phase-A slice on the
// claiming worker's track and accumulates per-worker busy time for the
// occupancy measure. Every update the step handed to the co-located Matrix
// server gets the core-handle step of its packet span, stamped once the step
// is over: internal/node holds no tracer. Safe in phase A — the tracer is
// lock-free and feeds nothing back into the tick. Installed only while tracing.
func (s *Sim) traceProcessNode(w int, n *simNode) {
	t0 := s.traceNow()
	s.stepNode(w, n)
	t1 := s.traceNow()
	for _, e := range n.out.Game() {
		if u, isUpdate := e.Msg.(*protocol.GameUpdate); isUpdate && e.Dest == gameserver.DestMatrix {
			s.tr.AsyncStep(tracePidServer(n.Core.ID()), "packet", "core-handle", trace.PacketID(u.Client, u.Seq), t1)
		}
	}
	d := t1 - t0
	s.tr.SliceArg(tracePidEngine, int32(w+1), "server-process", t0, d, "server", int64(n.Core.ID()))
	s.reg.Histogram("engine/server-process-us").Observe(float64(d))
	s.trBusy[w] += d
}

// tracePhaseA closes the parallel-phase slice: total wall duration, the
// phase-A histogram, and worker occupancy (busy worker-µs over workers ×
// phase wall-µs — the live counterpart of the paper-era 77.8% parallel
// fraction). With one worker occupancy is 1 by construction.
func (s *Sim) tracePhaseA(start int64) {
	workers := s.cfg.SimWorkers
	end := s.traceNow()
	dur := end - start
	s.tr.Slice(tracePidEngine, 0, "phase-a", start, dur)
	s.reg.Histogram("engine/phase-a-ms").Observe(float64(dur) / 1000)
	occ := 1.0
	if workers > 1 && dur > 0 {
		var busy int64
		for _, b := range s.trBusy {
			busy += b
		}
		occ = float64(busy) / (float64(workers) * float64(dur))
		if occ > 1 {
			occ = 1
		}
	}
	s.reg.Histogram("engine/worker-occupancy").Observe(occ)
	s.tr.Counter(tracePidEngine, "worker-occupancy-pct", end, int64(occ*100))
}

// tracePhaseB closes the serial merge slice and its histogram.
func (s *Sim) tracePhaseB(start int64) {
	dur := s.traceNow() - start
	s.tr.Slice(tracePidEngine, 0, "phase-b", start, dur)
	s.reg.Histogram("engine/phase-b-ms").Observe(float64(dur) / 1000)
}

// traceLoadReport closes the load-report stage slice (both phases).
func (s *Sim) traceLoadReport(start int64) {
	dur := s.traceNow() - start
	s.tr.Slice(tracePidEngine, 0, "load-report", start, dur)
	s.reg.Histogram("engine/load-report-ms").Observe(float64(dur) / 1000)
}

// traceTickEnd closes the tick slice and its histogram.
func (s *Sim) traceTickEnd(start int64) {
	dur := s.traceNow() - start
	s.tr.Slice(tracePidEngine, 0, "tick", start, dur)
	s.reg.Histogram("engine/tick-ms").Observe(float64(dur) / 1000)
}
