// Package trace is a ring-buffered, near-zero-overhead span/event tracer
// for the Matrix middleware. One Tracer follows packets and tick phases
// across every layer of a process and exports the ring as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing) or as a
// plain-text dump.
//
// Design constraints, in order:
//
//  1. Off means off. A nil *Tracer is the disabled tracer: every method is
//     nil-safe and returns immediately, so call sites hold a possibly-nil
//     pointer and emit unconditionally. The disabled path performs zero
//     allocations (pinned by test) and must never influence simulation
//     results — tracing is not allowed on the fingerprint path.
//
//  2. Enabled is cheap. Emitting an event is one atomic add to reserve a
//     ring slot plus a struct store: no locks, no fmt, no interface boxing,
//     no allocations (also pinned by test). Event names must be static
//     strings; dynamic context travels in the integer Arg/ID fields.
//
//  3. The ring forgets. Capacity is fixed at construction; when the ring
//     wraps, the oldest events are overwritten and Dropped() counts them.
//     Exports therefore show the most recent window of activity, which is
//     what a "why is it slow right now" investigation wants.
//
// Clocks are pluggable: the deterministic simulation installs a virtual
// clock anchored to the tick (see internal/sim), live hosts use wall time
// since process start. Timestamps are microseconds, matching the Chrome
// trace-event format.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"matrix/internal/id"
)

// Phase bytes follow the Chrome trace-event format ("ph" field).
const (
	PhaseSlice        = 'X' // complete event: ts + dur
	PhaseInstant      = 'i' // point-in-time marker
	PhaseAsyncBegin   = 'b' // async (nestable) span start, correlated by ID
	PhaseAsyncInstant = 'n' // async span step
	PhaseAsyncEnd     = 'e' // async span end
	PhaseCounter      = 'C' // counter sample
	PhaseMetadata     = 'M' // process/thread naming
)

// Event is one fixed-size ring slot. Strings must be static (no per-event
// formatting); per-event data goes in ID and Arg.
type Event struct {
	TS   int64  // microseconds, tracer clock
	Dur  int64  // microseconds, PhaseSlice only
	ID   uint64 // async-span correlation id, async phases only
	Arg  int64  // value of ArgName (slices/instants) or counter value
	Name string // event name (static string)
	Cat  string // category (static string; groups async spans)
	Arg2 string // value of ArgName when textual (metadata names)
	Pid  int32  // trace process id (a logical component, not an OS pid)
	Tid  int32  // trace thread id within Pid
	Ph   byte   // one of the Phase* bytes
	// ArgName labels Arg (or Arg2) in the exported args object; empty means
	// no args.
	ArgName string
}

// Tracer records Events into a fixed ring. The zero value is not usable;
// construct with New. A nil Tracer is the disabled tracer.
type Tracer struct {
	ring []Event
	mask uint64
	pos  atomic.Uint64

	// ringMu orders ring reads against emitters: emit holds the read side
	// (two uncontended atomic ops — the fast path stays allocation-free),
	// Events the write side, so a live HTTP dump never observes a slot
	// mid-store. Emitter-vs-emitter wrap reuse is governed separately; see
	// emit.
	ringMu sync.RWMutex

	clockMu sync.Mutex
	clock   func() int64
	start   time.Time
}

// DefaultCapacity is the ring size used by New when cap <= 0: large enough
// that a full flashcrowd tick window (phase slices + packet spans) fits.
const DefaultCapacity = 1 << 18

// New returns a Tracer with capacity rounded up to a power of two (cap <= 0
// selects DefaultCapacity). The default clock is wall microseconds since
// New was called; override with SetClock before emitting.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	t := &Tracer{ring: make([]Event, n), mask: uint64(n - 1), start: time.Now()}
	t.clock = func() int64 { return time.Since(t.start).Microseconds() }
	return t
}

// SetClock replaces the tracer clock (microseconds). The simulation installs
// a virtual clock here so trace time is tick time, keeping wall-clock jitter
// out of the deterministic timeline. Call before events are emitted.
func (t *Tracer) SetClock(now func() int64) {
	if t == nil {
		return
	}
	t.clockMu.Lock()
	t.clock = now
	t.clockMu.Unlock()
}

// Now reads the tracer clock in microseconds. Returns 0 on the nil tracer,
// so `start := tr.Now()` is safe to compute unconditionally.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// emit reserves a ring slot and stores e. Concurrent emitters get distinct
// logical slots from the atomic add; physical slots are only reused after a
// full wrap, so concurrent use is race-free as long as fewer than capacity
// events are emitted between synchronization points among the emitters. The
// engine holds this by construction: workers emit at most a few thousand
// events per tick into a quarter-million-slot ring and rejoin the stepping
// goroutine at the phase barrier every tick.
func (t *Tracer) emit(e Event) {
	t.ringMu.RLock()
	idx := t.pos.Add(1) - 1
	t.ring[idx&t.mask] = e
	t.ringMu.RUnlock()
}

// Slice records a complete span [start, start+dur) on (pid, tid).
func (t *Tracer) Slice(pid, tid int32, name string, start, dur int64) {
	if t == nil {
		return
	}
	t.emit(Event{Ph: PhaseSlice, Pid: pid, Tid: tid, Name: name, TS: start, Dur: dur})
}

// SliceArg is Slice with one integer argument (e.g. server=3).
func (t *Tracer) SliceArg(pid, tid int32, name string, start, dur int64, argName string, arg int64) {
	if t == nil {
		return
	}
	t.emit(Event{Ph: PhaseSlice, Pid: pid, Tid: tid, Name: name, TS: start, Dur: dur, ArgName: argName, Arg: arg})
}

// InstantArg records a point event on (pid, tid) with one integer argument
// (an empty argName records none).
func (t *Tracer) InstantArg(pid, tid int32, name string, ts int64, argName string, arg int64) {
	if t == nil {
		return
	}
	t.emit(Event{Ph: PhaseInstant, Pid: pid, Tid: tid, Name: name, TS: ts, ArgName: argName, Arg: arg})
}

// PacketID is the async-span id that correlates one client packet across
// every layer and server that touches it, in the simulator and on live hosts
// alike: the client id in the high bits, the packet sequence in the low 24
// (no client emits 16M updates inside one trace ring).
func PacketID(c id.ClientID, seq id.PacketSeq) uint64 {
	return uint64(c)<<24 | uint64(seq)&0xFFFFFF
}

// AsyncBegin opens an async span correlated by (cat, id). Async spans may
// hop between pids — that is the point: a packet span begins on the server
// that admitted it and steps across every server that touches it.
func (t *Tracer) AsyncBegin(pid int32, cat, name string, id uint64, ts int64) {
	if t == nil {
		return
	}
	t.emit(Event{Ph: PhaseAsyncBegin, Pid: pid, Cat: cat, Name: name, ID: id, TS: ts})
}

// AsyncStep records an instant inside the async span (cat, id).
func (t *Tracer) AsyncStep(pid int32, cat, name string, id uint64, ts int64) {
	if t == nil {
		return
	}
	t.emit(Event{Ph: PhaseAsyncInstant, Pid: pid, Cat: cat, Name: name, ID: id, TS: ts})
}

// AsyncStepArg is AsyncStep with one integer argument (e.g. peer=4).
func (t *Tracer) AsyncStepArg(pid int32, cat, name string, id uint64, ts int64, argName string, arg int64) {
	if t == nil {
		return
	}
	t.emit(Event{Ph: PhaseAsyncInstant, Pid: pid, Cat: cat, Name: name, ID: id, TS: ts, ArgName: argName, Arg: arg})
}

// AsyncEnd closes the async span (cat, id).
func (t *Tracer) AsyncEnd(pid int32, cat, name string, id uint64, ts int64) {
	if t == nil {
		return
	}
	t.emit(Event{Ph: PhaseAsyncEnd, Pid: pid, Cat: cat, Name: name, ID: id, TS: ts})
}

// Counter records a sampled value rendered as a counter track.
func (t *Tracer) Counter(pid int32, name string, ts, value int64) {
	if t == nil {
		return
	}
	t.emit(Event{Ph: PhaseCounter, Pid: pid, Name: name, TS: ts, ArgName: "value", Arg: value})
}

// NameProcess labels pid in the trace viewer.
func (t *Tracer) NameProcess(pid int32, name string) {
	if t == nil {
		return
	}
	t.emit(Event{Ph: PhaseMetadata, Pid: pid, Name: "process_name", ArgName: "name", Arg2: name})
}

// NameThread labels (pid, tid) in the trace viewer.
func (t *Tracer) NameThread(pid, tid int32, name string) {
	if t == nil {
		return
	}
	t.emit(Event{Ph: PhaseMetadata, Pid: pid, Tid: tid, Name: "thread_name", ArgName: "name", Arg2: name})
}

// Len reports how many events the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := t.pos.Load()
	if n > uint64(len(t.ring)) {
		return len(t.ring)
	}
	return int(n)
}

// Dropped reports how many events were overwritten after the ring wrapped.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	n := t.pos.Load()
	if n <= uint64(len(t.ring)) {
		return 0
	}
	return n - uint64(len(t.ring))
}

// Events returns a copy of the ring in emission order (oldest first).
// Metadata events are hoisted to the front so process/thread names survive
// ring wrap. Safe to call while emitters run — the copy excludes them for
// its duration — so a live HTTP dump sees a consistent window.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.ringMu.Lock()
	n := t.pos.Load()
	var out []Event
	if n <= uint64(len(t.ring)) {
		out = append(out, t.ring[:n]...)
	} else {
		head := n & t.mask
		out = append(out, t.ring[head:]...)
		out = append(out, t.ring[:head]...)
	}
	t.ringMu.Unlock()
	// Stable partition: metadata first, everything else in emission order.
	meta := make([]Event, 0, 8)
	rest := out[:0:len(out)]
	for _, e := range out {
		if e.Ph == PhaseMetadata {
			meta = append(meta, e)
		} else {
			rest = append(rest, e)
		}
	}
	return append(meta, rest...)
}
