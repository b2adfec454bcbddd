package middleware

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"matrix/internal/id"
	"matrix/internal/metrics"
	"matrix/internal/netem"
	"matrix/internal/protocol"
)

// --- session auth ---

// Auth verifies the session token on every ClientHello arriving from a
// client connection: a mismatch rejects the frame with DropAuth, a match
// marks the request Authenticated for downstream stages. Frames that are
// not client hellos pass through untouched — peers and the coordinator
// authenticate by topology (they are dialed, not dialing).
func Auth(secret string) Middleware {
	return func(next Handler) Handler {
		return func(req *Request) Verdict {
			if hello, ok := req.Msg.(*protocol.ClientHello); ok && req.Source == SourceClient {
				if hello.Token != secret {
					return DropAuth
				}
				req.Authenticated = true
			}
			return next(req)
		}
	}
}

// --- per-client token-bucket rate limiting ---

// bucket is one client's token bucket. Tokens refill continuously at the
// limiter's rate up to the burst depth; each admitted update spends one.
type bucket struct {
	tokens float64
	last   float64 // clock seconds of the last refill
}

// RateLimiter admits per-client game updates at a sustained rate with a
// bounded burst. Buckets are keyed by client ID and refilled lazily from
// Request.Now, so the same limiter is exact on a wall clock (live host)
// and on the simulation's virtual clock (deterministic).
type RateLimiter struct {
	perSec float64
	burst  float64

	mu      sync.Mutex
	buckets map[id.ClientID]*bucket
}

// NewRateLimiter builds a limiter admitting perSec updates/sec sustained
// with bursts up to burst (<=0 defaults to 2*perSec).
func NewRateLimiter(perSec, burst float64) *RateLimiter {
	if burst <= 0 {
		burst = 2 * perSec
	}
	return &RateLimiter{perSec: perSec, burst: burst, buckets: make(map[id.ClientID]*bucket)}
}

// Middleware returns the chain stage. Only client-sourced game updates are
// limited; control messages, peer forwards and despawns (dropping a leave
// would strand a ghost avatar) always pass.
func (l *RateLimiter) Middleware() Middleware {
	return func(next Handler) Handler {
		return func(req *Request) Verdict {
			if req.Source == SourceClient && rateLimited(req.Msg) && !l.Allow(req.Client, req.Now) {
				return DropRateLimited
			}
			return next(req)
		}
	}
}

// rateLimited reports whether m is subject to per-client rate limiting.
func rateLimited(m protocol.Message) bool {
	u, ok := m.(*protocol.GameUpdate)
	return ok && u.Kind != protocol.KindDespawn
}

// Allow spends one token from c's bucket at clock second now, reporting
// whether one was available. A client's first frame allocates its bucket;
// after that the path is a map hit under a mutex — no allocation.
func (l *RateLimiter) Allow(c id.ClientID, now float64) bool {
	l.mu.Lock()
	b, ok := l.buckets[c]
	if !ok {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[c] = b
	}
	if now > b.last {
		b.tokens += (now - b.last) * l.perSec
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	admitted := b.tokens >= 1
	if admitted {
		b.tokens--
	}
	l.mu.Unlock()
	return admitted
}

// Forget drops a client's bucket (the client disconnected).
func (l *RateLimiter) Forget(c id.ClientID) {
	l.mu.Lock()
	delete(l.buckets, c)
	l.mu.Unlock()
}

// BucketState is one client bucket's snapshot.
type BucketState struct {
	Client id.ClientID
	Tokens float64
	Last   float64
}

// State snapshots every bucket sorted by client ID, so encoding a state
// twice is byte-identical (the snapshot subsystem's golden contract).
func (l *RateLimiter) State() []BucketState {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]BucketState, 0, len(l.buckets))
	for c, b := range l.buckets {
		out = append(out, BucketState{Client: c, Tokens: b.tokens, Last: b.last})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}

// SetState replaces the limiter's buckets with a snapshot.
func (l *RateLimiter) SetState(bs []BucketState) {
	l.mu.Lock()
	l.buckets = make(map[id.ClientID]*bucket, len(bs))
	for _, b := range bs {
		l.buckets[b.Client] = &bucket{tokens: b.Tokens, last: b.Last}
	}
	l.mu.Unlock()
}

// --- overload admission control ---

// Admission sheds data-plane frames (netem.DataPlane: GameUpdate and
// Forward) once the receiving queue reaches shedQueue, while control-plane
// messages always pass: under overload the chain degrades game fidelity
// before it degrades cluster coordination — the same priority the paper's
// split machinery relies on to dig a server out of a flash crowd. Despawns
// are exempt like everywhere else: dropping a leave strands a ghost.
func Admission(shedQueue int) Middleware {
	return func(next Handler) Handler {
		return func(req *Request) Verdict {
			if req.QueueLen >= shedQueue && sheddable(req.Msg) {
				return DropOverload
			}
			return next(req)
		}
	}
}

// sheddable reports whether m may be dropped under overload: data plane
// per netem's classification, minus despawns.
func sheddable(m protocol.Message) bool {
	if !netem.DataPlane(m) {
		return false // control plane: never shed
	}
	switch u := m.(type) {
	case *protocol.GameUpdate:
		return u.Kind != protocol.KindDespawn
	case *protocol.Forward:
		return u.Update.Kind != protocol.KindDespawn
	}
	return true
}

// --- decision metrics ---

// Stats aggregates the chain's decisions in pre-resolved atomic counters:
// a fixed array indexed by MsgType plus one counter per drop reason, so
// the hot path never touches a map or a lock.
type Stats struct {
	// Admitted counts delivered frames by message type.
	Admitted [protocol.NumMsgTypes]metrics.Counter
	// RateLimited counts frames dropped by the ratelimit stage.
	RateLimited metrics.Counter
	// Shed counts frames dropped by the admission stage.
	Shed metrics.Counter
	// AuthFailed counts hellos rejected by the auth stage.
	AuthFailed metrics.Counter
	// AuditLost counts audit events discarded because the async queue was
	// full (the hot path never blocks on the auditor).
	AuditLost metrics.Counter
}

// Observe counts verdicts into st. The accounting runs after next returns
// — on the response path — so it observes the chain's final decision no
// matter which inner stage produced it; New installs it outermost.
func Observe(st *Stats) Middleware {
	return func(next Handler) Handler {
		return func(req *Request) Verdict {
			v := next(req)
			switch v {
			case Admit:
				if t := int(req.Msg.MsgType()); t > 0 && t < len(st.Admitted) {
					st.Admitted[t].Inc()
				}
			case DropRateLimited:
				st.RateLimited.Inc()
			case DropOverload:
				st.Shed.Inc()
			case DropAuth:
				st.AuthFailed.Inc()
			}
			return v
		}
	}
}

// WritePrometheus renders the stats in the Prometheus text exposition
// format (scrape-time only; allocation here is fine).
func (st *Stats) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# TYPE matrix_mw_admitted_total counter\n")
	for t := 1; t < len(st.Admitted); t++ {
		if v := st.Admitted[t].Value(); v > 0 {
			fmt.Fprintf(w, "matrix_mw_admitted_total{type=%q} %d\n", protocol.MsgType(t).String(), v)
		}
	}
	fmt.Fprintf(w, "# TYPE matrix_mw_dropped_total counter\n")
	fmt.Fprintf(w, "matrix_mw_dropped_total{reason=\"rate-limited\"} %d\n", st.RateLimited.Value())
	fmt.Fprintf(w, "matrix_mw_dropped_total{reason=\"overload-shed\"} %d\n", st.Shed.Value())
	fmt.Fprintf(w, "matrix_mw_dropped_total{reason=\"auth-rejected\"} %d\n", st.AuthFailed.Value())
	fmt.Fprintf(w, "# TYPE matrix_mw_audit_lost_total counter\nmatrix_mw_audit_lost_total %d\n", st.AuditLost.Value())
}

// --- async audit export ---

// Event is one audited admission decision.
type Event struct {
	Time    float64
	Source  Source
	Client  id.ClientID
	Type    protocol.MsgType
	Verdict Verdict
}

// Auditor exports drop decisions asynchronously: the stage does a
// non-blocking send of an Event value into a bounded channel and one
// background goroutine drains it into the sink. A full queue counts the
// event as lost instead of ever blocking a frame.
type Auditor struct {
	ch   chan Event
	lost *metrics.Counter
	wg   sync.WaitGroup
}

// NewAuditor starts the drain goroutine. buffer <= 0 defaults to 1024;
// sink may be nil (events are then dropped after counting, which still
// exercises the queue for tests). lost, when non-nil, counts overflow.
func NewAuditor(buffer int, lost *metrics.Counter, sink func(Event)) *Auditor {
	if buffer <= 0 {
		buffer = 1024
	}
	a := &Auditor{ch: make(chan Event, buffer), lost: lost}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for e := range a.ch {
			if sink != nil {
				sink(e)
			}
		}
	}()
	return a
}

// Middleware returns the chain stage: non-admit verdicts are audited on
// the response path.
func (a *Auditor) Middleware() Middleware {
	return func(next Handler) Handler {
		return func(req *Request) Verdict {
			v := next(req)
			if v != Admit {
				select {
				case a.ch <- Event{Time: req.Now, Source: req.Source, Client: req.Client, Type: req.Msg.MsgType(), Verdict: v}:
				default:
					if a.lost != nil {
						a.lost.Inc()
					}
				}
			}
			return v
		}
	}
}

// Close flushes the queue and stops the drain goroutine.
func (a *Auditor) Close() {
	close(a.ch)
	a.wg.Wait()
}
