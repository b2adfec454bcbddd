// Package middleware implements the interceptor chain that judges what
// enters a game server's queue (see node.Enqueue and node.Handle): per-client
// rate limiting, overload admission control, session auth and async audit
// — the protocol-level guard rails the paper's adaptive middleware assumes
// but never specifies.
//
// The chain follows the classic functional-middleware shape:
//
//	type Handler func(req *Request) Verdict
//	type Middleware func(next Handler) Handler
//
// Middlewares registered first run first on the request path; code they
// run after calling next executes in reverse order (the response path).
// A stage short-circuits by returning a non-Admit verdict without calling
// next.
//
// The chain is allocation-free in steady state: it is composed once at
// construction, the Request is caller-owned and reused across frames, and
// every stage keeps its hot state in pre-resolved atomic counters or
// per-client buckets — never behind a map lookup that allocates. The same
// chain judges frames deterministically inside the simulation (the caller
// supplies the virtual clock through Request.Now), so admission decisions
// fold into Result.Fingerprint byte-for-byte.
package middleware

import (
	"fmt"
	"slices"

	"matrix/internal/id"
	"matrix/internal/protocol"
)

// Source classifies where a frame entered the host.
type Source uint8

// Frame sources.
const (
	// SourceClient marks frames arriving on a game client's connection.
	SourceClient Source = iota + 1
	// SourcePeer marks frames arriving from a peer Matrix server.
	SourcePeer
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceClient:
		return "client"
	case SourcePeer:
		return "peer"
	default:
		return fmt.Sprintf("source(%d)", uint8(s))
	}
}

// Verdict is the chain's admission decision for one frame.
type Verdict uint8

// Verdicts. Admit is the zero value so an empty chain admits everything.
const (
	// Admit delivers the frame.
	Admit Verdict = iota
	// DropRateLimited rejects a frame that exceeded its client's token
	// bucket.
	DropRateLimited
	// DropOverload sheds a data-plane frame because the receive queue is
	// past the admission threshold.
	DropOverload
	// DropAuth rejects a ClientHello whose session token failed
	// verification.
	DropAuth
)

// Admitted reports whether the frame should be delivered.
func (v Verdict) Admitted() bool { return v == Admit }

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Admit:
		return "admit"
	case DropRateLimited:
		return "rate-limited"
	case DropOverload:
		return "overload-shed"
	case DropAuth:
		return "auth-rejected"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Request is the request-scoped context threaded through the chain for one
// frame. Callers own it and reuse it across frames (one per connection
// pump, one per simulation), so judging a frame allocates nothing. Stages
// may write fields (Auth sets Authenticated) and later stages observe the
// writes — that is the context-propagation contract.
type Request struct {
	// Source says which kind of connection delivered the frame.
	Source Source
	// Client is the acting client (SourceClient frames).
	Client id.ClientID
	// Msg is the decoded frame under judgment.
	Msg protocol.Message
	// Now is the host clock in seconds. Live hosts pass monotonic wall
	// time; the simulation passes its virtual clock, which is what makes
	// rate-limit decisions deterministic there.
	Now float64
	// QueueLen is the receiving game server's current queue length, the
	// admission stage's load signal.
	QueueLen int
	// Authenticated is set by the auth stage once the session token
	// verifies; downstream stages and the host may trust it.
	Authenticated bool
}

// Handler judges one frame.
type Handler func(req *Request) Verdict

// Middleware wraps a handler with one stage of the chain.
type Middleware func(next Handler) Handler

// Compose builds the chain's handler. mws[0] is the outermost stage: first
// to see the request, last to see the response. The wrap runs in reverse
// so registration order equals request order.
func Compose(mws ...Middleware) Handler {
	h := admitAll
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// admitAll is the chain's innermost handler.
func admitAll(*Request) Verdict { return Admit }

// Chain is an assembled interceptor chain plus the state its stages share:
// the stats block, the rate limiter (for snapshots) and the auditor (for
// shutdown).
type Chain struct {
	handler Handler
	stats   *Stats
	limiter *RateLimiter
	auditor *Auditor
}

// New assembles the standard chain cfg describes. The observe stage is
// always installed outermost, and the audit stage right inside it wherever it
// is listed, so Stats and the audit feed see the final verdict of every frame
// regardless of which stage produced it.
func New(cfg Config) (*Chain, error) {
	if err := validateStages(cfg.Stages); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Chain{stats: &Stats{}}
	mws := make([]Middleware, 0, len(cfg.Stages)+1)
	mws = append(mws, Observe(c.stats))
	for _, s := range cfg.Stages {
		switch s {
		case StageAuth:
			if cfg.AuthSecret == "" {
				return nil, fmt.Errorf("middleware: stage %q requires an auth secret", s)
			}
			mws = append(mws, Auth(cfg.AuthSecret))
		case StageRateLimit:
			if err := ValidateRate(cfg.RateLimitPerSec); err != nil {
				return nil, err
			}
			c.limiter = NewRateLimiter(cfg.RateLimitPerSec, cfg.RateLimitBurst)
			mws = append(mws, c.limiter.Middleware())
		case StageAdmission:
			if cfg.ShedQueue <= 0 {
				return nil, fmt.Errorf("middleware: shed queue must be positive (got %d)", cfg.ShedQueue)
			}
			mws = append(mws, Admission(cfg.ShedQueue))
		case StageAudit:
			c.auditor = NewAuditor(cfg.AuditBuffer, &c.stats.AuditLost, cfg.AuditSink)
			mws = slices.Insert(mws, 1, c.auditor.Middleware())
		}
	}
	c.handler = Compose(mws...)
	return c, nil
}

// Handle judges one frame. Safe for concurrent use when the stages are
// (all built-ins are); each caller must pass its own Request.
func (c *Chain) Handle(req *Request) Verdict { return c.handler(req) }

// Stats exposes the chain's decision counters.
func (c *Chain) Stats() *Stats { return c.stats }

// Limiter returns the rate-limit stage's limiter, nil when not installed.
func (c *Chain) Limiter() *RateLimiter { return c.limiter }

// Close flushes and stops the audit goroutine, if any.
func (c *Chain) Close() {
	if c.auditor != nil {
		c.auditor.Close()
	}
}
