package middleware

import (
	"strings"
	"testing"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/protocol"
)

func update(c id.ClientID, kind protocol.UpdateKind) *protocol.GameUpdate {
	return &protocol.GameUpdate{Client: c, Kind: kind, Origin: geom.Pt(1, 2), Dest: geom.Pt(1, 2)}
}

func clientReq(m protocol.Message) *Request {
	return &Request{Source: SourceClient, Client: 7, Msg: m}
}

// tag appends a label on the request path and another on the response
// path, recording the chain's traversal order.
func tag(log *[]string, name string) Middleware {
	return func(next Handler) Handler {
		return func(req *Request) Verdict {
			*log = append(*log, name+"-req")
			v := next(req)
			*log = append(*log, name+"-resp")
			return v
		}
	}
}

func TestComposeOrdering(t *testing.T) {
	var log []string
	h := Compose(tag(&log, "a"), tag(&log, "b"), tag(&log, "c"))
	if v := h(clientReq(update(7, protocol.KindMove))); v != Admit {
		t.Fatalf("verdict = %v, want admit", v)
	}
	want := []string{"a-req", "b-req", "c-req", "c-resp", "b-resp", "a-resp"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q (full: %v)", i, log[i], want[i], log)
		}
	}
}

func TestComposeShortCircuit(t *testing.T) {
	var log []string
	deny := func(next Handler) Handler {
		return func(req *Request) Verdict { return DropOverload }
	}
	h := Compose(tag(&log, "outer"), deny, tag(&log, "inner"))
	if v := h(clientReq(update(7, protocol.KindMove))); v != DropOverload {
		t.Fatalf("verdict = %v, want overload-shed", v)
	}
	// The inner stage never ran; the outer stage still saw the response.
	want := []string{"outer-req", "outer-resp"}
	if len(log) != 2 || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

func TestContextPropagation(t *testing.T) {
	var sawAuth bool
	inspect := func(next Handler) Handler {
		return func(req *Request) Verdict {
			sawAuth = req.Authenticated
			return next(req)
		}
	}
	h := Compose(Auth("sesame"), inspect)

	hello := &protocol.ClientHello{Client: 7, Token: "sesame"}
	req := clientReq(hello)
	if v := h(req); v != Admit {
		t.Fatalf("verdict = %v, want admit", v)
	}
	if !sawAuth {
		t.Fatal("downstream stage did not observe Authenticated set by auth")
	}
	if !req.Authenticated {
		t.Fatal("caller did not observe Authenticated")
	}
}

func TestAuth(t *testing.T) {
	h := Compose(Auth("sesame"))
	if v := h(clientReq(&protocol.ClientHello{Client: 7, Token: "wrong"})); v != DropAuth {
		t.Fatalf("bad token: verdict = %v, want auth-rejected", v)
	}
	if v := h(clientReq(&protocol.ClientHello{Client: 7})); v != DropAuth {
		t.Fatalf("missing token: verdict = %v, want auth-rejected", v)
	}
	if v := h(clientReq(&protocol.ClientHello{Client: 7, Token: "sesame"})); v != Admit {
		t.Fatalf("good token: verdict = %v, want admit", v)
	}
	// Non-hello frames are not auth's business.
	if v := h(clientReq(update(7, protocol.KindMove))); v != Admit {
		t.Fatalf("update: verdict = %v, want admit", v)
	}
	// Peer-sourced hellos (state replay) are not authenticated either.
	if v := h(&Request{Source: SourcePeer, Msg: &protocol.ClientHello{Client: 7}}); v != Admit {
		t.Fatalf("peer hello: verdict = %v, want admit", v)
	}
}

func TestRateLimit(t *testing.T) {
	l := NewRateLimiter(10, 2) // 10/sec sustained, burst of 2
	h := Compose(l.Middleware())

	req := clientReq(update(7, protocol.KindMove))
	// The burst admits two back-to-back frames, the third drops.
	for i := 0; i < 2; i++ {
		if v := h(req); v != Admit {
			t.Fatalf("burst frame %d: verdict = %v, want admit", i, v)
		}
	}
	if v := h(req); v != DropRateLimited {
		t.Fatalf("over burst: verdict = %v, want rate-limited", v)
	}
	// 100ms refills one token at 10/sec.
	req.Now = 0.1
	if v := h(req); v != Admit {
		t.Fatalf("after refill: verdict = %v, want admit", v)
	}
	if v := h(req); v != DropRateLimited {
		t.Fatalf("refill spent: verdict = %v, want rate-limited", v)
	}
	// Despawns are exempt: dropping a leave strands a ghost avatar.
	if v := h(clientReq(update(7, protocol.KindDespawn))); v != Admit {
		t.Fatalf("despawn: verdict = %v, want admit", v)
	}
	// Control-plane frames are exempt.
	if v := h(clientReq(&protocol.ClientHello{Client: 7})); v != Admit {
		t.Fatalf("hello: verdict = %v, want admit", v)
	}
	// Peer forwards are not client-limited.
	fwd := &protocol.Forward{From: 2, Update: *update(7, protocol.KindMove)}
	if v := h(&Request{Source: SourcePeer, Msg: fwd}); v != Admit {
		t.Fatalf("peer forward: verdict = %v, want admit", v)
	}
	// Another client has its own bucket.
	other := &Request{Source: SourceClient, Client: 8, Msg: update(8, protocol.KindMove)}
	if v := h(other); v != Admit {
		t.Fatalf("other client: verdict = %v, want admit", v)
	}
	// Forget resets client 7 to a fresh (full) bucket.
	l.Forget(7)
	req.Now = 0.1 // unchanged clock: only the reset explains an admit
	if v := h(req); v != Admit {
		t.Fatalf("after forget: verdict = %v, want admit", v)
	}
}

func TestRateLimiterState(t *testing.T) {
	l := NewRateLimiter(10, 2)
	l.Allow(9, 0.5)
	l.Allow(3, 1.0)
	l.Allow(3, 1.0)
	st := l.State()
	if len(st) != 2 || st[0].Client != 3 || st[1].Client != 9 {
		t.Fatalf("state not sorted by client: %+v", st)
	}
	restored := NewRateLimiter(10, 2)
	restored.SetState(st)
	// Client 3 spent its burst at t=1.0; both limiters must agree.
	if l.Allow(3, 1.0) != restored.Allow(3, 1.0) {
		t.Fatal("restored limiter disagrees with original")
	}
	rst := restored.State()
	if len(rst) != len(st) {
		t.Fatalf("restored state has %d buckets, want %d", len(rst), len(st))
	}
}

func TestAdmission(t *testing.T) {
	h := Compose(Admission(100))

	overloaded := func(m protocol.Message) *Request {
		r := clientReq(m)
		r.QueueLen = 100
		return r
	}
	// Below threshold everything passes.
	if v := h(clientReq(update(7, protocol.KindMove))); v != Admit {
		t.Fatalf("under threshold: verdict = %v, want admit", v)
	}
	// At threshold, data plane sheds...
	if v := h(overloaded(update(7, protocol.KindMove))); v != DropOverload {
		t.Fatalf("update at threshold: verdict = %v, want overload-shed", v)
	}
	fwd := &protocol.Forward{From: 2, Update: *update(7, protocol.KindAction)}
	if v := h(overloaded(fwd)); v != DropOverload {
		t.Fatalf("forward at threshold: verdict = %v, want overload-shed", v)
	}
	// ...but control plane and despawns always pass.
	if v := h(overloaded(&protocol.ClientHello{Client: 7})); v != Admit {
		t.Fatalf("hello at threshold: verdict = %v, want admit", v)
	}
	if v := h(overloaded(&protocol.LoadReport{Server: 1})); v != Admit {
		t.Fatalf("load report at threshold: verdict = %v, want admit", v)
	}
	if v := h(overloaded(update(7, protocol.KindDespawn))); v != Admit {
		t.Fatalf("despawn at threshold: verdict = %v, want admit", v)
	}
	despawnFwd := &protocol.Forward{From: 2, Update: *update(7, protocol.KindDespawn)}
	if v := h(overloaded(despawnFwd)); v != Admit {
		t.Fatalf("despawn forward at threshold: verdict = %v, want admit", v)
	}
}

func TestObserveAndAudit(t *testing.T) {
	var events []Event
	ch, err := New(Config{
		Stages:          []string{StageRateLimit, StageAdmission, StageAudit}, // audited wherever it is listed
		RateLimitPerSec: 10,
		RateLimitBurst:  1,
		ShedQueue:       100,
		AuditSink:       func(e Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}

	req := clientReq(update(7, protocol.KindMove))
	if v := ch.Handle(req); v != Admit {
		t.Fatalf("first: verdict = %v, want admit", v)
	}
	if v := ch.Handle(req); v != DropRateLimited {
		t.Fatalf("second: verdict = %v, want rate-limited", v)
	}
	shedReq := clientReq(update(8, protocol.KindMove))
	shedReq.Client = 8
	shedReq.QueueLen = 100
	if v := ch.Handle(shedReq); v != DropOverload {
		t.Fatalf("overload: verdict = %v, want overload-shed", v)
	}
	ch.Close() // flush the audit queue

	st := ch.Stats()
	if got := st.Admitted[protocol.TypeGameUpdate].Value(); got != 1 {
		t.Fatalf("admitted game updates = %d, want 1", got)
	}
	if got := st.RateLimited.Value(); got != 1 {
		t.Fatalf("rate limited = %d, want 1", got)
	}
	if got := st.Shed.Value(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	if len(events) != 2 {
		t.Fatalf("audited events = %d, want 2 (%+v)", len(events), events)
	}
	if events[0].Verdict != DropRateLimited || events[0].Client != 7 {
		t.Fatalf("event 0 = %+v, want rate-limited client 7", events[0])
	}
	if events[1].Verdict != DropOverload || events[1].Client != 7+1 {
		t.Fatalf("event 1 = %+v, want overload-shed client 8", events[1])
	}

	var b strings.Builder
	st.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`matrix_mw_admitted_total{type="game-update"} 1`,
		`matrix_mw_dropped_total{reason="rate-limited"} 1`,
		`matrix_mw_dropped_total{reason="overload-shed"} 1`,
		"matrix_mw_audit_lost_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestNewConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"unknown stage", Config{Stages: []string{"squelch"}}, "unknown stage"},
		{"duplicate stage", Config{Stages: []string{StageAudit, StageAudit}}, "duplicate stage"},
		{"auth without secret", Config{Stages: []string{StageAuth}}, "requires an auth secret"},
		{"negative rate", Config{Stages: []string{StageRateLimit}, RateLimitPerSec: -3}, "rate limit must be positive"},
		{"negative shed queue", Config{Stages: []string{StageAdmission}, ShedQueue: -1}, "shed queue must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New(%+v) error = %v, want containing %q", tc.cfg, err, tc.want)
			}
		})
	}
	// The empty config is the disabled chain: valid and admit-everything.
	ch, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	if v := ch.Handle(clientReq(update(7, protocol.KindMove))); v != Admit {
		t.Fatalf("empty chain verdict = %v, want admit", v)
	}
}

// TestChainAllocs pins the PR 2 contract on the new hot path: judging a
// frame through the full four-stage chain allocates nothing in steady
// state (after the client's token bucket exists).
func TestChainAllocs(t *testing.T) {
	ch, err := New(Config{
		Stages:          []string{StageAuth, StageRateLimit, StageAdmission, StageAudit},
		AuthSecret:      "sesame",
		RateLimitPerSec: 1e9, // never limits: the steady state is the admit path
		ShedQueue:       1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	req := clientReq(update(7, protocol.KindMove))
	ch.Handle(req) // warm up: allocates client 7's bucket
	allocs := testing.AllocsPerRun(1000, func() {
		req.Now += 1e-6
		if v := ch.Handle(req); v != Admit {
			t.Fatalf("verdict = %v, want admit", v)
		}
	})
	if allocs != 0 {
		t.Fatalf("chain hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestChainDropAllocs pins the drop paths too: a rate-limited frame with
// the audit stage active must also stay allocation-free (the audit event
// is a value send into a buffered channel).
func TestChainDropAllocs(t *testing.T) {
	ch, err := New(Config{
		Stages:          []string{StageRateLimit, StageAdmission, StageAudit},
		RateLimitPerSec: 1e-9, // never refills: the steady state is the drop path
		RateLimitBurst:  1,
		ShedQueue:       1 << 20,
		AuditBuffer:     8, // overflows immediately; overflow must not allocate either
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	req := clientReq(update(7, protocol.KindMove))
	ch.Handle(req)
	allocs := testing.AllocsPerRun(1000, func() {
		if v := ch.Handle(req); v != DropRateLimited {
			t.Fatalf("verdict = %v, want rate-limited", v)
		}
	})
	if allocs != 0 {
		t.Fatalf("chain drop path allocates %.1f allocs/op, want 0", allocs)
	}
}
