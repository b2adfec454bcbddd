// Package host runs the Matrix state machines over real transports: the
// production deployment mode. A CoordinatorHost serves the MC; a ServerHost
// pairs one Matrix server with its co-located game server and pumps
// messages between the MC, peer servers and game clients; a ClientHost
// drives a game client through joins, updates and transparent redirects.
//
// The cmd/ binaries are thin wrappers around this package, and the same
// hosts run unchanged over the in-memory transport in integration tests.
package host

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"matrix/internal/coordinator"
	"matrix/internal/id"
	"matrix/internal/metrics"
	"matrix/internal/protocol"
	"matrix/internal/space"
	"matrix/internal/trace"
	"matrix/internal/transport"
)

// Host errors.
var (
	ErrClosed      = errors.New("host: closed")
	ErrBadHello    = errors.New("host: connection did not start with a registration")
	ErrNotWelcomed = errors.New("host: server never sent a welcome")
)

// CoordinatorHost serves a Matrix Coordinator on a listener. Matrix servers
// connect, register, and then exchange control messages over the same
// connection.
type CoordinatorHost struct {
	ln     transport.Listener
	logger *log.Logger

	// mu owns the coordinator and tr. Each call into mc runs under it
	// together with the delivery of the envelopes it returns (decide), so
	// the MC handles one message at a time and a decision's frames are on
	// the wire before the next message is read.
	mu sync.Mutex
	mc *coordinator.Coordinator
	// tr, when non-nil, gets one instant event per correlation-stamped
	// control frame the host sends (see corr.go).
	tr *trace.Tracer

	// connMu guards closed, and conns together with mu: a write to conns
	// holds both, so a decision reads it under mu alone. connMu is never
	// held across a write, so Close and Ready do not wait on a decision:
	// Close shuts every conn, which fails a write stuck on a server that
	// stopped reading.
	connMu sync.Mutex
	conns  map[id.ServerID]transport.Conn
	closed bool

	wg   sync.WaitGroup
	done chan struct{}
}

// ServeCoordinator starts an MC on addr (empty = transport default). When
// cfg enables health tracking (HeartbeatEvery > 0) the host also runs the
// lease loop that expires silent servers and re-homes their regions.
func ServeCoordinator(nw transport.Network, addr string, cfg coordinator.Config, logger *log.Logger) (*CoordinatorHost, error) {
	mc, err := coordinator.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := nw.Listen(addr)
	if err != nil {
		return nil, err
	}
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	h := &CoordinatorHost{
		mc:     mc,
		ln:     ln,
		logger: logger,
		conns:  make(map[id.ServerID]transport.Conn),
		done:   make(chan struct{}),
	}
	h.wg.Add(1)
	go h.acceptLoop()
	if cfg.HeartbeatEvery > 0 {
		h.wg.Add(1)
		go h.leaseLoop(cfg.HeartbeatEvery)
	}
	return h, nil
}

// leaseLoop drives the coordinator's failure detector: every heartbeat
// interval it expires overdue leases and delivers whatever remediation
// (adoptions, demotions) falls out.
func (h *CoordinatorHost) leaseLoop(every time.Duration) {
	defer h.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-h.done:
			return
		case <-t.C:
			_ = h.decide(func() ([]coordinator.Envelope, error) { return h.mc.Tick(), nil })
		}
	}
}

// Addr returns the address servers should dial.
func (h *CoordinatorHost) Addr() string { return h.ln.Addr() }

// SetTracer attaches a tracer: every correlation-stamped control frame the
// host sends from now on gets an instant event, so a split/adopt/drain can
// be matched against the receiving server's trace by its corr value.
func (h *CoordinatorHost) SetTracer(tr *trace.Tracer) {
	h.mu.Lock()
	h.tr = tr
	h.mu.Unlock()
	if tr != nil {
		tr.NameProcess(coordTracePid, "coordinator")
		tr.NameThread(coordTracePid, coordTraceTidCtrl, "control")
	}
}

// ServeMetrics starts a Prometheus-format HTTP endpoint for the
// coordinator on addr — /metrics plus /healthz and /readyz — returning
// the bound address and a closer that stops the endpoint. Values are
// sampled at scrape time.
func (h *CoordinatorHost) ServeMetrics(addr string) (string, io.Closer, error) {
	return metrics.Serve(addr, h.writeMetrics, h.Ready, map[string]http.HandlerFunc{
		"/fleetz": h.serveFleetz,
	})
}

// serveFleetz renders the coordinator's operator snapshot — the region
// tree, per-server load and lease state, and the recent decision ring — as
// JSON (see coordinator.FleetSnapshot for the schema).
func (h *CoordinatorHost) serveFleetz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(h.MC().Fleet()); err != nil {
		h.logger.Printf("coordinator: /fleetz encode: %v", err)
	}
}

// Ready is the /readyz probe: nil until the host is closed. The listener
// accepting is the coordinator's only liveness dependency — it has no
// upstream of its own.
func (h *CoordinatorHost) Ready() error {
	h.connMu.Lock()
	defer h.connMu.Unlock()
	if h.closed {
		return errors.New("host closed")
	}
	return nil
}

// writeMetrics renders one scrape. The coordinator's rows are read in one
// critical section, between two decisions, and written out after it.
func (h *CoordinatorHost) writeMetrics(w io.Writer) {
	var b bytes.Buffer
	h.mu.Lock()
	fmt.Fprintf(&b, "# TYPE matrix_mc_server_conns gauge\nmatrix_mc_server_conns %d\n", len(h.conns))
	fmt.Fprintf(&b, "# TYPE matrix_mc_active_servers gauge\nmatrix_mc_active_servers %d\n", len(h.mc.ActiveServers()))
	fmt.Fprintf(&b, "# TYPE matrix_mc_spare_servers gauge\nmatrix_mc_spare_servers %d\n", h.mc.SpareCount())
	fmt.Fprintf(&b, "# TYPE matrix_mc_splits_total counter\nmatrix_mc_splits_total %d\n", h.mc.Splits())
	fmt.Fprintf(&b, "# TYPE matrix_mc_reclaims_total counter\nmatrix_mc_reclaims_total %d\n", h.mc.Reclaims())
	fmt.Fprintf(&b, "# TYPE matrix_mc_deaths_total counter\nmatrix_mc_deaths_total %d\n", h.mc.Deaths())
	fmt.Fprintf(&b, "# TYPE matrix_mc_adoptions_total counter\nmatrix_mc_adoptions_total %d\n", h.mc.Adoptions())
	fmt.Fprintf(&b, "# TYPE matrix_mc_drains_total counter\nmatrix_mc_drains_total %d\n", h.mc.Drains())
	fmt.Fprintf(&b, "# TYPE matrix_mc_checkpoint_overflows_total counter\nmatrix_mc_checkpoint_overflows_total %d\n", h.mc.CheckpointOverflows())
	fmt.Fprintf(&b, "# TYPE matrix_mc_parked_regions gauge\nmatrix_mc_parked_regions %d\n", len(h.mc.Parked()))
	h.mu.Unlock()
	_, _ = w.Write(b.Bytes())
	metrics.WriteRuntime(w)
}

// AdminDrain asks the coordinator to drain target (operator action): its
// partition migrates to a spare or folds into its parent, and the fallout
// is delivered to the fleet. With exit the server is retired instead of
// returned to the spare pool. An admin connection that opens with a
// DrainRequest frame lands here too.
func (h *CoordinatorHost) AdminDrain(target id.ServerID, exit bool) error {
	return h.decide(func() ([]coordinator.Envelope, error) {
		envs, err := h.mc.Drain(target, exit)
		if err == nil {
			h.logger.Printf("coordinator: admin drain of %v (exit=%v)", target, exit)
		}
		return envs, err
	})
}

// MC returns a read-only view of the coordinator (status tooling).
func (h *CoordinatorHost) MC() CoordinatorView { return CoordinatorView{h} }

// CoordinatorView reads a running host's coordinator, each call under the
// host's lock: between two decisions, never inside one.
type CoordinatorView struct{ h *CoordinatorHost }

// read calls f on the coordinator under the host's lock.
func read[T any](v CoordinatorView, f func(*coordinator.Coordinator) T) T {
	v.h.mu.Lock()
	defer v.h.mu.Unlock()
	return f(v.h.mc)
}

// ActiveServers, Partitions, Splits, Reclaims, Deaths, Adoptions, Drains,
// Parked, Validate, Fleet and CheckpointSize are the coordinator.Coordinator
// methods of those names.
func (v CoordinatorView) ActiveServers() []id.ServerID {
	return read(v, (*coordinator.Coordinator).ActiveServers)
}
func (v CoordinatorView) Partitions() []space.Partition {
	return read(v, (*coordinator.Coordinator).Partitions)
}
func (v CoordinatorView) Splits() int           { return read(v, (*coordinator.Coordinator).Splits) }
func (v CoordinatorView) Reclaims() int         { return read(v, (*coordinator.Coordinator).Reclaims) }
func (v CoordinatorView) Deaths() int           { return read(v, (*coordinator.Coordinator).Deaths) }
func (v CoordinatorView) Adoptions() int        { return read(v, (*coordinator.Coordinator).Adoptions) }
func (v CoordinatorView) Drains() int           { return read(v, (*coordinator.Coordinator).Drains) }
func (v CoordinatorView) Parked() []id.ServerID { return read(v, (*coordinator.Coordinator).Parked) }
func (v CoordinatorView) Validate() error       { return read(v, (*coordinator.Coordinator).Validate) }
func (v CoordinatorView) Fleet() coordinator.FleetSnapshot {
	return read(v, (*coordinator.Coordinator).Fleet)
}
func (v CoordinatorView) CheckpointSize(sid id.ServerID) int {
	return read(v, func(mc *coordinator.Coordinator) int { return mc.CheckpointSize(sid) })
}

// Close shuts the host down and waits for its goroutines.
func (h *CoordinatorHost) Close() error {
	h.connMu.Lock()
	if h.closed {
		h.connMu.Unlock()
		return nil
	}
	h.closed = true
	close(h.done)
	for _, c := range h.conns {
		_ = c.Close()
	}
	h.connMu.Unlock()
	err := h.ln.Close()
	h.wg.Wait()
	return err
}

// acceptLoop admits server connections.
func (h *CoordinatorHost) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return
		}
		h.wg.Add(1)
		go h.serveConn(conn)
	}
}

// serveConn performs the registration handshake then pumps control
// messages.
func (h *CoordinatorHost) serveConn(conn transport.Conn) {
	defer h.wg.Done()
	first, err := conn.Recv()
	if err != nil {
		_ = conn.Close()
		return
	}
	// An admin connection opens with a DrainRequest naming a target server
	// instead of registering: grant or deny, deliver the fallout to the
	// fleet, and close.
	if dr, isDrain := first.(*protocol.DrainRequest); isDrain {
		if err := h.AdminDrain(dr.Server, dr.Exit); err != nil {
			_ = conn.Send(&protocol.DrainReply{Granted: false, Reason: err.Error()})
		} else {
			_ = conn.Send(&protocol.DrainReply{Granted: true})
		}
		_ = conn.Close()
		return
	}
	req, ok := first.(*protocol.RegisterRequest)
	if !ok {
		h.logger.Printf("coordinator: %s: first message was %v", conn.RemoteAddr(), first.MsgType())
		_ = conn.Send(&protocol.ErrorMsg{Of: first.MsgType(), Reason: ErrBadHello.Error()})
		_ = conn.Close()
		return
	}
	// The conn is published and the reply sent inside the registration's
	// critical section, so the reply is the first frame the server reads.
	var sid id.ServerID
	err = h.decide(func() ([]coordinator.Envelope, error) {
		reply, envs, err := h.mc.Register(req.Addr, req.Radius)
		if err != nil {
			_ = conn.Send(&protocol.ErrorMsg{Of: protocol.TypeRegisterRequest, Reason: err.Error()})
			return nil, err
		}
		sid = reply.Server
		h.connMu.Lock()
		if h.closed { // Close ran meanwhile and did not see conn
			h.connMu.Unlock()
			return nil, ErrClosed
		}
		h.conns[sid] = conn
		h.connMu.Unlock()
		if err := conn.Send(reply); err != nil {
			return h.drop(sid, conn), err
		}
		h.logger.Printf("coordinator: registered %v at %s", sid, req.Addr)
		return envs, nil
	})
	if err != nil {
		_ = conn.Close()
		return
	}
	for {
		m, err := conn.Recv()
		if err != nil {
			_ = h.decide(func() ([]coordinator.Envelope, error) { return h.drop(sid, conn), nil })
			return
		}
		if err := h.decide(func() ([]coordinator.Envelope, error) { return h.mc.HandleMessage(sid, m) }); err != nil {
			h.logger.Printf("coordinator: %v: %v", sid, err)
		}
	}
}

// decide runs one coordinator call and delivers the envelopes it returns in
// one critical section, and returns the call's error.
func (h *CoordinatorHost) decide(call func() ([]coordinator.Envelope, error)) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	envs, err := call()
	h.deliver(envs)
	return err
}

// deliver sends envelopes to their registered connections. Caller holds mu.
func (h *CoordinatorHost) deliver(envs []coordinator.Envelope) {
	for _, e := range envs {
		if h.tr != nil {
			// The decision's correlation ID leaves the coordinator here;
			// emitted even when the target connection is gone, so the trace
			// shows decisions whose fan-out never reached the fleet.
			traceCorr(h.tr, coordTracePid, coordTraceTidCtrl, e.Msg)
		}
		conn, ok := h.conns[e.To]
		if !ok {
			h.logger.Printf("coordinator: no connection for %v (dropping %v)", e.To, e.Msg.MsgType())
			continue
		}
		if err := conn.Send(e.Msg); err != nil {
			h.deliver(h.drop(e.To, conn))
		}
	}
}

// drop forgets a dead server connection and, when health tracking is on,
// tells the coordinator so the lease expires immediately instead of after N
// missed beats; it returns the remediation envelopes for the fleet. Caller
// holds mu.
func (h *CoordinatorHost) drop(sid id.ServerID, conn transport.Conn) []coordinator.Envelope {
	_ = conn.Close()
	h.connMu.Lock()
	mine, closed := h.conns[sid] == conn, h.closed
	if mine {
		delete(h.conns, sid)
	}
	h.connMu.Unlock()
	if !mine || closed {
		return nil
	}
	h.logger.Printf("coordinator: connection to %v lost", sid)
	return h.mc.HandleDisconnect(sid)
}
