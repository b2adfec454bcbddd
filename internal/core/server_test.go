package core

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"matrix/internal/clock"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/overlap"
	"matrix/internal/policy"
	"matrix/internal/protocol"
	"matrix/internal/space"
)

const testRadius = 5.0

// newActiveServer builds a server owning bounds inside world, with an
// installed overlap table computed from parts.
func newActiveServer(t *testing.T, sid id.ServerID, parts []space.Partition, clk clock.Clock) *Server {
	t.Helper()
	var bounds geom.Rect
	for _, p := range parts {
		if p.Owner == sid {
			bounds = p.Bounds
		}
	}
	s, err := NewServer(Config{Clock: clk}, &protocol.RegisterReply{
		Server: sid,
		Bounds: bounds,
		World:  geom.R(0, 0, 100, 100),
	}, testRadius)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	installTables(t, s, parts)
	return s
}

// installTables pushes fresh overlap tables for the given partitioning.
func installTables(t *testing.T, s *Server, parts []space.Partition) {
	t.Helper()
	tabs, err := overlap.BuildAll(parts, testRadius, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[s.ID()]
	var peers []protocol.PeerAddr
	for _, p := range parts {
		if p.Owner != s.ID() {
			peers = append(peers, protocol.PeerAddr{Server: p.Owner, Addr: "addr-of-" + p.Owner.String()})
		}
	}
	msg := &protocol.OverlapTable{
		Server:  s.ID(),
		Version: tab.Version(),
		Bounds:  tab.Bounds(),
		Radius:  testRadius,
		Regions: protocol.RegionsToWire(tab.Regions()),
		Peers:   peers,
	}
	if _, err := s.HandleMessage(id.None, msg); err != nil {
		t.Fatalf("install table: %v", err)
	}
}

func twoParts() []space.Partition {
	return []space.Partition{
		{Owner: 1, Bounds: geom.R(50, 0, 100, 100)},
		{Owner: 2, Bounds: geom.R(0, 0, 50, 100)},
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(Config{}, nil, 5); err == nil {
		t.Error("nil reply must fail")
	}
	if _, err := NewServer(Config{}, &protocol.RegisterReply{}, 5); err == nil {
		t.Error("invalid id must fail")
	}
	if _, err := NewServer(Config{}, &protocol.RegisterReply{Server: 1}, -1); err == nil {
		t.Error("negative radius must fail")
	}
	s, err := NewServer(Config{}, &protocol.RegisterReply{Server: 3, Bounds: geom.R(0, 0, 1, 1)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 3 || !s.Active() {
		t.Error("server misconfigured")
	}
	spare, err := NewServer(Config{}, &protocol.RegisterReply{Server: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if spare.Active() {
		t.Error("empty bounds must mean spare")
	}
}

func TestGameUpdateInteriorNotForwarded(t *testing.T) {
	s := newActiveServer(t, 1, twoParts(), nil)
	envs, err := s.AppendGameUpdate(nil, &protocol.GameUpdate{
		Client: 1, Kind: protocol.KindMove,
		Origin: geom.Pt(90, 50), Dest: geom.Pt(90, 50),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 0 {
		t.Fatalf("interior update forwarded: %+v", envs)
	}
	st := s.Stats()
	if st.GamePacketsIn != 1 || st.PeerPacketsOut != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGameUpdateBoundaryForwarded(t *testing.T) {
	s := newActiveServer(t, 1, twoParts(), nil)
	envs, err := s.AppendGameUpdate(nil, &protocol.GameUpdate{
		Client: 1, Kind: protocol.KindMove,
		Origin: geom.Pt(52, 50), Dest: geom.Pt(52, 50),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 {
		t.Fatalf("envelopes = %+v", envs)
	}
	e := envs[0]
	if e.Dest != DestPeer || e.Peer != 2 {
		t.Fatalf("envelope = %+v", e)
	}
	if e.Addr != "addr-of-server-2" {
		t.Errorf("addr = %q", e.Addr)
	}
	fwd, ok := e.Msg.(*protocol.Forward)
	if !ok || fwd.From != 1 {
		t.Fatalf("msg = %+v", e.Msg)
	}
	st := s.Stats()
	if st.PeerPacketsOut != 1 || st.PeerBytesOut == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGameUpdateDestInOtherBand(t *testing.T) {
	// Origin interior, destination inside the boundary band: the packet
	// must still reach the neighbour (union of origin and dest sets).
	s := newActiveServer(t, 1, twoParts(), nil)
	envs, err := s.AppendGameUpdate(nil, &protocol.GameUpdate{
		Client: 1, Kind: protocol.KindAction,
		Origin: geom.Pt(80, 50), Dest: geom.Pt(51, 50),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 || envs[0].Peer != 2 {
		t.Fatalf("envelopes = %+v", envs)
	}
}

func TestGameUpdateInactive(t *testing.T) {
	s, err := NewServer(Config{}, &protocol.RegisterReply{Server: 9}, testRadius)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendGameUpdate(nil, &protocol.GameUpdate{}); !errors.Is(err, ErrInactive) {
		t.Errorf("err = %v", err)
	}
}

func TestGameUpdateNoTable(t *testing.T) {
	s, err := NewServer(Config{}, &protocol.RegisterReply{
		Server: 1, Bounds: geom.R(0, 0, 10, 10), World: geom.R(0, 0, 10, 10),
	}, testRadius)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendGameUpdate(nil, &protocol.GameUpdate{Origin: geom.Pt(1, 1), Dest: geom.Pt(1, 1)}); !errors.Is(err, ErrNoTable) {
		t.Errorf("err = %v", err)
	}
}

func TestKindRadiusException(t *testing.T) {
	// Chat messages carry a 20-unit radius; moves the default 5. A point
	// 10 units from the boundary is forwarded only for chat.
	parts := twoParts()
	s, err := NewServer(Config{
		KindRadius: map[protocol.UpdateKind]float64{protocol.KindChat: 20},
	}, &protocol.RegisterReply{
		Server: 1, Bounds: geom.R(50, 0, 100, 100), World: geom.R(0, 0, 100, 100),
	}, testRadius)
	if err != nil {
		t.Fatal(err)
	}
	// Install tables for both radii.
	for _, r := range []float64{testRadius, 20} {
		tabs, err := overlap.BuildAll(parts, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		tab := tabs[1]
		msg := &protocol.OverlapTable{
			Server: 1, Version: 1, Bounds: tab.Bounds(), Radius: r,
			Regions: protocol.RegionsToWire(tab.Regions()),
			Peers:   []protocol.PeerAddr{{Server: 2, Addr: "x"}},
		}
		if _, err := s.HandleMessage(id.None, msg); err != nil {
			t.Fatal(err)
		}
	}
	at := geom.Pt(60, 50) // 10 units from the x=50 boundary
	move := &protocol.GameUpdate{Kind: protocol.KindMove, Origin: at, Dest: at}
	envs, err := s.AppendGameUpdate(nil, move)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 0 {
		t.Errorf("move at 10 units forwarded with R=5: %+v", envs)
	}
	chat := &protocol.GameUpdate{Kind: protocol.KindChat, Origin: at, Dest: at}
	envs, err = s.AppendGameUpdate(nil, chat)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 {
		t.Errorf("chat at 10 units not forwarded with R=20: %+v", envs)
	}
}

func TestPeerForwardRangeVerification(t *testing.T) {
	s := newActiveServer(t, 1, twoParts(), nil)
	// In range: origin within bounds expanded by R.
	in := &protocol.Forward{From: 2, Update: protocol.GameUpdate{
		Kind: protocol.KindMove, Origin: geom.Pt(47, 50), Dest: geom.Pt(47, 50),
	}}
	envs, err := s.HandleMessage(2, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 || envs[0].Dest != DestGameServer {
		t.Fatalf("envelopes = %+v", envs)
	}
	if _, ok := envs[0].Msg.(*protocol.GameUpdate); !ok {
		t.Fatalf("delivered %T", envs[0].Msg)
	}
	// Out of range: must be dropped and counted.
	out := &protocol.Forward{From: 2, Update: protocol.GameUpdate{
		Kind: protocol.KindMove, Origin: geom.Pt(10, 50), Dest: geom.Pt(10, 50),
	}}
	envs, err = s.HandleMessage(2, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 0 {
		t.Fatalf("out-of-range delivered: %+v", envs)
	}
	st := s.Stats()
	if st.DeliveredToGame != 1 || st.RangeRejected != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLoadReportTriggersSplitOnce(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	s := newActiveServer(t, 1, twoParts(), clk)
	envs, err := s.HandleLocalLoad(400, 50)
	if err != nil {
		t.Fatal(err)
	}
	var split *protocol.SplitRequest
	var report *protocol.LoadReport
	for _, e := range envs {
		switch m := e.Msg.(type) {
		case *protocol.SplitRequest:
			split = m
		case *protocol.LoadReport:
			report = m
		}
		if e.Dest != DestCoordinator {
			t.Errorf("load envelopes must go to the MC: %+v", e)
		}
	}
	if split == nil || split.Clients != 400 {
		t.Fatalf("split request = %+v", split)
	}
	if report == nil || report.QueueLen != 50 {
		t.Fatalf("load report = %+v", report)
	}
	// Second overloaded report while the split is pending: no new request.
	envs, err = s.HandleLocalLoad(450, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range envs {
		if _, ok := e.Msg.(*protocol.SplitRequest); ok {
			t.Fatal("duplicate split request while pending")
		}
	}
	if got := s.Stats().SplitsRequested; got != 1 {
		t.Errorf("SplitsRequested = %d", got)
	}
}

func TestSplitReplyGrantedUpdatesState(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	s := newActiveServer(t, 1, twoParts(), clk)
	if _, err := s.HandleLocalLoad(400, 0); err != nil {
		t.Fatal(err)
	}
	keep := geom.R(75, 0, 100, 100)
	envs, err := s.HandleMessage(id.None, &protocol.SplitReply{
		Granted: true, Child: 3, ChildAddr: "c:9", Keep: keep, Give: geom.R(50, 0, 75, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Bounds().Eq(keep) {
		t.Errorf("bounds = %v", s.Bounds())
	}
	if kids := s.childOrder; !slices.Equal(kids, []id.ServerID{3}) {
		t.Errorf("children = %v", kids)
	}
	if info, ok := s.peers[3]; !ok || info.addr != "c:9" {
		t.Errorf("child addr = %q,%v", info.addr, ok)
	}
	if len(envs) != 1 || envs[0].Dest != DestGameServer {
		t.Fatalf("envelopes = %+v", envs)
	}
	ru, ok := envs[0].Msg.(*protocol.RangeUpdate)
	if !ok || !ru.Bounds.Eq(keep) {
		t.Fatalf("range update = %+v", envs[0].Msg)
	}
	if got := s.Stats().SplitsGranted; got != 1 {
		t.Errorf("SplitsGranted = %d", got)
	}
	// A denial clears the pending flag without state changes.
	if _, err := s.HandleLocalLoad(400, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSplitReplyDeniedAllowsRetry(t *testing.T) {
	cfg := policy.DefaultThresholds()
	clk := clock.NewVirtual(time.Unix(0, 0))
	s := newActiveServer(t, 1, twoParts(), clk)
	if _, err := s.HandleLocalLoad(400, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.HandleMessage(id.None, &protocol.SplitReply{Granted: false, Reason: "pool"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(cfg.SplitCooldown)
	envs, err := s.HandleLocalLoad(400, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range envs {
		if _, ok := e.Msg.(*protocol.SplitRequest); ok {
			found = true
		}
	}
	if !found {
		t.Error("denied split must be retryable")
	}
}

func TestReclaimFlow(t *testing.T) {
	cfg := policy.DefaultThresholds()
	clk := clock.NewVirtual(time.Unix(0, 0))
	s := newActiveServer(t, 1, twoParts(), clk)
	// Adopt child 2 via a granted split reply.
	if _, err := s.HandleLocalLoad(400, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.HandleMessage(id.None, &protocol.SplitReply{
		Granted: true, Child: 2, Keep: geom.R(50, 0, 100, 100), Give: geom.R(0, 0, 50, 100),
	}); err != nil {
		t.Fatal(err)
	}
	// Parent load drops, then the child reports low load; the dwell timer
	// starts at the first moment the combined condition holds.
	if _, err := s.HandleLocalLoad(50, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.HandleMessage(id.None, &protocol.LoadReport{Server: 2, Clients: 40}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(cfg.ReclaimDwell)
	// The next local report requests the reclaim.
	envs, err := s.HandleLocalLoad(50, 0)
	if err != nil {
		t.Fatal(err)
	}
	var req *protocol.ReclaimRequest
	for _, e := range envs {
		if m, ok := e.Msg.(*protocol.ReclaimRequest); ok {
			req = m
		}
	}
	if req == nil || req.Child != 2 || req.Parent != 1 {
		t.Fatalf("reclaim request = %+v", req)
	}
	// Granted: merged bounds applied, child forgotten, game server told.
	merged := geom.R(0, 0, 100, 100)
	envs, err = s.HandleMessage(id.None, &protocol.ReclaimReply{Granted: true, Merged: merged})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Bounds().Eq(merged) {
		t.Errorf("bounds = %v", s.Bounds())
	}
	if kids := s.childOrder; len(kids) != 0 || len(s.child) != 0 {
		t.Errorf("children = %v", kids)
	}
	if len(envs) != 1 || envs[0].Dest != DestGameServer {
		t.Fatalf("envelopes = %+v", envs)
	}
	if got := s.Stats().ReclaimGranted; got != 1 {
		t.Errorf("ReclaimGranted = %d", got)
	}
}

func TestRangeUpdateActivateDeactivate(t *testing.T) {
	// A spare is activated by an MC range push, then deactivated.
	s, err := NewServer(Config{}, &protocol.RegisterReply{Server: 7, World: geom.R(0, 0, 100, 100)}, testRadius)
	if err != nil {
		t.Fatal(err)
	}
	give := geom.R(0, 0, 50, 100)
	envs, err := s.HandleMessage(id.None, &protocol.RangeUpdate{Server: 7, Bounds: give})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Active() || !s.Bounds().Eq(give) {
		t.Errorf("activation failed: active=%v bounds=%v", s.Active(), s.Bounds())
	}
	if len(envs) != 1 || envs[0].Dest != DestGameServer {
		t.Fatalf("envelopes = %+v", envs)
	}
	// Deactivate.
	if _, err := s.HandleMessage(id.None, &protocol.RangeUpdate{Server: 7, Bounds: geom.Rect{}}); err != nil {
		t.Fatal(err)
	}
	if s.Active() {
		t.Error("deactivation failed")
	}
	// Misdelivered update errors.
	if _, err := s.HandleMessage(id.None, &protocol.RangeUpdate{Server: 8, Bounds: give}); err == nil {
		t.Error("misdelivered range update must error")
	}
}

func TestStateTransferRouting(t *testing.T) {
	s := newActiveServer(t, 1, twoParts(), nil)
	// Outbound from local game server to peer 2.
	out := &protocol.StateTransfer{From: 1, To: 2, Final: true}
	envs, err := s.HandleMessage(id.None, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 || envs[0].Dest != DestPeer || envs[0].Peer != 2 {
		t.Fatalf("outbound = %+v", envs)
	}
	// Inbound addressed to us: delivered to game server.
	in := &protocol.StateTransfer{From: 2, To: 1, Final: true}
	envs, err = s.HandleMessage(2, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 || envs[0].Dest != DestGameServer {
		t.Fatalf("inbound = %+v", envs)
	}
	// Outbound to an unknown peer from the local game server fails.
	bad := &protocol.StateTransfer{From: 1, To: 42}
	if _, err := s.HandleMessage(id.None, bad); !errors.Is(err, ErrBadPeer) {
		t.Errorf("err = %v", err)
	}
}

func TestNonProximalFlow(t *testing.T) {
	s := newActiveServer(t, 1, twoParts(), nil)
	// Destination far outside our partition and its R-expansion.
	u := &protocol.GameUpdate{
		Client: 4, Kind: protocol.KindAction,
		Origin: geom.Pt(90, 50), Dest: geom.Pt(5, 5),
	}
	envs, err := s.AppendGameUpdate(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 || envs[0].Dest != DestCoordinator {
		t.Fatalf("envelopes = %+v", envs)
	}
	q, ok := envs[0].Msg.(*protocol.NonProximalQuery)
	if !ok || q.Point != geom.Pt(5, 5) {
		t.Fatalf("query = %+v", envs[0].Msg)
	}
	if got := s.Stats().NonProximalSent; got != 1 {
		t.Errorf("NonProximalSent = %d", got)
	}
	// The MC answers; the pending packet is forwarded to the named peers.
	envs, err = s.HandleMessage(id.None, &protocol.NonProximalReply{
		Servers: []id.ServerID{2},
		Peers:   []protocol.PeerAddr{{Server: 2, Addr: "b:2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 || envs[0].Peer != 2 {
		t.Fatalf("forwarded = %+v", envs)
	}
	fwd, ok := envs[0].Msg.(*protocol.Forward)
	if !ok || fwd.Update.Client != 4 {
		t.Fatalf("msg = %+v", envs[0].Msg)
	}
	// A reply with nothing pending errors.
	if _, err := s.HandleMessage(id.None, &protocol.NonProximalReply{}); !errors.Is(err, ErrNoPending) {
		t.Errorf("err = %v", err)
	}
}

func TestStaleTableIgnored(t *testing.T) {
	s := newActiveServer(t, 1, twoParts(), nil)
	// Current version is 1 (from installTables). Push version 5, then a
	// stale version 3: the stale one must be ignored.
	fresh := &protocol.OverlapTable{
		Server: 1, Version: 5, Bounds: geom.R(50, 0, 100, 100), Radius: testRadius,
	}
	if _, err := s.HandleMessage(id.None, fresh); err != nil {
		t.Fatal(err)
	}
	if got := s.TableVersion(); got != 5 {
		t.Fatalf("TableVersion = %d", got)
	}
	stale := &protocol.OverlapTable{
		Server: 1, Version: 3, Bounds: geom.R(0, 0, 10, 10), Radius: testRadius,
	}
	if _, err := s.HandleMessage(id.None, stale); err != nil {
		t.Fatal(err)
	}
	if got := s.TableVersion(); got != 5 {
		t.Errorf("stale table installed: version = %d", got)
	}
	// Misdelivered table errors.
	bad := &protocol.OverlapTable{Server: 9, Version: 9, Bounds: geom.R(0, 0, 1, 1), Radius: testRadius}
	if _, err := s.HandleMessage(id.None, bad); err == nil {
		t.Error("misdelivered table must error")
	}
}

func TestOverlapAreaExposed(t *testing.T) {
	s := newActiveServer(t, 1, twoParts(), nil)
	// Band of 5 x 100 along the shared edge.
	if got := s.OverlapArea(); got != 500 {
		t.Errorf("OverlapArea = %v, want 500", got)
	}
}

func TestHandleNilMessage(t *testing.T) {
	s := newActiveServer(t, 1, twoParts(), nil)
	if _, err := s.HandleMessage(id.None, nil); !errors.Is(err, ErrNilMessage) {
		t.Errorf("err = %v", err)
	}
}

func TestChildLoadForUnknownChildIgnored(t *testing.T) {
	s := newActiveServer(t, 1, twoParts(), nil)
	if _, err := s.HandleMessage(id.None, &protocol.LoadReport{Server: 77, Clients: 10}); err != nil {
		t.Errorf("unknown child load must be ignored, got %v", err)
	}
}

func TestDestString(t *testing.T) {
	if DestCoordinator.String() != "coordinator" ||
		DestGameServer.String() != "game-server" ||
		DestPeer.String() != "peer" {
		t.Error("Dest names wrong")
	}
	if Dest(0).String() != "dest(0)" {
		t.Error("invalid Dest String")
	}
}

// TestAppendGameUpdateMatchesHandle: appending to a reused buffer must
// route exactly like the nil-dst call HandleMessage makes.
func TestAppendGameUpdateMatchesHandle(t *testing.T) {
	a := newActiveServer(t, 1, twoParts(), nil)
	b := newActiveServer(t, 1, twoParts(), nil)
	updates := []*protocol.GameUpdate{
		{Client: 1, Kind: protocol.KindMove, Origin: geom.Pt(75, 50), Dest: geom.Pt(75, 50)}, // interior
		{Client: 2, Kind: protocol.KindMove, Origin: geom.Pt(51, 50), Dest: geom.Pt(51, 50)}, // boundary
		{Client: 3, Kind: protocol.KindAction, Origin: geom.Pt(52, 10), Dest: geom.Pt(53, 11)},
	}
	buf := make([]Envelope, 0, 4)
	for _, u := range updates {
		got, errA := a.HandleMessage(id.None, u)
		want, errB := b.AppendGameUpdate(buf[:0], u)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("errors diverge: %v vs %v", errA, errB)
		}
		if len(got) != len(want) {
			t.Fatalf("envelope counts diverge: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Dest != want[i].Dest || got[i].Peer != want[i].Peer || got[i].Addr != want[i].Addr {
				t.Errorf("envelope %d diverges: %+v vs %+v", i, got[i], want[i])
			}
		}
		buf = want[:0]
	}
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Errorf("stats diverge: %+v vs %+v", sa, sb)
	}
}

// TestAppendGameUpdateAllocBudget pins the fast path: an interior update
// (no forwarding) must not allocate; a boundary update — standing, or moving
// so that its origin and dest lookups differ and are merged — costs the slot
// of one shared Forward in the server's slab, a chunk per 32 updates; and a
// peer's Forward reaches the game server as its own Update, at no allocation
// at all.
func TestAppendGameUpdateAllocBudget(t *testing.T) {
	s := newActiveServer(t, 1, twoParts(), nil)
	buf := make([]Envelope, 0, 8)
	interior := &protocol.GameUpdate{Client: 1, Kind: protocol.KindMove, Origin: geom.Pt(75, 50), Dest: geom.Pt(75, 50)}
	boundary := &protocol.GameUpdate{Client: 2, Kind: protocol.KindMove, Origin: geom.Pt(51, 50), Dest: geom.Pt(51, 50)}
	moving := &protocol.GameUpdate{Client: 3, Kind: protocol.KindMove, Origin: geom.Pt(51, 50), Dest: geom.Pt(60, 50)}
	fwd := &protocol.Forward{From: 2, Update: protocol.GameUpdate{Client: 4, Kind: protocol.KindMove, Origin: geom.Pt(49, 50), Dest: geom.Pt(49, 50)}}
	// Enough runs to start many chunks: testing.AllocsPerRun would truncate
	// the fraction of a chunk each update pays.
	run := func(from id.ServerID, m protocol.Message) float64 {
		return allocsPerOp(256, func() {
			out, err := s.AppendMessage(buf[:0], from, m)
			if err != nil {
				t.Fatal(err)
			}
			buf = out[:0]
		})
	}
	out, err := s.AppendMessage(buf[:0], 2, fwd)
	if err != nil || len(out) != 1 || out[0].Dest != DestGameServer || out[0].Msg != protocol.Message(&fwd.Update) {
		t.Errorf("peer Forward: %+v, %v; want one game-server envelope carrying the Forward's own Update", out, err)
	}
	if raceEnabled {
		return // allocation counts are not meaningful under the race detector
	}
	if got := run(id.None, interior); got != 0 {
		t.Errorf("interior update allocates %.3f/op, budget is 0", got)
	}
	for _, u := range []*protocol.GameUpdate{boundary, moving} {
		if got := run(id.None, u); got > 1.0/16 {
			t.Errorf("boundary update %v → %v allocates %.3f/op, budget is 1/16 (a slot of a chunk of 32 Forwards)", u.Origin, u.Dest, got)
		}
	}
	if got := run(2, fwd); got != 0 {
		t.Errorf("peer Forward allocates %.3f/op, budget is 0", got)
	}
}

// allocsPerOp is testing.AllocsPerRun without its truncation to a whole
// number: the mean heap allocations of runs calls of f, after one warm-up.
func allocsPerOp(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
