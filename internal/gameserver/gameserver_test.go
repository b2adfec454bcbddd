package gameserver

import (
	"errors"
	"slices"
	"testing"
	"time"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/protocol"
)

func newTestGS(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Server == 0 {
		cfg.Server = 1
	}
	if cfg.Bounds.Empty() {
		cfg.Bounds = geom.R(0, 0, 100, 100)
	}
	if cfg.Radius == 0 {
		cfg.Radius = 5
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// join admits a client at pos and drains the queue.
func join(t *testing.T, s *Server, c id.ClientID, pos geom.Point) {
	t.Helper()
	if err := s.Enqueue(&protocol.ClientHello{Client: c, Pos: pos}); err != nil {
		t.Fatal(err)
	}
	envs, err := s.Process(0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range envs {
		if w, ok := e.Msg.(*protocol.ClientWelcome); ok && e.Client == c {
			found = true
			if w.Server != 1 {
				t.Errorf("welcome names server %v", w.Server)
			}
		}
	}
	if !found {
		t.Fatalf("no welcome for %v", c)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("invalid server id must fail")
	}
	if _, err := New(Config{Server: 1, Radius: -1}); err == nil {
		t.Error("negative radius must fail")
	}
}

func TestJoinAndCount(t *testing.T) {
	s := newTestGS(t, Config{})
	join(t, s, 1, geom.Pt(10, 10))
	join(t, s, 2, geom.Pt(20, 20))
	if got := s.ClientCount(); got != 2 {
		t.Errorf("ClientCount = %d", got)
	}
	if got := s.Stats().JoinsAccepted; got != 2 {
		t.Errorf("JoinsAccepted = %d", got)
	}
	// Rejoin is not a new join.
	join(t, s, 1, geom.Pt(11, 11))
	if got := s.Stats().JoinsAccepted; got != 2 {
		t.Errorf("rejoin counted as join: %d", got)
	}
	if pos, ok := s.ClientPos(1); !ok || pos != geom.Pt(11, 11) {
		t.Errorf("ClientPos = %v,%v", pos, ok)
	}
}

func TestLocalUpdateForwardedToMatrixAndEchoed(t *testing.T) {
	s := newTestGS(t, Config{})
	join(t, s, 1, geom.Pt(10, 10))
	join(t, s, 2, geom.Pt(12, 10)) // within R=5 of client 1
	join(t, s, 3, geom.Pt(90, 90)) // far away

	u := &protocol.GameUpdate{
		Client: 1, Kind: protocol.KindAction,
		Origin: geom.Pt(10, 10), Dest: geom.Pt(10, 10),
		SentUnix: 111,
	}
	if err := s.Enqueue(u); err != nil {
		t.Fatal(err)
	}
	envs, err := s.Process(0)
	if err != nil {
		t.Fatal(err)
	}
	toMatrix := 0
	delivered := map[id.ClientID]bool{}
	for _, e := range envs {
		switch e.Dest {
		case DestMatrix:
			toMatrix++
		case DestClient:
			delivered[e.Client] = true
		}
	}
	if toMatrix != 1 {
		t.Errorf("forwarded to matrix %d times", toMatrix)
	}
	if !delivered[1] {
		t.Error("actor must receive its echo")
	}
	if !delivered[2] {
		t.Error("visible neighbour must receive the event")
	}
	if delivered[3] {
		t.Error("distant client must not receive the event")
	}
}

func TestMoveUpdatesPosition(t *testing.T) {
	s := newTestGS(t, Config{})
	join(t, s, 1, geom.Pt(10, 10))
	u := &protocol.GameUpdate{
		Client: 1, Kind: protocol.KindMove,
		Origin: geom.Pt(10, 10), Dest: geom.Pt(30, 40),
	}
	if err := s.Enqueue(u); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(0); err != nil {
		t.Fatal(err)
	}
	if pos, _ := s.ClientPos(1); pos != geom.Pt(30, 40) {
		t.Errorf("pos = %v", pos)
	}
}

func TestDespawnRemovesClient(t *testing.T) {
	s := newTestGS(t, Config{})
	join(t, s, 1, geom.Pt(10, 10))
	u := &protocol.GameUpdate{
		Client: 1, Kind: protocol.KindDespawn,
		Origin: geom.Pt(10, 10), Dest: geom.Pt(10, 10),
	}
	if err := s.Enqueue(u); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(0); err != nil {
		t.Fatal(err)
	}
	if got := s.ClientCount(); got != 0 {
		t.Errorf("ClientCount = %d after despawn", got)
	}
}

func TestPeerUpdateDeliveredNotForwarded(t *testing.T) {
	s := newTestGS(t, Config{})
	join(t, s, 1, geom.Pt(3, 50)) // near the west boundary
	// Update from a client on another server, 4 units away.
	u := &protocol.GameUpdate{
		Client: 99, Kind: protocol.KindAction,
		Origin: geom.Pt(-1, 50), Dest: geom.Pt(-1, 50),
	}
	if err := s.Enqueue(u); err != nil {
		t.Fatal(err)
	}
	envs, err := s.Process(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range envs {
		if e.Dest == DestMatrix {
			t.Error("peer update must not be re-forwarded to Matrix")
		}
	}
	found := false
	for _, e := range envs {
		if e.Dest == DestClient && e.Client == 1 {
			found = true
		}
	}
	if !found {
		t.Error("nearby client must see the cross-border event")
	}
	if got := s.Stats().Delivered; got == 0 {
		t.Error("Delivered not counted")
	}
}

func TestQueueBudgetAndOverflow(t *testing.T) {
	s := newTestGS(t, Config{MaxQueue: 3})
	for i := 0; i < 3; i++ {
		if err := s.Enqueue(&protocol.ClientHello{Client: id.ClientID(i + 1), Pos: geom.Pt(1, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Enqueue(&protocol.ClientHello{Client: 9, Pos: geom.Pt(1, 1)}); !errors.Is(err, ErrQueueOverflow) {
		t.Fatalf("overflow err = %v", err)
	}
	if got := s.Stats().Dropped; got != 1 {
		t.Errorf("Dropped = %d", got)
	}
	if got := s.QueueLen(); got != 3 {
		t.Errorf("QueueLen = %d", got)
	}
	// Budgeted processing drains partially.
	if _, err := s.Process(2); err != nil {
		t.Fatal(err)
	}
	if got := s.QueueLen(); got != 1 {
		t.Errorf("QueueLen after budget = %d", got)
	}
	if got := s.Stats().Processed; got != 2 {
		t.Errorf("Processed = %d", got)
	}
}

// TestQueueKeepsOrderAndCounts: partial takes in any rhythm serve the queue
// in arrival order, Queued's counts track every accepted and taken message,
// and a restore counts the messages it discards as taken.
func TestQueueKeepsOrderAndCounts(t *testing.T) {
	s := newTestGS(t, Config{})
	join(t, s, 1, geom.Pt(50, 50))
	var want []id.PacketSeq
	seq := id.PacketSeq(0)
	for round, budget := range []int{1, 3, 2, 0, 5, 1, 1, 4} {
		for i := 0; i < round%4+1; i++ {
			seq++
			if err := s.Enqueue(&protocol.GameUpdate{Client: 1, Seq: seq, Origin: geom.Pt(50, 50), Dest: geom.Pt(50, 50)}); err != nil {
				t.Fatal(err)
			}
			want = append(want, seq)
		}
		envs, served, err := s.Serve(nil, budget)
		if err != nil {
			t.Fatal(err)
		}
		var got []id.PacketSeq
		for _, e := range envs {
			if e.Dest == DestMatrix {
				got = append(got, e.Msg.(*protocol.GameUpdate).Seq)
			}
		}
		if !slices.Equal(got, want[:served]) {
			t.Fatalf("round %d served %v, want %v", round, got, want[:served])
		}
		want = want[served:]
		if accepted, taken := s.Queued(); accepted-taken != uint64(len(want)) || s.QueueLen() != len(want) {
			t.Fatalf("round %d: accepted %d, taken %d, QueueLen %d; want %d pending", round, accepted, taken, s.QueueLen(), len(want))
		}
	}
	accepted, _ := s.Queued()
	if err := s.RestoreState(&State{}); err != nil {
		t.Fatal(err)
	}
	if a, taken := s.Queued(); a != accepted || taken != accepted || s.QueueLen() != 0 {
		t.Errorf("after a restore to an empty queue: accepted %d, taken %d, QueueLen %d; want %d, %d, 0", a, taken, s.QueueLen(), accepted, accepted)
	}
}

func TestLoadReport(t *testing.T) {
	s := newTestGS(t, Config{})
	join(t, s, 1, geom.Pt(1, 1))
	if err := s.Enqueue(&protocol.ClientHello{Client: 2, Pos: geom.Pt(2, 2)}); err != nil {
		t.Fatal(err)
	}
	rep := s.LoadReport()
	if rep.Server != 1 || rep.Clients != 1 || rep.QueueLen != 1 {
		t.Errorf("LoadReport = %+v", rep)
	}
}

func TestRangeShrinkRedirectsAndTransfers(t *testing.T) {
	s := newTestGS(t, Config{TransferChunk: 2})
	// Three clients on the left half, two on the right.
	join(t, s, 1, geom.Pt(10, 10))
	join(t, s, 2, geom.Pt(20, 20))
	join(t, s, 3, geom.Pt(30, 30))
	join(t, s, 4, geom.Pt(80, 80))
	join(t, s, 5, geom.Pt(90, 90))
	s.AddObject(protocol.ObjectState{Object: 1, Pos: geom.Pt(5, 5)})   // left: migrates
	s.AddObject(protocol.ObjectState{Object: 2, Pos: geom.Pt(60, 60)}) // right: stays

	// Split: we keep the right half, child 7 takes the left.
	ru := &protocol.RangeUpdate{
		Server: 1,
		Bounds: geom.R(50, 0, 100, 100),
		Handoff: []protocol.HandoffTarget{
			{Server: 7, Addr: "child:7", Bounds: geom.R(0, 0, 50, 100)},
		},
	}
	if err := s.Enqueue(ru); err != nil {
		t.Fatal(err)
	}
	envs, err := s.Process(0)
	if err != nil {
		t.Fatal(err)
	}
	redirects := map[id.ClientID]*protocol.Redirect{}
	var transfers []*protocol.StateTransfer
	for _, e := range envs {
		switch m := e.Msg.(type) {
		case *protocol.Redirect:
			redirects[e.Client] = m
		case *protocol.StateTransfer:
			if e.Dest != DestMatrix {
				t.Error("state transfer must go via Matrix")
			}
			transfers = append(transfers, m)
		}
	}
	for _, c := range []id.ClientID{1, 2, 3} {
		r, ok := redirects[c]
		if !ok {
			t.Fatalf("client %v not redirected", c)
		}
		if r.NewOwner != 7 || r.NewAddr != "child:7" {
			t.Errorf("redirect = %+v", r)
		}
	}
	if len(redirects) != 3 {
		t.Errorf("redirected %d clients, want 3", len(redirects))
	}
	if got := s.ClientCount(); got != 2 {
		t.Errorf("remaining clients = %d", got)
	}
	// 3 client avatars in chunks of 2 => 2 transfers; plus 1 object
	// transfer; the last chunk per target is Final.
	clientObjs, mapObjs := 0, 0
	finals := 0
	for _, tr := range transfers {
		if tr.To != 7 {
			t.Errorf("transfer to %v", tr.To)
		}
		if tr.Final {
			finals++
		}
		for _, o := range tr.Objects {
			if o.Client != 0 {
				clientObjs++
			} else {
				mapObjs++
			}
		}
	}
	if clientObjs != 3 {
		t.Errorf("client objects moved = %d", clientObjs)
	}
	if mapObjs != 1 {
		t.Errorf("map objects moved = %d", mapObjs)
	}
	if finals == 0 {
		t.Error("no Final transfer chunk")
	}
	if got := s.ObjectCount(); got != 1 {
		t.Errorf("objects remaining = %d", got)
	}
	if got := s.Stats().Redirects; got != 3 {
		t.Errorf("Redirects = %d", got)
	}
}

func TestRangeGrowKeepsClients(t *testing.T) {
	s := newTestGS(t, Config{Bounds: geom.R(50, 0, 100, 100)})
	join(t, s, 1, geom.Pt(60, 50))
	ru := &protocol.RangeUpdate{Server: 1, Bounds: geom.R(0, 0, 100, 100)}
	if err := s.Enqueue(ru); err != nil {
		t.Fatal(err)
	}
	envs, err := s.Process(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 0 {
		t.Errorf("grow produced envelopes: %+v", envs)
	}
	if got := s.ClientCount(); got != 1 {
		t.Errorf("ClientCount = %d", got)
	}
	if !s.Bounds().Eq(geom.R(0, 0, 100, 100)) {
		t.Errorf("bounds = %v", s.Bounds())
	}
}

func TestStateTransferAdoption(t *testing.T) {
	s := newTestGS(t, Config{})
	st := &protocol.StateTransfer{
		From: 2, To: 1, Final: true,
		Objects: []protocol.ObjectState{
			{Client: 42, Pos: geom.Pt(10, 10)},
			{Object: 7, Pos: geom.Pt(20, 20)},
		},
	}
	if err := s.Enqueue(st); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(0); err != nil {
		t.Fatal(err)
	}
	if got := s.ClientCount(); got != 1 {
		t.Errorf("adopted clients = %d", got)
	}
	if got := s.ObjectCount(); got != 1 {
		t.Errorf("adopted objects = %d", got)
	}
	if pos, ok := s.ClientPos(42); !ok || pos != geom.Pt(10, 10) {
		t.Errorf("adopted pos = %v,%v", pos, ok)
	}
	if got := s.Stats().StateReceived; got != 2 {
		t.Errorf("StateReceived = %d", got)
	}
	// The adopted client is visible to interest management immediately.
	u := &protocol.GameUpdate{Client: 99, Origin: geom.Pt(11, 10), Dest: geom.Pt(11, 10), Kind: protocol.KindAction}
	if err := s.Enqueue(u); err != nil {
		t.Fatal(err)
	}
	envs, err := s.Process(0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range envs {
		if e.Dest == DestClient && e.Client == 42 {
			found = true
		}
	}
	if !found {
		t.Error("adopted client must receive nearby events")
	}
}

func TestEnqueueNil(t *testing.T) {
	s := newTestGS(t, Config{})
	if err := s.Enqueue(nil); !errors.Is(err, ErrNilMessage) {
		t.Errorf("err = %v", err)
	}
}

func TestUnexpectedMessageType(t *testing.T) {
	s := newTestGS(t, Config{})
	if err := s.Enqueue(&protocol.Ack{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(0); err == nil {
		t.Error("unexpected message must surface an error")
	}
}

func TestRangeShrinkNoTargetKeepsClient(t *testing.T) {
	// A displaced client with no covering handoff target must not be
	// dropped silently.
	s := newTestGS(t, Config{})
	join(t, s, 1, geom.Pt(10, 10))
	ru := &protocol.RangeUpdate{Server: 1, Bounds: geom.R(50, 0, 100, 100)}
	if err := s.Enqueue(ru); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(0); err != nil {
		t.Fatal(err)
	}
	if got := s.ClientCount(); got != 1 {
		t.Errorf("client stranded without target was dropped: count=%d", got)
	}
}

// TestProcessAppendMatchesProcess drives two identically configured
// servers through the same traffic, one with the allocating API and one
// with the append API: the envelopes must be identical.
func TestProcessAppendMatchesProcess(t *testing.T) {
	mk := func() *Server { return newTestGS(t, Config{}) }
	a, b := mk(), mk()
	feed := func(s *Server) {
		for i := 1; i <= 10; i++ {
			if err := s.Enqueue(&protocol.ClientHello{Client: id.ClientID(i), Pos: geom.Pt(float64(i), 10)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i <= 10; i++ {
			if err := s.Enqueue(&protocol.GameUpdate{
				Client: id.ClientID(i), Kind: protocol.KindMove,
				Origin: geom.Pt(float64(i), 10), Dest: geom.Pt(float64(i)+0.5, 10.5),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(a)
	feed(b)
	got, errA := a.Process(0)
	buf := make([]Envelope, 0, 4)
	want, errB := b.ProcessAppend(buf[:0], 0)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("errors diverge: %v vs %v", errA, errB)
	}
	if len(got) != len(want) {
		t.Fatalf("envelope counts diverge: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Dest != want[i].Dest || got[i].Client != want[i].Client ||
			got[i].Msg.MsgType() != want[i].Msg.MsgType() {
			t.Errorf("envelope %d diverges: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestProcessAppendZeroAllocSteadyState is the per-tick envelope path
// allocation budget: with connected clients and a reused buffer, handling
// a move update must not allocate — neither a same-cell move answered from
// one cell nor a move across cells whose fan-out merges several.
func TestProcessAppendZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spread float64 // client spacing; the test server's cell is 5
		there  geom.Point
	}{
		{"same cell", 0.1, geom.Pt(50.15, 50.05)},
		{"across cells", 0.9, geom.Pt(57, 52)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestGS(t, Config{})
			for i := 1; i <= 20; i++ {
				join(t, s, id.ClientID(i), geom.Pt(50+float64(i)*tc.spread, 50))
			}
			home := geom.Pt(50+tc.spread, 50)
			there := &protocol.GameUpdate{Client: 1, Kind: protocol.KindMove, Origin: home, Dest: tc.there}
			back := &protocol.GameUpdate{Client: 1, Kind: protocol.KindMove, Origin: tc.there, Dest: home}
			buf := make([]Envelope, 0, 64)
			step := func() {
				for _, u := range []*protocol.GameUpdate{there, back} {
					if err := s.Enqueue(u); err != nil {
						t.Fatal(err)
					}
				}
				out, err := s.ProcessAppend(buf[:0], 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(out) < 4 {
					t.Fatalf("%d envelopes: no fan-out", len(out))
				}
				buf = out[:0]
			}
			// Warm the inbox and scratch capacities outside the measured region.
			for i := 0; i < 3; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Errorf("per-tick envelope path allocates %.1f/op, budget is 0", allocs)
			}
		})
	}
}

// TestOverlappingMoveDeliversOncePerClientAscending: a move's audience is
// the union of the discs around Origin and Dest. A client inside both gets
// the update once, and the fan-out is in ascending ClientID order whatever
// order the clients joined in and whichever cells they stand in — the order
// every fingerprint and golden inherits.
func TestOverlappingMoveDeliversOncePerClientAscending(t *testing.T) {
	s := newTestGS(t, Config{}) // radius 5, so cells are 5 wide
	at := map[id.ClientID]geom.Point{
		9: geom.Pt(50, 50), // the mover
		7: geom.Pt(52, 50), // in both discs
		3: geom.Pt(47, 50), // origin disc only, another cell
		8: geom.Pt(58, 51), // dest disc only
		5: geom.Pt(54, 47), // in both discs, another cell
		4: geom.Pt(70, 70), // in neither
	}
	for _, c := range []id.ClientID{9, 7, 3, 8, 5, 4} {
		join(t, s, c, at[c])
	}
	if err := s.Enqueue(&protocol.GameUpdate{
		Client: 9, Kind: protocol.KindMove, Origin: at[9], Dest: geom.Pt(54, 50),
	}); err != nil {
		t.Fatal(err)
	}
	envs, err := s.Process(0)
	if err != nil {
		t.Fatal(err)
	}
	var got []id.ClientID
	for _, e := range envs {
		if e.Dest == DestClient {
			got = append(got, e.Client)
		}
	}
	if want := []id.ClientID{3, 5, 7, 8, 9}; !slices.Equal(got, want) {
		t.Errorf("fan-out = %v, want %v", got, want)
	}
	if d := s.Stats().Delivered; d != 5 {
		t.Errorf("Delivered = %d, want 5", d)
	}
}

// TestEnqueueDoesNotWaitForServe: the receive queue is the one part of a
// server other goroutines reach, and Serve holds its lock only to take
// messages. While a boundary-crossing move's ResolveOwner blocks Serve on
// another goroutine, Enqueue and QueueLen still return.
func TestEnqueueDoesNotWaitForServe(t *testing.T) {
	resolving, release := make(chan struct{}), make(chan struct{})
	s := newTestGS(t, Config{ResolveOwner: func(geom.Point) (id.ServerID, string, bool) {
		close(resolving)
		<-release
		return 2, "peer", true
	}})
	join(t, s, 1, geom.Pt(99, 50))
	if err := s.Enqueue(&protocol.GameUpdate{Client: 1, Kind: protocol.KindMove, Origin: geom.Pt(99, 50), Dest: geom.Pt(101, 50)}); err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Serve(nil, 0)
	}()
	<-resolving

	returned := make(chan int)
	go func() {
		_ = s.Enqueue(&protocol.GameUpdate{Client: 1, Kind: protocol.KindMove, Origin: geom.Pt(50, 50), Dest: geom.Pt(50, 50)})
		returned <- s.QueueLen()
	}()
	select {
	case n := <-returned:
		if n != 1 {
			t.Errorf("QueueLen = %d while the move is being served, want the one message enqueued meanwhile", n)
		}
	case <-time.After(2 * time.Second):
		t.Error("Enqueue and QueueLen waited for Serve to finish processing")
		close(release) // let Serve finish, so the pending calls return
		<-returned
		<-served
		return
	}
	close(release)
	<-served
	if n := s.QueueLen(); n != 1 {
		t.Errorf("QueueLen = %d after Serve, want the message enqueued meanwhile still queued", n)
	}
}
