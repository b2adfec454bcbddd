package node

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"matrix/internal/clock"
	"matrix/internal/coordinator"
	"matrix/internal/core"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/middleware"
	"matrix/internal/nodeblob"
	"matrix/internal/protocol"
)

const testRadius = 10

var testWorld = geom.R(0, 0, 100, 100)

// deliver hands the coordinator's envelopes to their nodes through Handle,
// dropping whatever the nodes answer (the tests below step by hand).
func deliver(t *testing.T, nodes []*Node, envs []coordinator.Envelope) {
	t.Helper()
	for _, e := range envs {
		if _, _, err := nodes[e.To-1].Handle(nil, id.None, e.Msg, 0); err != nil {
			t.Fatalf("%v to %v: %v", e.Msg.MsgType(), e.To, err)
		}
	}
}

// staticFleet registers one node per tile with a fresh static coordinator
// and installs the overlap tables it answers with.
func staticFleet(t *testing.T, tiles ...geom.Rect) []*Node {
	t.Helper()
	mc, err := coordinator.New(coordinator.Config{World: testWorld, Static: tiles})
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for i := range tiles {
		reply, envs, err := mc.Register(fmt.Sprintf("node:%d", i+1), testRadius)
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{Radius: testRadius}, reply)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		deliver(t, nodes, envs)
	}
	return nodes
}

func halves() []geom.Rect { return []geom.Rect{geom.R(0, 0, 50, 100), geom.R(50, 0, 100, 100)} }

func move(c id.ClientID, seq id.PacketSeq, from, to geom.Point) *protocol.GameUpdate {
	return &protocol.GameUpdate{Client: c, Seq: seq, Kind: protocol.KindMove, Origin: from, Dest: to}
}

// recorder is a Sink that writes down what Route hands it, in order: who got
// which kind of message (log), and the message's encoded bytes (wire), so two
// recordings are equal only when every envelope carried the same message.
type recorder struct{ log, wire []string }

func (r *recorder) note(to string, m protocol.Message) {
	r.log = append(r.log, fmt.Sprintf("%s <- %v", to, m.MsgType()))
	frame, err := protocol.Marshal(m)
	r.wire = append(r.wire, fmt.Sprintf("%x %v", frame, err))
}

func (r *recorder) ToClient(_ *Node, c id.ClientID, m protocol.Message) { r.note(c.String(), m) }

func (r *recorder) FromCore(_ *Node, envs []core.Envelope) {
	for _, e := range envs {
		r.note(fmt.Sprintf("%v %v", e.Dest, e.Peer), e.Msg)
	}
}

// borderScript is the enqueue sequence the determinism and order tests share:
// two clients by the border of the left half and one deep inside it, a move
// the right half must see, a move that crosses into it, a chat nobody else
// sees.
func borderScript() []protocol.Message {
	return []protocol.Message{
		&protocol.ClientHello{Client: 1, Pos: geom.Pt(45, 50)},
		&protocol.ClientHello{Client: 2, Pos: geom.Pt(47, 50)},
		&protocol.ClientHello{Client: 3, Pos: geom.Pt(10, 10)},
		move(1, 1, geom.Pt(45, 50), geom.Pt(46, 50)),
		move(2, 1, geom.Pt(47, 50), geom.Pt(52, 50)),
		&protocol.GameUpdate{Client: 3, Seq: 1, Kind: protocol.KindChat, Origin: geom.Pt(10, 10), Dest: geom.Pt(10, 10)},
	}
}

// play enqueues borderScript on the left half of a fresh two-tile fleet and
// steps it once per budget, recording everything Route emitted.
func play(t *testing.T, budgets ...int) *recorder {
	t.Helper()
	n := staticFleet(t, halves()...)[0]
	for _, m := range borderScript() {
		if err := n.Game.Enqueue(m); err != nil {
			t.Fatal(err)
		}
	}
	var out Out
	rec := &recorder{}
	for _, b := range budgets {
		n.Step(b, &out)
		if out.GameErr != nil || len(out.CoreErrs) > 0 {
			t.Fatalf("step: game %v, core %v", out.GameErr, out.CoreErrs)
		}
		rec.wire = append(rec.wire, fmt.Sprintf("step %d: %d game envelopes", b, len(out.Game())))
		out.Route(rec)
	}
	return rec
}

// TestStepIsDeterministicAndRouteKeepsEmissionOrder: the same enqueue
// sequence under the same budgets yields the same output, envelope for
// envelope, on two nodes that share nothing; and Route visits it in emission
// order — an update's peer forward where the update stood, ahead of its own
// fan-out; a migrating client's state transfer ahead of its redirect — which
// is the order the live egress (state before redirect) and every simulator
// fingerprint rest on.
func TestStepIsDeterministicAndRouteKeepsEmissionOrder(t *testing.T) {
	a, b := play(t, 2, 1, 2, 0), play(t, 2, 1, 2, 0)
	if !slices.Equal(a.wire, b.wire) {
		t.Fatalf("two nodes, same input, different output:\n%v\n%v", a.wire, b.wire)
	}
	want := []string{
		"client-1 <- client-welcome", "client-2 <- client-welcome", "client-3 <- client-welcome",
		// 1 moves by the border: the right half hears of it, then 1 and 2 see it.
		"peer server-2 <- forward", "client-1 <- game-update", "client-2 <- game-update",
		// 2 crosses: forward, its state, only then its redirect; 1 watches it go.
		"peer server-2 <- forward", "peer server-2 <- state-transfer", "client-2 <- redirect", "client-1 <- game-update",
		// 3 chats far from everyone: no fallout, its own echo.
		"client-3 <- game-update",
	}
	for _, rec := range []*recorder{a, play(t, 0)} { // the order does not depend on how the budget cut the queue
		if !slices.Equal(rec.log, want) {
			t.Errorf("Route order:\n got %q\nwant %q", rec.log, want)
		}
	}
}

// TestStepTouchesOnlyItsOwnNode: distinct nodes of one fleet step on distinct
// goroutines at once — the simulator's phase A — and the race detector sees
// no shared write. (CI runs this package with -race -cpu 1,4.)
func TestStepTouchesOnlyItsOwnNode(t *testing.T) {
	nodes := staticFleet(t, geom.R(0, 0, 50, 50), geom.R(50, 0, 100, 50), geom.R(0, 50, 50, 100), geom.R(50, 50, 100, 100))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One client two units inside the tile's inner corner, so every
			// move is forwarded to all three neighbours.
			at := geom.Pt(48+4*float64(i%2), 48+4*float64(i/2))
			c := id.ClientID(i + 1)
			var out Out
			var rec recorder
			_ = n.Game.Enqueue(&protocol.ClientHello{Client: c, Pos: at})
			for round := 0; round < 200; round++ {
				_ = n.Game.Enqueue(move(c, id.PacketSeq(round), at, at))
				n.Step(0, &out)
				out.Route(&rec)
				n.LoadReport(&out)
				out.Route(&rec)
			}
			if forwards := n.Core.Stats().PeerPacketsOut; forwards != 3*200 {
				t.Errorf("%v forwarded %d packets, want 600", n.Core.ID(), forwards)
			}
		}()
	}
	wg.Wait()
}

// discard is the cheapest Sink.
type discard struct{ clients, envs int }

func (d *discard) ToClient(*Node, id.ClientID, protocol.Message) { d.clients++ }
func (d *discard) FromCore(_ *Node, envs []core.Envelope)        { d.envs += len(envs) }

// TestStepRouteZeroAlloc is the tick's allocation budget: in steady state
// Step + Route on a reused Out allocate nothing of their own — an interior
// crowd costs 0 allocs per tick, a border crowd only the slots of the core's
// chunks of shared Forwards, 16 of 32 per tick — and a routed Out holds no
// message pointer, so a burst tick's envelopes are not pinned until the next
// equally large burst.
func TestStepRouteZeroAlloc(t *testing.T) {
	const clients = 16
	for _, tc := range []struct {
		name     string
		x        float64
		forwards int
		allocs   float64
	}{
		{"interior", 20, 0, 0},
		{"border", 45, clients, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := staticFleet(t, halves()...)[0]
			at := geom.Pt(tc.x, 50)
			var updates []protocol.Message
			for c := id.ClientID(1); c <= clients; c++ {
				_ = n.Game.Enqueue(&protocol.ClientHello{Client: c, Pos: at})
				updates = append(updates, move(c, 1, at, at))
			}
			var out Out
			var sink discard
			tick := func() {
				for _, u := range updates {
					_ = n.Game.Enqueue(u)
				}
				n.Step(0, &out)
				out.Route(&sink)
			}
			tick() // the hellos, and the buffers grow
			tick()
			sink = discard{}
			tick()
			if want := clients * clients; sink.clients != want {
				t.Fatalf("a tick delivered %d updates, want %d", sink.clients, want)
			}
			if want := tc.forwards; sink.envs != want {
				t.Fatalf("a tick forwarded %d updates, want %d", sink.envs, want)
			}
			for _, e := range out.game[:cap(out.game)] {
				if e.Msg != nil {
					t.Fatal("a routed Out still pins a game-server message")
				}
			}
			for _, e := range out.core[:cap(out.core)] {
				if e.Msg != nil {
					t.Fatal("a routed Out still pins a core message")
				}
			}
			if raceEnabled {
				return // allocation counts are not meaningful under the race detector
			}
			// Enough ticks to start many chunks: testing.AllocsPerRun would
			// truncate the fraction of a chunk each tick pays.
			if got := allocsPerOp(256, tick); got > tc.allocs {
				t.Errorf("Step + Route allocate %.3f/tick, budget is %.0f", got, tc.allocs)
			}
		})
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

// gameServerBound returns the envelopes in envs addressed to the co-located
// game server: none may be, since neither driver routes one.
func gameServerBound(envs []core.Envelope) []core.Envelope {
	var out []core.Envelope
	for _, e := range envs {
		if e.Dest == core.DestGameServer {
			out = append(out, e)
		}
	}
	return out
}

// TestHandleQueuesTheGameServersShare: whatever the core answers for its own
// game server — a peer's forward that passed the range check, an inbound
// state transfer, the range change a split reply, a reclaim reply or a
// coordinator's range update makes — Handle judges as peer traffic and queues
// itself. No envelope Handle, Step or LoadReport returns is the game server's.
// Under overload the forward is shed after the core counted it in, while a
// control-plane range update is still admitted.
func TestHandleQueuesTheGameServersShare(t *testing.T) {
	n := staticFleet(t, halves()...)[0]
	var err error
	if n.MW, err = middleware.New(middleware.Config{Stages: []string{middleware.StageAdmission}, ShedQueue: 1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.MW.Close)
	left := halves()[0]
	forward := &protocol.Forward{From: 2, Update: *move(9, 1, geom.Pt(52, 50), geom.Pt(52, 50))}
	rangeUpdate := &protocol.RangeUpdate{Server: 1, Bounds: left}
	var out Out
	for _, m := range []protocol.Message{
		forward,
		&protocol.StateTransfer{From: 2, To: 1, Final: true},
		&protocol.SplitReply{Granted: true, Child: 3, ChildAddr: "node:3", Keep: geom.R(0, 0, 25, 100), Give: geom.R(25, 0, 50, 100)},
		&protocol.ReclaimReply{Granted: true, Merged: left},
		rangeUpdate,
	} {
		envs, handled, err := n.Handle(nil, 2, m, 0)
		if err != nil || handled.Verdict != middleware.Admit || len(envs) != 0 || n.Game.QueueLen() != 1 {
			t.Errorf("%v: %v, %v, answered %v, %d queued; want it admitted and queued, nothing answered", m.MsgType(), err, handled.Verdict, envs, n.Game.QueueLen())
		}
		n.Step(0, &out)
		if bound := gameServerBound(out.core); len(bound) > 0 {
			t.Errorf("stepping the queued %v answers the game server %v", m.MsgType(), bound)
		}
		out.Route(&discard{})
		n.LoadReport(&out)
		if bound := gameServerBound(out.core); len(bound) > 0 {
			t.Errorf("the load report answers the game server %v", bound)
		}
		out.Route(&discard{})
	}

	_ = n.Game.Enqueue(&protocol.ClientHello{Client: 1, Pos: geom.Pt(10, 10)}) // the queue is at ShedQueue
	before := n.Core.Stats()
	if _, handled, err := n.Handle(nil, 2, forward, 0); err != nil || handled.Verdict != middleware.DropOverload || n.Game.QueueLen() != 1 {
		t.Errorf("forward at a full queue: %v, %v, %d queued; want it shed", err, handled.Verdict, n.Game.QueueLen())
	}
	if st := n.Core.Stats(); st.PeerPacketsIn != before.PeerPacketsIn+1 || st.DeliveredToGame != before.DeliveredToGame+1 {
		t.Errorf("the shed forward is not counted by the core: %+v", st)
	}
	if _, handled, err := n.Handle(nil, id.None, rangeUpdate, 0); err != nil || handled.Verdict != middleware.Admit || n.Game.QueueLen() != 2 {
		t.Errorf("range update at a full queue: %v, %v, %d queued; want it admitted", err, handled.Verdict, n.Game.QueueLen())
	}
}

// TestEnqueueAndHandleZeroAlloc is the judge point's allocation budget: a
// client frame through Enqueue and a peer's forward through Handle, each
// judged by a chain and queued, then served, allocate nothing in steady state.
func TestEnqueueAndHandleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := staticFleet(t, halves()...)[0]
	var err error
	if n.MW, err = middleware.New(middleware.Config{Stages: []string{middleware.StageRateLimit, middleware.StageAdmission}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.MW.Close)
	at := geom.Pt(20, 50)
	_ = n.Game.Enqueue(&protocol.ClientHello{Client: 1, Pos: at})
	forward := &protocol.Forward{From: 2, Update: *move(9, 1, geom.Pt(52, 50), geom.Pt(52, 50))}
	req := middleware.Request{Source: middleware.SourceClient, Client: 1, Msg: move(1, 1, at, at)}
	var out Out
	var sink discard
	var envs []core.Envelope
	now := 0.0
	step := func() {
		now++
		req.Now = now
		if v := n.Enqueue(&req); v != middleware.Admit {
			t.Fatalf("client update: %v", v)
		}
		var handled Handled
		if envs, handled, err = n.Handle(envs[:0], 2, forward, now); err != nil || handled.Verdict != middleware.Admit || len(envs) != 0 {
			t.Fatalf("forward: %v, %v, answered %v", err, handled.Verdict, envs)
		}
		n.Step(0, &out)
		out.Route(&sink)
	}
	step() // the hello, and the buffers grow
	step()
	if got := testing.AllocsPerRun(100, step); got != 0 {
		t.Errorf("Enqueue + Handle + Step allocate %.1f/op, budget is 0", got)
	}
}

// TestHandleAdopt drives a spare through what a coordinator sends it when a
// server dies — Adopt chunks, overlap tables, the activating RangeUpdate, in
// that order on one connection — and through the streams that are not a
// checkpoint: none at all, one too big, one that does not decode.
func TestHandleAdopt(t *testing.T) {
	// A root that has shipped a checkpoint, a spare, and a lease that runs out.
	clk := clock.NewVirtual(time.Unix(0, 0))
	mc, err := coordinator.New(coordinator.Config{World: testWorld, HeartbeatEvery: time.Second, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for i := 0; i < 2; i++ {
		reply, envs, err := mc.Register(fmt.Sprintf("node:%d", i+1), testRadius)
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{Radius: testRadius}, reply)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		deliver(t, nodes, envs)
	}
	root, spare := nodes[0], nodes[1]
	if blob, err := spare.Checkpoint(); blob != nil || err != nil {
		t.Fatalf("a spare has a checkpoint to ship: %d bytes, %v", len(blob), err)
	}
	var out Out
	for c := id.ClientID(1); c <= 3; c++ {
		_ = root.Game.Enqueue(&protocol.ClientHello{Client: c, Pos: geom.Pt(10*float64(c), 50)})
	}
	root.Step(0, &out)
	blob, err := root.Checkpoint()
	if err != nil || len(blob) == 0 {
		t.Fatalf("root checkpoint: %d bytes, %v", len(blob), err)
	}
	if _, err := mc.HandleMessage(1, &protocol.SnapshotData{Blob: blob, Final: true}); err != nil {
		t.Fatal(err)
	}
	if hb := root.Heartbeat(7); hb.Server != 1 || hb.Clients != 3 || hb.CheckpointTick != 7 {
		t.Errorf("heartbeat = %+v", hb)
	}
	clk.Advance(time.Minute)
	if _, err := mc.HandleMessage(2, spare.Heartbeat(0)); err != nil {
		t.Fatal(err)
	}

	var sawAdopt, sawRange bool
	for _, e := range mc.Tick() {
		if e.To != 2 {
			continue
		}
		queued := spare.Game.QueueLen()
		envs, adoption, err := spare.Handle(nil, id.None, e.Msg, 0)
		if err != nil {
			t.Fatalf("%v: %v", e.Msg.MsgType(), err)
		}
		switch e.Msg.(type) {
		case *protocol.Adopt:
			sawAdopt = true
			if !adoption.Done || adoption.Bytes != len(blob) || envs != nil {
				t.Errorf("adoption = %+v with %d envelopes, want done with %d bytes", adoption, len(envs), len(blob))
			}
			// Restored first: the world is here before the region is.
			if spare.Game.ClientCount() != 3 || spare.Core.Active() {
				t.Fatalf("after the Adopt: %d avatars, active=%v; want the root's 3 on a still-inactive spare", spare.Game.ClientCount(), spare.Core.Active())
			}
		case *protocol.RangeUpdate:
			sawRange = true
			if !sawAdopt {
				t.Fatal("the coordinator sent the RangeUpdate ahead of the Adopt")
			}
			if len(envs) != 0 || spare.Game.QueueLen() != queued+1 {
				t.Errorf("a RangeUpdate answers %v and queues %d, want nothing and the game server's copy queued", envs, spare.Game.QueueLen()-queued)
			}
		}
	}
	if !sawRange || !spare.Core.Active() || spare.Game.ClientCount() != 3 {
		t.Fatalf("after the stream: range update %v, active=%v, %d avatars", sawRange, spare.Core.Active(), spare.Game.ClientCount())
	}

	t.Run("cold", func(t *testing.T) {
		n := staticFleet(t, testWorld)[0]
		_, adoption, err := n.Handle(nil, id.None, &protocol.Adopt{Victim: 9, Final: true}, 0)
		if err != nil || adoption != (Handled{Done: true}) || n.Game.ClientCount() != 0 {
			t.Errorf("cold adoption = %+v, %v, %d avatars; want done, no bytes, an empty world", adoption, err, n.Game.ClientCount())
		}
	})
	t.Run("oversize", func(t *testing.T) {
		n := staticFleet(t, testWorld)[0]
		chunk := make([]byte, protocol.MaxFrameSize)
		tooLarge := 0
		for sent := 0; sent < 2*protocol.MaxBlobSize; sent += len(chunk) {
			_, adoption, err := n.Handle(nil, id.None, &protocol.Adopt{Victim: 9, Blob: chunk}, 0)
			if errors.Is(err, protocol.ErrBlobTooLarge) {
				tooLarge++
			} else if err != nil {
				t.Fatal(err)
			}
			if adoption.Done {
				t.Fatal("a stream that never ended reported an adoption")
			}
			if held := n.adopt.Len(); held > protocol.MaxBlobSize {
				t.Fatalf("adopt buffer grew to %d bytes", held)
			}
		}
		if tooLarge != 1 || n.adopt.Len() != 0 {
			t.Errorf("%d overflow errors, %d bytes still held; want one and none", tooLarge, n.adopt.Len())
		}
		// The dropped stream's tail ends it in silence; the next one restores.
		if _, adoption, err := n.Handle(nil, id.None, &protocol.Adopt{Victim: 9, Blob: []byte("tail"), Final: true}, 0); err != nil || adoption.Done {
			t.Errorf("tail of the dropped stream: %+v, %v", adoption, err)
		}
		_, _, _ = n.Handle(nil, id.None, &protocol.Adopt{Victim: 9, Blob: blob[:len(blob)/2]}, 0)
		if _, adoption, err := n.Handle(nil, id.None, &protocol.Adopt{Victim: 9, Blob: blob[len(blob)/2:], Final: true}, 0); err != nil || !adoption.Done || n.Game.ClientCount() != 3 {
			t.Errorf("stream after the overflow: %+v, %v, %d avatars", adoption, err, n.Game.ClientCount())
		}
	})
	t.Run("garbage", func(t *testing.T) {
		n := staticFleet(t, testWorld)[0]
		_, adoption, err := n.Handle(nil, id.None, &protocol.Adopt{Victim: 9, Blob: []byte("not a blob"), Final: true}, 0)
		if err == nil || !adoption.Done || adoption.Bytes != 10 {
			t.Errorf("undecodable checkpoint: %+v, %v; want the adoption done and the error", adoption, err)
		}
	})
	t.Run("too big to ship", func(t *testing.T) {
		n := staticFleet(t, testWorld)[0]
		n.Game.AddObject(protocol.ObjectState{Object: 1, Pos: geom.Pt(10, 10), Payload: make([]byte, protocol.MaxBlobSize*3/4+1)})
		if blob, err := n.Checkpoint(); blob != nil || !errors.Is(err, nodeblob.ErrOversize) {
			t.Errorf("oversize checkpoint: %d bytes, %v; want none and ErrOversize", len(blob), err)
		}
	})
}

// TestNewBindsTheHandoff: a node's game server resolves boundary crossings
// against its own Matrix server, and a bad config fails before any chain
// (and its audit goroutine) exists.
func TestNewBindsTheHandoff(t *testing.T) {
	reply := &protocol.RegisterReply{Server: 1, Bounds: testWorld, World: testWorld}
	if _, err := New(Config{Radius: testRadius, Policy: "no-such-policy"}, reply); err == nil {
		t.Error("New accepted an unknown policy")
	}
	n := staticFleet(t, halves()...)[0]
	if owner, _, ok := n.Core.ResolveOwner(geom.Pt(60, 50)); !ok || owner != 2 {
		t.Fatalf("core resolves (60,50) to %v, %v", owner, ok)
	}
	var out Out
	_ = n.Game.Enqueue(&protocol.ClientHello{Client: 1, Pos: geom.Pt(49, 50)})
	_ = n.Game.Enqueue(move(1, 1, geom.Pt(49, 50), geom.Pt(60, 50)))
	n.Step(0, &out)
	if st := n.Game.Stats(); st.Redirects != 1 {
		t.Errorf("crossing move produced %d redirects, want the handoff the core resolved", st.Redirects)
	}
}
