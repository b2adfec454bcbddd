package host

import (
	"testing"
	"time"

	"matrix/internal/coordinator"
	"matrix/internal/gameclient"
	"matrix/internal/gameserver"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/load"
	"matrix/internal/nodeblob"
	"matrix/internal/protocol"
	"matrix/internal/transport"
)

// waitFor polls cond up to 10 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// clientPos reads client c's position on h's tick goroutine.
func clientPos(t *testing.T, h *ServerHost, c id.ClientID) (p geom.Point, ok bool) {
	t.Helper()
	if err := h.onTick(func() error { p, ok = h.node.Game.ClientPos(c); return nil }); err != nil {
		t.Fatal(err)
	}
	return p, ok
}

func startCluster(t *testing.T, nw transport.Network, servers int, policy load.Config) (*CoordinatorHost, []*ServerHost) {
	t.Helper()
	mc, err := ServeCoordinator(nw, "", coordinator.Config{World: geom.R(0, 0, 1000, 1000)}, nil)
	if err != nil {
		t.Fatalf("ServeCoordinator: %v", err)
	}
	t.Cleanup(func() { mc.Close() })
	hosts := make([]*ServerHost, 0, servers)
	for i := 0; i < servers; i++ {
		sh, err := StartServer(ServerConfig{
			Network:        nw,
			Coordinator:    mc.Addr(),
			Radius:         40,
			Load:           policy,
			TickInterval:   2 * time.Millisecond,
			ReportInterval: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("StartServer %d: %v", i, err)
		}
		t.Cleanup(func() { sh.Close() })
		hosts = append(hosts, sh)
	}
	return mc, hosts
}

func TestClientJoinAndEcho(t *testing.T) {
	nw := transport.NewMemNetwork()
	_, hosts := startCluster(t, nw, 1, load.Config{})
	ch, err := DialClient(ClientConfig{
		Network:    nw,
		ServerAddr: hosts[0].Addr(),
		Client:     gameclient.Config{ID: 1, Pos: geom.Pt(100, 100)},
	})
	if err != nil {
		t.Fatalf("DialClient: %v", err)
	}
	defer ch.Close()
	if !ch.Client().Connected() {
		t.Fatal("client not connected after DialClient")
	}
	// Send an action; the echo must come back and record a latency.
	if err := ch.Send(ch.Client().MakeAction(protocol.KindAction, geom.Pt(101, 100))); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, "echo", func() bool { return ch.Client().Stats().EchoCount >= 1 })
	if len(ch.Client().Latencies()) == 0 {
		t.Error("no latency recorded")
	}
}

func TestTwoClientsSeeEachOther(t *testing.T) {
	nw := transport.NewMemNetwork()
	_, hosts := startCluster(t, nw, 1, load.Config{})
	a, err := DialClient(ClientConfig{Network: nw, ServerAddr: hosts[0].Addr(),
		Client: gameclient.Config{ID: 1, Pos: geom.Pt(100, 100)}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := DialClient(ClientConfig{Network: nw, ServerAddr: hosts[0].Addr(),
		Client: gameclient.Config{ID: 2, Pos: geom.Pt(110, 100)}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Send(a.Client().MakeAction(protocol.KindAction, geom.Pt(105, 100))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "b sees a's action", func() bool { return b.Client().Stats().Received >= 1 })
}

// TestSplitRedirectsClientsTransparently drives enough clients into one
// half of the world to force a split, then checks the cluster state and
// that clients were transparently switched to the child server.
func TestSplitRedirectsClientsTransparently(t *testing.T) {
	nw := transport.NewMemNetwork()
	policy := load.Config{
		OverloadClients:  8,
		UnderloadClients: 4,
		SplitCooldown:    100 * time.Millisecond,
		ReclaimDwell:     time.Hour, // no reclaims during this test
		ReclaimHeadroom:  0.8,
	}
	mc, hosts := startCluster(t, nw, 2, policy)
	// 12 clients clustered in the LEFT half: the root splits and hands the
	// left half (with all these clients) to the spare.
	var clients []*ClientHost
	for i := 0; i < 12; i++ {
		ch, err := DialClient(ClientConfig{
			Network:    nw,
			ServerAddr: hosts[0].Addr(),
			Client:     gameclient.Config{ID: gameclientID(i + 1), Pos: geom.Pt(100+float64(i), 500)},
		})
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		defer ch.Close()
		clients = append(clients, ch)
	}
	waitFor(t, "split", func() bool { return mc.MC().Splits() >= 1 })
	waitFor(t, "clients migrate", func() bool {
		return hosts[1].Game().ClientCount() >= 12
	})
	// Clients must be reconnected (welcomed) at the child server.
	for i, ch := range clients {
		ch := ch
		waitFor(t, "client reconnected", func() bool { return ch.Client().Connected() })
		if got := ch.Client().Server(); got != hosts[1].ID() {
			t.Errorf("client %d on %v, want %v", i, got, hosts[1].ID())
		}
		if ch.Client().Stats().Switches == 0 {
			t.Errorf("client %d never switched", i)
		}
	}
	// The world must still be exactly tiled.
	if err := mc.MC().Validate(); err != nil {
		t.Errorf("MC invariants: %v", err)
	}
	// And traffic still flows after the migration.
	c := clients[0]
	before := c.Client().Stats().EchoCount
	if err := c.Send(c.Client().MakeAction(protocol.KindAction, geom.Pt(105, 500))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-switch echo", func() bool { return c.Client().Stats().EchoCount > before })
}

// TestCrossBorderVisibilityOverTCP runs a two-server world over real TCP
// sockets and checks that an event near the boundary reaches a client on
// the other server — the end-to-end localized-consistency path.
func TestCrossBorderVisibilityOverTCP(t *testing.T) {
	nw := transport.TCPNetwork{}
	policy := load.Config{
		OverloadClients:  4,
		UnderloadClients: 1,
		SplitCooldown:    100 * time.Millisecond,
		ReclaimDwell:     time.Hour,
		ReclaimHeadroom:  0.8,
	}
	mc, hosts := startCluster(t, nw, 2, policy)
	// Fill the left half to force the split.
	var clients []*ClientHost
	for i := 0; i < 6; i++ {
		ch, err := DialClient(ClientConfig{
			Network:    nw,
			ServerAddr: hosts[0].Addr(),
			Client:     gameclient.Config{ID: gameclientID(i + 1), Pos: geom.Pt(480, 500)},
		})
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		defer ch.Close()
		clients = append(clients, ch)
	}
	waitFor(t, "split", func() bool { return mc.MC().Splits() >= 1 })
	// A fresh client just right of the boundary connects to the root.
	right, err := DialClient(ClientConfig{
		Network:    nw,
		ServerAddr: hosts[0].Addr(),
		Client:     gameclient.Config{ID: 99, Pos: geom.Pt(510, 500)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer right.Close()
	// Wait until the left-half clients have migrated to the child.
	waitFor(t, "migration", func() bool { return hosts[1].Game().ClientCount() >= 6 })
	left := clients[0]
	waitFor(t, "left reconnected", func() bool { return left.Client().Connected() })

	// An action at the boundary by a left-side client must reach the
	// right-side client across servers (origin 480 is within R=40 of 510).
	before := right.Client().Stats().Received
	if err := left.Send(left.Client().MakeAction(protocol.KindAction, geom.Pt(490, 500))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cross-border delivery", func() bool {
		return right.Client().Stats().Received > before
	})
}

// gameclientID keeps client-ID literals tidy in table setups.
func gameclientID(i int) id.ClientID { return id.ClientID(i) }

// TestSnapshotFrameDumpsNodeState pins the wire surface: any connection
// can request a server's full state with a SnapshotRequest frame, and the
// blob restores a game world into a fresh node.
func TestSnapshotFrameDumpsNodeState(t *testing.T) {
	nw := transport.NewMemNetwork()
	_, hosts := startCluster(t, nw, 1, load.Config{})

	// Put some world state on the server: two clients join and move.
	for i := 1; i <= 2; i++ {
		c, err := DialClient(ClientConfig{
			Network:    nw,
			ServerAddr: hosts[0].Addr(),
			Client:     gameclient.Config{ID: gameclientID(i), Pos: geom.Pt(float64(100*i), 200)},
		})
		if err != nil {
			t.Fatalf("dial client %d: %v", i, err)
		}
		t.Cleanup(func() { c.Close() })
	}
	waitFor(t, "clients joined", func() bool { return hosts[0].Game().ClientCount() == 2 })

	conn, err := nw.Dial(hosts[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&protocol.SnapshotRequest{}); err != nil {
		t.Fatal(err)
	}
	var (
		stream protocol.Reassembler
		blob   []byte
	)
	for done := false; !done; {
		reply, err := conn.Recv()
		if err != nil {
			t.Fatalf("receive snapshot reply: %v", err)
		}
		data, ok := reply.(*protocol.SnapshotData)
		if !ok {
			t.Fatalf("reply is %v, want snapshot-data", reply.MsgType())
		}
		if blob, done, err = stream.Add(data.Blob, data.Final); err != nil {
			t.Fatal(err)
		}
	}
	node, err := nodeblob.Decode(blob)
	if err != nil {
		t.Fatalf("decode blob: %v", err)
	}
	if len(node.Game.Clients) != 2 {
		t.Errorf("blob carries %d clients, want 2", len(node.Game.Clients))
	}
	if node.Core.ID != hosts[0].ID() {
		t.Errorf("blob core ID = %v, want %v", node.Core.ID, hosts[0].ID())
	}

	// The blob restores a game world into a fresh game server (the live
	// -restore semantic: world state only, identity/bounds stay local).
	gs, err := gameserver.New(gameserver.Config{Server: 99, Bounds: geom.R(0, 0, 1000, 1000), Radius: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := nodeblob.RestoreGame(blob, gs); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if gs.ClientCount() != 2 {
		t.Errorf("restored game server holds %d clients, want 2", gs.ClientCount())
	}
}
