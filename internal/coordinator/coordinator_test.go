package coordinator

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/protocol"
)

func newTestMC(t *testing.T) *Coordinator {
	t.Helper()
	c, err := New(Config{World: geom.R(0, 0, 100, 100)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// register adds a server, failing the test on error.
func register(t *testing.T, c *Coordinator, addr string, radius float64) (*protocol.RegisterReply, []Envelope) {
	t.Helper()
	reply, envs, err := c.Register(addr, radius)
	if err != nil {
		t.Fatalf("Register(%s): %v", addr, err)
	}
	return reply, envs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty world must be rejected")
	}
	if _, err := New(Config{World: geom.R(0, 0, 1, 1), ExtraRadii: []float64{-1}}); err == nil {
		t.Error("negative extra radius must be rejected")
	}
}

func TestFirstRegistrationOwnsWorld(t *testing.T) {
	c := newTestMC(t)
	reply, envs := register(t, c, "a:1", 5)
	if !reply.Server.Valid() {
		t.Fatal("no server id assigned")
	}
	if !reply.Bounds.Eq(geom.R(0, 0, 100, 100)) {
		t.Errorf("bounds = %v, want whole world", reply.Bounds)
	}
	// Single server: one table envelope with no regions.
	if len(envs) != 1 {
		t.Fatalf("got %d envelopes, want 1", len(envs))
	}
	tab, ok := envs[0].Msg.(*protocol.OverlapTable)
	if !ok {
		t.Fatalf("envelope is %T", envs[0].Msg)
	}
	if len(tab.Regions) != 0 {
		t.Errorf("single-server table has %d regions", len(tab.Regions))
	}
	if got := c.ActiveServers(); len(got) != 1 || got[0] != reply.Server {
		t.Errorf("ActiveServers = %v", got)
	}
}

func TestSecondRegistrationIsSpare(t *testing.T) {
	c := newTestMC(t)
	register(t, c, "a:1", 5)
	reply2, envs2 := register(t, c, "b:2", 5)
	if !reply2.Bounds.Empty() {
		t.Errorf("spare bounds = %v, want empty", reply2.Bounds)
	}
	if len(envs2) != 0 {
		t.Errorf("spare registration produced %d envelopes", len(envs2))
	}
	if c.SpareCount() != 1 {
		t.Errorf("SpareCount = %d", c.SpareCount())
	}
	if got := c.ActiveServers(); len(got) != 1 {
		t.Errorf("ActiveServers = %v", got)
	}
}

func TestSplitGrantsSpareAndBroadcastsTables(t *testing.T) {
	c := newTestMC(t)
	r1, _ := register(t, c, "a:1", 5)
	r2, _ := register(t, c, "b:2", 5)

	envs, err := c.HandleMessage(r1.Server, &protocol.SplitRequest{Server: r1.Server, Clients: 400})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	var reply *protocol.SplitReply
	var childRange *protocol.RangeUpdate
	tables := map[id.ServerID]*protocol.OverlapTable{}
	for _, e := range envs {
		switch m := e.Msg.(type) {
		case *protocol.SplitReply:
			reply = m
		case *protocol.RangeUpdate:
			if e.To == r2.Server {
				childRange = m
			}
		case *protocol.OverlapTable:
			tables[e.To] = m
		}
	}
	if reply == nil || !reply.Granted {
		t.Fatalf("split not granted: %+v", reply)
	}
	if reply.Child != r2.Server {
		t.Errorf("child = %v, want %v", reply.Child, r2.Server)
	}
	if reply.ChildAddr != "b:2" {
		t.Errorf("child addr = %q", reply.ChildAddr)
	}
	// Split-to-left on a square world: child gets the left half.
	if !reply.Give.Eq(geom.R(0, 0, 50, 100)) || !reply.Keep.Eq(geom.R(50, 0, 100, 100)) {
		t.Errorf("keep=%v give=%v", reply.Keep, reply.Give)
	}
	if childRange == nil || !childRange.Bounds.Eq(reply.Give) {
		t.Errorf("child range update = %+v", childRange)
	}
	// Both actives must get a fresh table naming the other as peer.
	for _, sid := range []id.ServerID{r1.Server, r2.Server} {
		tab, ok := tables[sid]
		if !ok {
			t.Fatalf("no table pushed to %v", sid)
		}
		if len(tab.Regions) != 1 {
			t.Errorf("server %v table has %d regions, want 1 band", sid, len(tab.Regions))
		}
		if len(tab.Peers) != 1 {
			t.Errorf("server %v table has %d peers", sid, len(tab.Peers))
		}
	}
	if c.SpareCount() != 0 {
		t.Errorf("SpareCount = %d after grant", c.SpareCount())
	}
	if c.Splits() != 1 {
		t.Errorf("Splits = %d", c.Splits())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSplitDeniedWhenPoolEmpty(t *testing.T) {
	c := newTestMC(t)
	r1, _ := register(t, c, "a:1", 5)
	envs, err := c.HandleMessage(r1.Server, &protocol.SplitRequest{Server: r1.Server, Clients: 400})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if len(envs) != 1 {
		t.Fatalf("envelopes = %d", len(envs))
	}
	reply, ok := envs[0].Msg.(*protocol.SplitReply)
	if !ok || reply.Granted {
		t.Fatalf("want denial, got %+v", envs[0].Msg)
	}
	if reply.Reason == "" {
		t.Error("denial must carry a reason")
	}
}

func TestSplitFromUnknownServer(t *testing.T) {
	c := newTestMC(t)
	register(t, c, "a:1", 5)
	_, err := c.HandleMessage(99, &protocol.SplitRequest{Server: 99})
	if !errors.Is(err, ErrUnknownServer) {
		t.Errorf("err = %v", err)
	}
}

func TestReclaimRoundTrip(t *testing.T) {
	c := newTestMC(t)
	r1, _ := register(t, c, "a:1", 5)
	r2, _ := register(t, c, "b:2", 5)
	if _, err := c.HandleMessage(r1.Server, &protocol.SplitRequest{Server: r1.Server, Clients: 400}); err != nil {
		t.Fatal(err)
	}

	envs, err := c.HandleMessage(r1.Server, &protocol.ReclaimRequest{Parent: r1.Server, Child: r2.Server})
	if err != nil {
		t.Fatalf("reclaim: %v", err)
	}
	var reply *protocol.ReclaimReply
	var childRange *protocol.RangeUpdate
	for _, e := range envs {
		switch m := e.Msg.(type) {
		case *protocol.ReclaimReply:
			reply = m
		case *protocol.RangeUpdate:
			if e.To == r2.Server {
				childRange = m
			}
		}
	}
	if reply == nil || !reply.Granted {
		t.Fatalf("reclaim not granted: %+v", reply)
	}
	if !reply.Merged.Eq(geom.R(0, 0, 100, 100)) {
		t.Errorf("merged = %v", reply.Merged)
	}
	if childRange == nil || !childRange.Bounds.Empty() {
		t.Errorf("child must be deactivated with empty bounds: %+v", childRange)
	}
	if c.SpareCount() != 1 {
		t.Errorf("child must return to pool, SpareCount = %d", c.SpareCount())
	}
	if c.Reclaims() != 1 {
		t.Errorf("Reclaims = %d", c.Reclaims())
	}
	// The returned spare is reusable by a later split.
	envs, err = c.HandleMessage(r1.Server, &protocol.SplitRequest{Server: r1.Server, Clients: 500})
	if err != nil {
		t.Fatal(err)
	}
	granted := false
	for _, e := range envs {
		if rep, ok := e.Msg.(*protocol.SplitReply); ok && rep.Granted {
			granted = true
			if rep.Child != r2.Server {
				t.Errorf("recycled child = %v, want %v", rep.Child, r2.Server)
			}
		}
	}
	if !granted {
		t.Error("split after reclaim must reuse the spare")
	}
}

func TestReclaimDenials(t *testing.T) {
	c := newTestMC(t)
	r1, _ := register(t, c, "a:1", 5)
	r2, _ := register(t, c, "b:2", 5)
	r3, _ := register(t, c, "c:3", 5)
	if _, err := c.HandleMessage(r1.Server, &protocol.SplitRequest{Server: r1.Server, Clients: 400}); err != nil {
		t.Fatal(err)
	}
	// r2 is now the child. A non-parent cannot reclaim it.
	envs, err := c.HandleMessage(r3.Server, &protocol.ReclaimRequest{Parent: r3.Server, Child: r2.Server})
	if err != nil {
		t.Fatal(err)
	}
	if rep, ok := envs[0].Msg.(*protocol.ReclaimReply); !ok || rep.Granted {
		t.Error("non-parent reclaim must be denied")
	}
	// Mismatched Parent field must be denied.
	envs, err = c.HandleMessage(r1.Server, &protocol.ReclaimRequest{Parent: r2.Server, Child: r2.Server})
	if err != nil {
		t.Fatal(err)
	}
	if rep, ok := envs[0].Msg.(*protocol.ReclaimReply); !ok || rep.Granted {
		t.Error("parent mismatch must be denied")
	}
	// Unknown child.
	envs, err = c.HandleMessage(r1.Server, &protocol.ReclaimRequest{Parent: r1.Server, Child: 99})
	if err != nil {
		t.Fatal(err)
	}
	if rep, ok := envs[0].Msg.(*protocol.ReclaimReply); !ok || rep.Granted {
		t.Error("unknown child must be denied")
	}
}

func TestLoadReportRelayedToParent(t *testing.T) {
	c := newTestMC(t)
	r1, _ := register(t, c, "a:1", 5)
	r2, _ := register(t, c, "b:2", 5)
	if _, err := c.HandleMessage(r1.Server, &protocol.SplitRequest{Server: r1.Server, Clients: 400}); err != nil {
		t.Fatal(err)
	}
	// Child reports load; parent must receive the relay.
	envs, err := c.HandleMessage(r2.Server, &protocol.LoadReport{Server: r2.Server, Clients: 120, QueueLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 || envs[0].To != r1.Server {
		t.Fatalf("relay envelopes = %+v", envs)
	}
	rep, ok := envs[0].Msg.(*protocol.LoadReport)
	if !ok || rep.Server != r2.Server || rep.Clients != 120 {
		t.Fatalf("relayed = %+v", envs[0].Msg)
	}
	// Root's own report is not relayed anywhere.
	envs, err = c.HandleMessage(r1.Server, &protocol.LoadReport{Server: r1.Server, Clients: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 0 {
		t.Errorf("root relay = %+v", envs)
	}
}

func TestNonProximalQuery(t *testing.T) {
	c := newTestMC(t)
	r1, _ := register(t, c, "a:1", 5)
	register(t, c, "b:2", 5)
	if _, err := c.HandleMessage(r1.Server, &protocol.SplitRequest{Server: r1.Server, Clients: 400}); err != nil {
		t.Fatal(err)
	}
	// Query from server 1 about a point deep in server 2's half, with a
	// big radius: server 2 must be in the set.
	envs, err := c.HandleMessage(r1.Server, &protocol.NonProximalQuery{
		Server: r1.Server, Point: geom.Pt(10, 50), Radius: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	reply, ok := envs[0].Msg.(*protocol.NonProximalReply)
	if !ok {
		t.Fatalf("got %T", envs[0].Msg)
	}
	if len(reply.Servers) != 1 {
		t.Fatalf("servers = %v", reply.Servers)
	}
	if len(reply.Peers) != 1 || reply.Peers[0].Addr != "b:2" {
		t.Fatalf("peers = %+v", reply.Peers)
	}
	// Zero radius falls back to the game default.
	envs, err = c.HandleMessage(r1.Server, &protocol.NonProximalQuery{
		Server: r1.Server, Point: geom.Pt(52, 50),
	})
	if err != nil {
		t.Fatal(err)
	}
	reply = envs[0].Msg.(*protocol.NonProximalReply)
	if len(reply.Servers) != 1 {
		t.Errorf("default-radius query servers = %v", reply.Servers)
	}
}

func TestExtraRadiiProduceMultipleTables(t *testing.T) {
	c, err := New(Config{World: geom.R(0, 0, 100, 100), ExtraRadii: []float64{10}})
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := c.Register("a:1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Register("b:2", 5); err != nil {
		t.Fatal(err)
	}
	envs, err := c.HandleMessage(r1.Server, &protocol.SplitRequest{Server: r1.Server, Clients: 400})
	if err != nil {
		t.Fatal(err)
	}
	// Per server: one table for R=5 and one for R=10.
	radiiSeen := map[id.ServerID]map[float64]bool{}
	for _, e := range envs {
		if tab, ok := e.Msg.(*protocol.OverlapTable); ok {
			if radiiSeen[e.To] == nil {
				radiiSeen[e.To] = map[float64]bool{}
			}
			radiiSeen[e.To][tab.Radius] = true
		}
	}
	for sid, radii := range radiiSeen {
		if !radii[5] || !radii[10] {
			t.Errorf("server %v got radii %v, want both 5 and 10", sid, radii)
		}
	}
	if len(radiiSeen) != 2 {
		t.Errorf("tables pushed to %d servers, want 2", len(radiiSeen))
	}
}

func TestRecursiveSplitsProduceFigureTopology(t *testing.T) {
	// Reproduce the paper's Figure 2 narrative: server 1 splits to 2 (half
	// map each), then splits again to 3 (1 and 3 hold 1/4 each).
	c := newTestMC(t)
	r1, _ := register(t, c, "a:1", 5)
	register(t, c, "b:2", 5)
	register(t, c, "c:3", 5)
	if _, err := c.HandleMessage(r1.Server, &protocol.SplitRequest{Server: r1.Server, Clients: 600}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.HandleMessage(r1.Server, &protocol.SplitRequest{Server: r1.Server, Clients: 600}); err != nil {
		t.Fatal(err)
	}
	parts := c.Partitions()
	if len(parts) != 3 {
		t.Fatalf("partitions = %d", len(parts))
	}
	areas := map[id.ServerID]float64{}
	for _, p := range parts {
		areas[p.Owner] = p.Bounds.Area()
	}
	total := 100.0 * 100.0
	if areas[1] != total/4 {
		t.Errorf("server 1 area = %v, want 1/4 of world", areas[1])
	}
	if areas[2] != total/2 {
		t.Errorf("server 2 area = %v, want 1/2 of world", areas[2])
	}
	if areas[3] != total/4 {
		t.Errorf("server 3 area = %v, want 1/4 of world", areas[3])
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRegisterNegativeRadius(t *testing.T) {
	c := newTestMC(t)
	if _, _, err := c.Register("a:1", -5); !errors.Is(err, ErrBadRadius) {
		t.Errorf("err = %v", err)
	}
}

// TestRegisterRefusesAMismatchedRadius: the first registrant's radius is the
// fleet's, on the dynamic and the static path alike; a later registrant at
// another radius is refused with both values named and leaves the fleet as it
// was, while one at the fleet's radius still joins.
func TestRegisterRefusesAMismatchedRadius(t *testing.T) {
	for name, cfg := range map[string]Config{
		"dynamic": {World: geom.R(0, 0, 100, 100)},
		"static":  {World: geom.R(0, 0, 100, 100), Static: []geom.Rect{geom.R(0, 0, 50, 100), geom.R(50, 0, 100, 100)}},
	} {
		t.Run(name, func(t *testing.T) {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			register(t, c, "a:1", 40)
			before, err := json.Marshal(c.CaptureState())
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = c.Register("b:1", 80)
			if !errors.Is(err, ErrBadRadius) || !strings.Contains(err.Error(), "80") || !strings.Contains(err.Error(), "40") {
				t.Fatalf("Register at 80 against a fleet at 40: err = %v, want ErrBadRadius naming both", err)
			}
			if after, _ := json.Marshal(c.CaptureState()); !bytes.Equal(before, after) {
				t.Errorf("the refused registration changed the fleet:\n%s\n%s", before, after)
			}
			register(t, c, "b:1", 40)
		})
	}
}

func TestUnexpectedMessage(t *testing.T) {
	c := newTestMC(t)
	r1, _ := register(t, c, "a:1", 5)
	if _, err := c.HandleMessage(r1.Server, &protocol.Ack{}); err == nil {
		t.Error("unexpected message type must error")
	}
}
