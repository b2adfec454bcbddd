package cluster

import (
	"reflect"
	"strings"
	"testing"

	"matrix/internal/geom"
	"matrix/internal/id"
)

// TestCoordinatorDeathCostsAdaptivityNotGameplay pins what the paper's
// central-coordinator argument promises and this repo already delivers
// (ROADMAP item 2, which still lacks a restart): the coordinator is off the
// packet path, so when it dies under border traffic — four static servers,
// two clients facing each other across every border — deliveries and
// cross-server forwards keep flowing, nobody is dropped or redirected,
// nothing about the topology moves, and every server's readiness probe says
// why it is degraded.
func TestCoordinatorDeathCostsAdaptivityNotGameplay(t *testing.T) {
	tiles := []geom.Rect{geom.R(0, 0, 500, 500), geom.R(500, 0, 1000, 500), geom.R(0, 500, 500, 1000), geom.R(500, 500, 1000, 1000)}
	c, err := New(Config{Static: tiles, RedialEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	home := map[id.ClientID]geom.Point{
		1: geom.Pt(495, 250), 2: geom.Pt(505, 250), // across the 1|2 border
		3: geom.Pt(250, 495), 4: geom.Pt(250, 505), // 1|3
		5: geom.Pt(750, 495), 6: geom.Pt(750, 505), // 2|4
		7: geom.Pt(495, 750), 8: geom.Pt(505, 750), // 3|4
	}
	for cid := id.ClientID(1); cid <= 8; cid++ {
		if err := c.AddClient(cid, home[cid]); err != nil {
			t.Fatal(err)
		}
	}
	// Every client steps off its home spot and back, parallel to its border,
	// so traffic flows and nobody ever crosses.
	round := 0
	wiggle := func() {
		round++
		for cid, at := range home {
			cl := c.Client(cid)
			d := float64(round % 2)
			if cid <= 2 || cid >= 7 {
				_ = cl.Send(cl.Client().MakeMove(geom.Pt(at.X, at.Y+d)))
			} else {
				_ = cl.Send(cl.Client().MakeMove(geom.Pt(at.X+d, at.Y)))
			}
		}
	}
	// What has flowed so far: per client, updates seen from its neighbour
	// across the border (every one of them a peer forward); per server,
	// forwards taken in from peers.
	type flow struct {
		fromNeighbour map[id.ClientID]uint64
		forwardsIn    map[id.ServerID]uint64
	}
	flowed := func() flow {
		f := flow{map[id.ClientID]uint64{}, map[id.ServerID]uint64{}}
		for cid := range home {
			st := c.Client(cid).Client().Stats()
			f.fromNeighbour[cid] = st.Received - st.EchoCount
		}
		for _, p := range c.MC().Partitions() {
			f.forwardsIn[p.Owner] = c.Server(p.Owner).Core().Stats().PeerPacketsIn
		}
		return f
	}
	// grewBy reports whether every client and every server has seen at least
	// n more than in since (the zero flow: than nothing).
	grewBy := func(since flow, n uint64) bool {
		now := flowed()
		for cid, got := range now.fromNeighbour {
			if got < since.fromNeighbour[cid]+n {
				return false
			}
		}
		for sid, got := range now.forwardsIn {
			if got < since.forwardsIn[sid]+n {
				return false
			}
		}
		return len(now.forwardsIn) == len(tiles)
	}
	wait := func(what string, cond func() bool) {
		t.Helper()
		if !c.WaitUntilQuiet(convergeWithin, func() bool { wiggle(); return cond() }) {
			t.Fatalf("timed out waiting for %s: %+v", what, flowed())
		}
	}
	wait("border traffic to flow both ways everywhere", func() bool { return grewBy(flow{}, 5) })

	type standing struct {
		splits, reclaims int
		partitions       any
		owners           map[id.ClientID]id.ServerID
		bounds           map[id.ServerID]geom.Rect
		welcomes, moves  uint64
	}
	stand := func() standing {
		s := standing{splits: c.MC().Splits(), reclaims: c.MC().Reclaims(), partitions: c.MC().Partitions(),
			owners: c.ClientServers(), bounds: map[id.ServerID]geom.Rect{}}
		for _, p := range c.MC().Partitions() {
			s.bounds[p.Owner] = c.Server(p.Owner).Core().Bounds()
		}
		for cid := range home {
			st := c.Client(cid).Client().Stats()
			s.welcomes += st.Welcomes
			s.moves += st.Switches
		}
		return s
	}
	before := stand()

	if err := c.KillCoordinator(); err != nil {
		t.Fatal(err)
	}
	wait("every server to notice", func() bool {
		for sid := range before.bounds {
			if c.Server(sid).Ready() == nil {
				return false
			}
		}
		return true
	})
	flowAtOutage := flowed()
	wait("border traffic to keep flowing without a coordinator", func() bool { return grewBy(flowAtOutage, 20) })

	if after := stand(); !reflect.DeepEqual(before, after) {
		t.Errorf("the outage moved something:\nbefore %+v\nafter  %+v", before, after)
	}
	for sid := range before.bounds {
		h := c.Server(sid)
		if err := h.Ready(); err == nil || !strings.Contains(err.Error(), "coordinator connection lost") {
			t.Errorf("%v: Ready() = %v, want the lost coordinator connection by name", sid, err)
		}
		if n := h.Game().ClientCount(); n != 2 {
			t.Errorf("%v holds %d avatars, want its 2", sid, n)
		}
	}
	for cid := range home {
		if !c.Client(cid).Client().Connected() {
			t.Errorf("client %v lost its server", cid)
		}
	}
}
