package cluster

import (
	"testing"
	"time"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/nodeblob"
)

const convergeWithin = 5 * time.Second

// TestKillNineHealsFromCheckpoint is the tentpole: a server owning the
// whole world is killed without warning; the warm spare must adopt the
// region restored from the victim's last checkpoint — the same avatars at
// the same positions, without any client helping by reconnecting
// (redialing is disabled to isolate the checkpoint path).
func TestKillNineHealsFromCheckpoint(t *testing.T) {
	c, err := New(Config{Servers: 2, RedialEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	victim := c.MC().ActiveServers()[0]
	world := c.MC().Partitions()[0].Bounds
	positions := map[id.ClientID]geom.Point{
		1: geom.Pt(100, 100),
		2: geom.Pt(700, 300),
		3: geom.Pt(400, 800),
	}
	for cid, pos := range positions {
		if err := c.AddClient(cid, pos); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpoint must include the avatars: wait until the server has
	// absorbed the joins AND shipped a fresh checkpoint afterwards. All
	// waits are quiet — the clients never move, so the restored world
	// must match the joined world exactly.
	if !c.WaitUntilQuiet(convergeWithin, func() bool {
		return c.Server(victim).Game().ClientCount() == len(positions)
	}) {
		t.Fatal("clients never joined the victim")
	}
	cp0 := c.Server(victim).CheckpointTick()
	if !c.WaitUntilQuiet(convergeWithin, func() bool {
		return c.Server(victim).CheckpointTick() > cp0
	}) {
		t.Fatal("victim never shipped a checkpoint after the joins")
	}

	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}

	if !c.WaitUntilQuiet(convergeWithin, func() bool { return c.MC().Adoptions() == 1 }) {
		t.Fatalf("no adoption after kill: deaths=%d parked=%v", c.MC().Deaths(), c.MC().Parked())
	}
	if got := c.MC().Deaths(); got != 1 {
		t.Errorf("Deaths = %d, want 1", got)
	}
	active := c.MC().ActiveServers()
	if len(active) != 1 || active[0] == victim {
		t.Fatalf("ActiveServers = %v, want one survivor != %v", active, victim)
	}
	heir := c.Server(active[0])
	if !c.WaitUntilQuiet(convergeWithin, func() bool {
		return heir.Core().Active() && heir.Core().Bounds() == world
	}) {
		t.Errorf("heir bounds = %v, want the whole world %v", heir.Core().Bounds(), world)
	}
	// Same world served: every avatar is back, where it was, even though
	// no client ever reconnected.
	if !c.WaitUntilQuiet(convergeWithin, func() bool {
		return heir.Game().ClientCount() == len(positions)
	}) {
		t.Fatalf("heir serves %d avatars, want %d (checkpoint restore failed)",
			heir.Game().ClientCount(), len(positions))
	}
	// The positions are read from a dump, which the heir takes on its tick
	// goroutine.
	blob, err := heir.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dump, err := nodeblob.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored := make(map[id.ClientID]geom.Point)
	for _, cs := range dump.Game.Clients {
		restored[cs.Client] = cs.Pos
	}
	for cid, want := range positions {
		got, ok := restored[cid]
		if !ok {
			t.Errorf("client %v missing from the restored world", cid)
			continue
		}
		if got != want {
			t.Errorf("client %v restored at %v, joined at %v", cid, got, want)
		}
	}
	if err := c.MC().Validate(); err != nil {
		t.Errorf("coordinator invariants broken after heal: %v", err)
	}
}

// TestClientsReconnectAfterCrash: with redialing on, killed clients must
// find the surviving server (via their fallback list) and resume playing
// against the restored world.
func TestClientsReconnectAfterCrash(t *testing.T) {
	c, err := New(Config{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	victim := c.MC().ActiveServers()[0]
	for cid := id.ClientID(1); cid <= 4; cid++ {
		if err := c.AddClient(cid, geom.Pt(float64(100*cid), 500)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitUntil(convergeWithin, func() bool {
		return c.Server(victim).CheckpointTick() > 0
	}) {
		t.Fatal("victim never shipped a checkpoint")
	}
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}

	// Every client ends up owned by the heir and its traffic flows again.
	if !c.WaitUntil(convergeWithin, func() bool {
		active := c.MC().ActiveServers()
		if len(active) != 1 || active[0] == victim {
			return false
		}
		for _, owner := range c.ClientServers() {
			if owner != active[0] {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("clients never converged on the heir: owners=%v active=%v",
			c.ClientServers(), c.MC().ActiveServers())
	}
	heir := c.Server(c.MC().ActiveServers()[0])
	before := heir.Game().Stats().Processed
	if !c.WaitUntil(convergeWithin, func() bool {
		return heir.Game().Stats().Processed > before
	}) {
		t.Error("heir processes no client traffic after the heal")
	}
}

// TestZombieLeaseExpiresAndDemotes: a server that stops heartbeating but
// keeps its connection is only caught by lease expiry; when it comes back
// it finds itself replaced and is demoted to a spare.
func TestZombieLeaseExpiresAndDemotes(t *testing.T) {
	c, err := New(Config{Servers: 2, LeaseMisses: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	zombie := c.MC().ActiveServers()[0]
	if err := c.Zombie(zombie, true); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(convergeWithin, func() bool { return c.MC().Deaths() == 1 }) {
		t.Fatal("zombie's lease never expired")
	}
	if !c.WaitUntil(convergeWithin, func() bool { return c.MC().Adoptions() == 1 }) {
		t.Fatal("zombie's region was never adopted")
	}

	// Resurrect: the next heartbeat tells the coordinator it is alive but
	// replaced; it must be demoted into the spare pool, not serve stale
	// bounds.
	if err := c.Zombie(zombie, false); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(convergeWithin, func() bool {
		return len(c.MC().Fleet().Spares) == 1 && !c.Server(zombie).Core().Active()
	}) {
		t.Fatalf("zombie not demoted to spare: spares=%d active=%v",
			len(c.MC().Fleet().Spares), c.Server(zombie).Core().Active())
	}
	active := c.MC().ActiveServers()
	if len(active) != 1 || active[0] == zombie {
		t.Errorf("ActiveServers = %v, want only the heir", active)
	}
}

// TestCrashWithEmptyPoolParksThenHeals: when the only server dies with no
// spare, the region parks (never lost); the next server to register
// adopts it immediately.
func TestCrashWithEmptyPoolParksThenHeals(t *testing.T) {
	c, err := New(Config{Servers: 1, RedialEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	victim := c.MC().ActiveServers()[0]
	if err := c.AddClient(1, geom.Pt(500, 500)); err != nil {
		t.Fatal(err)
	}
	cp0 := c.Server(victim).CheckpointTick()
	if !c.WaitUntil(convergeWithin, func() bool {
		return c.Server(victim).CheckpointTick() > cp0
	}) {
		t.Fatal("victim never shipped a checkpoint after the join")
	}
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(convergeWithin, func() bool {
		parked := c.MC().Parked()
		return len(parked) == 1 && parked[0] == victim
	}) {
		t.Fatalf("victim's region not parked: parked=%v", c.MC().Parked())
	}
	if got := len(c.MC().ActiveServers()); got != 0 {
		t.Errorf("ActiveServers = %d, want 0 while parked", got)
	}

	// A fresh spare registers and the parked region lands on it, restored.
	heirID, err := c.AddServer()
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(convergeWithin, func() bool {
		return c.MC().Adoptions() == 1 && c.Server(heirID).Core().Active()
	}) {
		t.Fatal("parked region never adopted by the fresh spare")
	}
	if !c.WaitUntil(convergeWithin, func() bool {
		return c.Server(heirID).Game().ClientCount() == 1
	}) {
		t.Error("parked region's avatars not restored from checkpoint")
	}
}

// TestAdminDrainLiveMigration: an operator drains the active server over
// the wire; its partition must migrate to the spare via live handoff (no
// checkpoint), clients must follow, and the drainee must become an empty
// spare that reports itself drained. And a drain is a cycle, not a once-only
// event: drained back the other way the first server is re-adopted, and its
// second drain — through Drain, which used to return at once on the first
// cycle's closed channel — signals only once it holds nothing again.
func TestAdminDrainLiveMigration(t *testing.T) {
	c, err := New(Config{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	drainee := c.MC().ActiveServers()[0]
	for cid := id.ClientID(1); cid <= 3; cid++ {
		if err := c.AddClient(cid, geom.Pt(float64(200*cid), 400)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitUntil(convergeWithin, func() bool {
		return c.Server(drainee).Game().ClientCount() == 3
	}) {
		t.Fatal("clients never joined the drainee")
	}
	// handedOff waits until from has said it is drained and every client
	// plays against to.
	handedOff := func(round string, from, to id.ServerID) {
		t.Helper()
		if !c.WaitUntil(convergeWithin, func() bool {
			select {
			case <-c.Server(from).Drained():
			default:
				return false
			}
			for _, owner := range c.ClientServers() {
				if owner != to {
					return false
				}
			}
			return c.Server(to).Game().ClientCount() == 3
		}) {
			t.Fatalf("%s: %v holds %d clients, %v holds %d, owners %v", round, from,
				c.Server(from).Game().ClientCount(), to, c.Server(to).Game().ClientCount(), c.ClientServers())
		}
		if got := c.Server(from).Game().ClientCount(); got != 0 || c.Server(from).Core().Active() {
			t.Fatalf("%s: %v says drained while active=%v with %d clients", round, from, c.Server(from).Core().Active(), got)
		}
	}

	if err := c.AdminDrain(drainee, false); err != nil {
		t.Fatal(err)
	}
	if got := c.MC().Deaths(); got != 0 {
		t.Errorf("Deaths = %d, want 0 — drain is not a failure", got)
	}
	active := c.MC().ActiveServers()
	if len(active) != 1 || active[0] == drainee {
		t.Fatalf("ActiveServers = %v, want only the migration target", active)
	}
	heir := active[0]
	handedOff("first drain", drainee, heir)
	// The drainee went back to the pool: it is eligible to adopt if the
	// heir dies.
	if got := len(c.MC().Fleet().Spares); got != 1 {
		t.Errorf("SpareCount = %d, want the drainee re-pooled", got)
	}

	// Draining the heir re-adopts the first server, the only spare.
	if err := c.AdminDrain(heir, false); err != nil {
		t.Fatal(err)
	}
	handedOff("re-adoption", heir, drainee)
	select {
	case <-c.Server(drainee).Drained():
		t.Fatal("re-adopted server still reports its first drain")
	default:
	}
	done := make(chan error, 1)
	go func() { done <- c.Server(drainee).Drain(false, convergeWithin) }()
	for waiting := true; waiting; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("second drain: %v", err)
			}
			waiting = false
		default:
			c.Pulse() // keep client traffic flowing so the migration can complete
			time.Sleep(time.Millisecond)
		}
	}
	if got := c.Server(drainee).Game().ClientCount(); got != 0 || c.Server(drainee).Core().Active() {
		t.Fatalf("second Drain returned with active=%v and %d clients on the server", c.Server(drainee).Core().Active(), got)
	}
	handedOff("second drain", drainee, heir)
	if got := c.MC().Drains(); got != 3 {
		t.Errorf("Drains = %d, want 3", got)
	}
}

// TestServerInitiatedDrain: `matrix-server -drain` path — the server asks
// for its own drain over its coordinator connection and blocks until the
// fleet has taken its work.
func TestServerInitiatedDrain(t *testing.T) {
	c, err := New(Config{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	drainee := c.MC().ActiveServers()[0]
	if err := c.AddClient(1, geom.Pt(500, 500)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Server(drainee).Drain(false, convergeWithin) }()
	// Keep client traffic flowing so migration can complete.
	if !c.WaitUntil(convergeWithin, func() bool {
		select {
		case err := <-done:
			done <- err
			return true
		default:
			return false
		}
	}) {
		t.Fatal("self-drain never completed")
	}
	if err := <-done; err != nil {
		t.Fatalf("self-drain failed: %v", err)
	}
	active := c.MC().ActiveServers()
	if len(active) != 1 || active[0] == drainee {
		t.Errorf("ActiveServers = %v, want only the migration target", active)
	}
	if !c.Server(drainee).Core().Active() && len(c.MC().Fleet().Spares) != 1 {
		t.Errorf("drainee not re-pooled: spares=%d", len(c.MC().Fleet().Spares))
	}
}

// TestDrainedSpareAdoptsLater closes the loop: a drained server must be a
// first-class warm spare — when the heir is killed, the old drainee
// adopts the world right back.
func TestDrainedSpareAdoptsLater(t *testing.T) {
	c, err := New(Config{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	first := c.MC().ActiveServers()[0]
	if err := c.AdminDrain(first, false); err != nil {
		t.Fatal(err)
	}
	heir := c.MC().ActiveServers()[0]
	if heir == first {
		t.Fatalf("drain did not migrate ownership")
	}
	if !c.WaitUntil(convergeWithin, func() bool {
		return c.Server(heir).CheckpointTick() > 0
	}) {
		t.Fatal("heir never shipped a checkpoint")
	}
	if err := c.Kill(heir); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(convergeWithin, func() bool {
		active := c.MC().ActiveServers()
		return len(active) == 1 && active[0] == first && c.Server(first).Core().Active()
	}) {
		t.Fatalf("old drainee never adopted the world back: active=%v", c.MC().ActiveServers())
	}
}
