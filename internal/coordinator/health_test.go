package coordinator

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"matrix/internal/clock"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/protocol"
)

// newHealthMC builds a coordinator with health enabled on a virtual clock
// (1s beats, 3 misses => 3s lease).
func newHealthMC(t *testing.T) (*Coordinator, *clock.Virtual) {
	t.Helper()
	vc := clock.NewVirtual(time.Unix(1000, 0))
	c, err := New(Config{
		World:          geom.R(0, 0, 100, 100),
		HeartbeatEvery: time.Second,
		LeaseMisses:    3,
		Clock:          vc,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, vc
}

// beat delivers a heartbeat from sid, failing the test on error.
func beat(t *testing.T, c *Coordinator, sid id.ServerID) []Envelope {
	t.Helper()
	envs, err := c.HandleMessage(sid, &protocol.Heartbeat{Server: sid})
	if err != nil {
		t.Fatalf("Heartbeat(%v): %v", sid, err)
	}
	return envs
}

// shipCheckpoint uploads blob as sid's checkpoint in one final chunk.
func shipCheckpoint(t *testing.T, c *Coordinator, sid id.ServerID, blob []byte) {
	t.Helper()
	if _, err := c.HandleMessage(sid, &protocol.SnapshotData{Blob: blob, Final: true}); err != nil {
		t.Fatalf("checkpoint(%v): %v", sid, err)
	}
}

// msgsTo filters the messages addressed to sid, in order.
func msgsTo(envs []Envelope, sid id.ServerID) []protocol.Message {
	var out []protocol.Message
	for _, e := range envs {
		if e.To == sid {
			out = append(out, e.Msg)
		}
	}
	return out
}

func TestHeartbeatRenewsLease(t *testing.T) {
	c, vc := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	// Beat every second for 10 seconds: lease never expires.
	for i := 0; i < 10; i++ {
		vc.Advance(time.Second)
		beat(t, c, r1.Server)
		if envs := c.Tick(); len(envs) != 0 {
			t.Fatalf("tick %d produced %d envelopes", i, len(envs))
		}
	}
	if c.Deaths() != 0 {
		t.Errorf("Deaths = %d", c.Deaths())
	}
}

func TestLeaseExpiryAdoptsFromCheckpoint(t *testing.T) {
	c, vc := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	r2, _ := register(t, c, "b:2", 5) // spare
	beat(t, c, r2.Server)             // the spare stays alive
	blob := []byte(`{"world":"state"}`)
	shipCheckpoint(t, c, r1.Server, blob)

	// Miss more than 3 beats, keeping the spare's lease fresh.
	for i := 0; i < 4; i++ {
		vc.Advance(time.Second)
		beat(t, c, r2.Server)
	}
	envs := c.Tick()
	if c.Deaths() != 1 || c.Adoptions() != 1 {
		t.Fatalf("Deaths=%d Adoptions=%d, want 1/1", c.Deaths(), c.Adoptions())
	}

	// The spare's envelope order is the restore contract: Adopt chunks
	// carrying the victim's checkpoint, then its table, then the
	// activating RangeUpdate.
	got := msgsTo(envs, r2.Server)
	if len(got) < 3 {
		t.Fatalf("spare got %d messages, want >= 3", len(got))
	}
	adopt, ok := got[0].(*protocol.Adopt)
	if !ok {
		t.Fatalf("first message is %T, want Adopt", got[0])
	}
	if adopt.Victim != r1.Server || !adopt.Final || !bytes.Equal(adopt.Blob, blob) {
		t.Errorf("Adopt = %+v", adopt)
	}
	if !adopt.Bounds.Eq(geom.R(0, 0, 100, 100)) {
		t.Errorf("adopted bounds = %v", adopt.Bounds)
	}
	last, ok := got[len(got)-1].(*protocol.RangeUpdate)
	if !ok || !last.Bounds.Eq(adopt.Bounds) {
		t.Fatalf("last message = %#v, want activating RangeUpdate", got[len(got)-1])
	}
	sawTable := false
	for _, m := range got[1 : len(got)-1] {
		if _, ok := m.(*protocol.OverlapTable); ok {
			sawTable = true
		}
	}
	if !sawTable {
		t.Error("no OverlapTable between Adopt and RangeUpdate")
	}

	// The map now shows the spare owning the whole world.
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := c.ActiveServers(); len(got) != 1 || got[0] != r2.Server {
		t.Errorf("ActiveServers = %v", got)
	}
	// The victim's checkpoint was consumed.
	if n := c.CheckpointSize(r1.Server); n != 0 {
		t.Errorf("victim checkpoint retained (%d bytes)", n)
	}
}

func TestDisconnectDeclaresDeadImmediately(t *testing.T) {
	c, _ := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	r2, _ := register(t, c, "b:2", 5)
	envs := c.HandleDisconnect(r1.Server)
	if c.Deaths() != 1 || c.Adoptions() != 1 {
		t.Fatalf("Deaths=%d Adoptions=%d, want 1/1", c.Deaths(), c.Adoptions())
	}
	if got := msgsTo(envs, r2.Server); len(got) == 0 {
		t.Fatal("spare got no envelopes")
	}
	if _, ok := msgsTo(envs, r2.Server)[0].(*protocol.Adopt); !ok {
		t.Error("spare's first message is not Adopt")
	}
	// A second disconnect for the same server is a no-op.
	if envs := c.HandleDisconnect(r1.Server); envs != nil {
		t.Errorf("double disconnect produced %d envelopes", len(envs))
	}
}

func TestAdoptionParksWhenPoolEmpty(t *testing.T) {
	c, _ := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	if envs := c.HandleDisconnect(r1.Server); len(envs) != 0 {
		t.Fatalf("no-spare death produced %d envelopes", len(envs))
	}
	if got := c.Parked(); len(got) != 1 || got[0] != r1.Server {
		t.Fatalf("Parked = %v, want [%v]", got, r1.Server)
	}
	// The region is not lost: the map still records the dead owner.
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// A fresh spare registering adopts the parked region immediately.
	r2, envs := register(t, c, "b:2", 5)
	if len(envs) == 0 {
		t.Fatal("registration did not trigger adoption")
	}
	if _, ok := msgsTo(envs, r2.Server)[0].(*protocol.Adopt); !ok {
		t.Errorf("first message to new spare is %T, want Adopt", envs[0].Msg)
	}
	if len(c.Parked()) != 0 {
		t.Errorf("Parked = %v after adoption", c.Parked())
	}
	if got := c.ActiveServers(); len(got) != 1 || got[0] != r2.Server {
		t.Errorf("ActiveServers = %v", got)
	}
	if c.SpareCount() != 0 {
		t.Errorf("SpareCount = %d", c.SpareCount())
	}
}

// TestAdopterDeathInsideCheckpointPeriodKeepsTheBlob is the double failure:
// the victim dies, the adopter dies before its own first checkpoint upload,
// and the second adopter must still get the world the first one was handed —
// the coordinator used to drop the blob as it relayed it, so the region came
// back empty. Once the adopter has shipped a checkpoint of its own, that one
// is what a later adoption carries.
func TestAdopterDeathInsideCheckpointPeriodKeepsTheBlob(t *testing.T) {
	c, _ := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	r2, _ := register(t, c, "b:2", 5)
	r3, _ := register(t, c, "c:3", 5)
	r4, _ := register(t, c, "d:4", 5)
	blob := []byte(`{"world":"the victim's"}`)
	shipCheckpoint(t, c, r1.Server, blob)

	adoptBlob := func(envs []Envelope, to, victim id.ServerID) []byte {
		t.Helper()
		a, ok := msgsTo(envs, to)[0].(*protocol.Adopt)
		if !ok || a.Victim != victim || !a.Final {
			t.Fatalf("first message to %v is %#v, want the final Adopt chunk of %v's region", to, msgsTo(envs, to)[0], victim)
		}
		return a.Blob
	}
	if got := adoptBlob(c.HandleDisconnect(r1.Server), r2.Server, r1.Server); !bytes.Equal(got, blob) {
		t.Fatalf("first adoption carried %q, want %q", got, blob)
	}
	// The adopter dies having shipped nothing.
	if got := adoptBlob(c.HandleDisconnect(r2.Server), r3.Server, r2.Server); !bytes.Equal(got, blob) {
		t.Errorf("second adoption carried %q, want the original checkpoint %q (world lost on a double failure)", got, blob)
	}
	// The second adopter ships its own checkpoint, then dies too.
	own := []byte(`{"world":"moved on"}`)
	shipCheckpoint(t, c, r3.Server, own)
	if got := adoptBlob(c.HandleDisconnect(r3.Server), r4.Server, r3.Server); !bytes.Equal(got, own) {
		t.Errorf("third adoption carried %q, want the adopter's own upload %q", got, own)
	}
	if c.CheckpointSize(r1.Server)+c.CheckpointSize(r2.Server)+c.CheckpointSize(r3.Server) != 0 || c.CheckpointSize(r4.Server) != len(own) {
		t.Error("the blob must be on file under the current owner's ID only")
	}
}

// TestReclaimOfDeadChildIsDenied: a parent keeps the last load its dead child
// reported and may ask to fold it back in. Granting would pool a dead server
// and drop the parked region's claim on the next spare.
func TestReclaimOfDeadChildIsDenied(t *testing.T) {
	c, _ := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	r2, _ := register(t, c, "b:2", 5)
	if _, err := c.HandleMessage(r1.Server, &protocol.SplitRequest{Server: r1.Server, Clients: 400}); err != nil {
		t.Fatal(err)
	}
	c.HandleDisconnect(r2.Server) // the child dies; no spare: parked
	envs, err := c.HandleMessage(r1.Server, &protocol.ReclaimRequest{Parent: r1.Server, Child: r2.Server})
	if err != nil {
		t.Fatal(err)
	}
	if rep, ok := msgsTo(envs, r1.Server)[0].(*protocol.ReclaimReply); !ok || rep.Granted {
		t.Fatalf("reclaim of a dead child: %#v, want a denial", envs[0].Msg)
	}
	if c.SpareCount() != 0 || len(c.Parked()) != 1 {
		t.Errorf("spares=%d parked=%v, want the dead child out of the pool and its region still parked", c.SpareCount(), c.Parked())
	}
	// A live server registering still gets it.
	if _, envs := register(t, c, "c:3", 5); len(envs) == 0 || len(c.Parked()) != 0 {
		t.Error("the parked region was not adopted by the next registrant")
	}
}

// TestLeaseAtTheEpochSurvivesSnapshot: the simulator's virtual clock starts
// at the Unix epoch, so a lease granted at t=0 has UnixNano 0 — which a
// snapshot must not read back as "no lease yet" and renew at restore time.
func TestLeaseAtTheEpochSurvivesSnapshot(t *testing.T) {
	cfg := Config{World: geom.R(0, 0, 100, 100), HeartbeatEvery: time.Second, Clock: clock.NewVirtual(time.Unix(0, 0))}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := register(t, c, "a:1", 5) // lease granted at the epoch, never renewed
	st := c.CaptureState()
	if got := st.Servers[0].LastBeatUnixNano; got == nil || *got != 0 {
		t.Fatalf("captured LastBeatUnixNano = %v, want a pointer to 0", got)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	later := clock.NewVirtual(time.Unix(3, 500e6)) // restored 3.5 s in: the lease is already over
	cfg.Clock = later
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.RestoreState(&back); err != nil {
		t.Fatal(err)
	}
	c2.Tick()
	if c2.Deaths() != 1 || len(c2.Parked()) != 1 || c2.Parked()[0] != r1.Server {
		t.Errorf("after restore at t=3.5s: deaths=%d parked=%v; the lease from t=0 must have expired, not been renewed by the restore", c2.Deaths(), c2.Parked())
	}
}

func TestZombieHeartbeatDemotedAfterReplacement(t *testing.T) {
	c, _ := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	register(t, c, "b:2", 5)
	c.HandleDisconnect(r1.Server) // spare adopts

	// The "dead" server beats again: it was paused, not crashed. It must
	// be demoted — deactivating RangeUpdate with a handoff for the new
	// owner — and re-pooled as a spare.
	envs := beat(t, c, r1.Server)
	var demote *protocol.RangeUpdate
	for _, m := range msgsTo(envs, r1.Server) {
		if ru, ok := m.(*protocol.RangeUpdate); ok {
			demote = ru
		}
	}
	if demote == nil {
		t.Fatal("zombie got no RangeUpdate")
	}
	if !demote.Bounds.Empty() {
		t.Errorf("zombie bounds = %v, want empty (deactivated)", demote.Bounds)
	}
	if len(demote.Handoff) == 0 {
		t.Error("zombie demotion carries no handoff targets")
	}
	if c.SpareCount() != 1 {
		t.Errorf("SpareCount = %d, want 1 (zombie re-pooled)", c.SpareCount())
	}
}

func TestZombieHeartbeatRevivedWhileParked(t *testing.T) {
	c, vc := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	vc.Advance(10 * time.Second)
	c.Tick() // lease expires, no spare: region parks
	if len(c.Parked()) != 1 {
		t.Fatalf("Parked = %v", c.Parked())
	}
	// The owner beats again before any spare appeared: it keeps its
	// region and is resynced in place.
	envs := beat(t, c, r1.Server)
	if len(c.Parked()) != 0 {
		t.Errorf("still parked after revival: %v", c.Parked())
	}
	if got := c.ActiveServers(); len(got) != 1 || got[0] != r1.Server {
		t.Errorf("ActiveServers = %v", got)
	}
	msgs := msgsTo(envs, r1.Server)
	if len(msgs) == 0 {
		t.Fatal("revived server got no resync envelopes")
	}
	ru, ok := msgs[len(msgs)-1].(*protocol.RangeUpdate)
	if !ok || !ru.Bounds.Eq(geom.R(0, 0, 100, 100)) {
		t.Errorf("revival RangeUpdate = %#v", msgs[len(msgs)-1])
	}
}

func TestCheckpointChunksAccumulate(t *testing.T) {
	c, _ := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	if _, err := c.HandleMessage(r1.Server, &protocol.SnapshotData{Blob: []byte("part1|")}); err != nil {
		t.Fatal(err)
	}
	if n := c.CheckpointSize(r1.Server); n != 0 {
		t.Fatalf("partial upload already visible (%d bytes)", n)
	}
	if _, err := c.HandleMessage(r1.Server, &protocol.SnapshotData{Blob: []byte("part2"), Final: true}); err != nil {
		t.Fatal(err)
	}
	if n := c.CheckpointSize(r1.Server); n != len("part1|part2") {
		t.Errorf("CheckpointSize = %d", n)
	}
	// A later upload replaces the blob outright.
	shipCheckpoint(t, c, r1.Server, []byte("v2"))
	if n := c.CheckpointSize(r1.Server); n != 2 {
		t.Errorf("CheckpointSize after replace = %d", n)
	}
}

// TestCheckpointUploadIsBounded: a server that streams checkpoint chunks and
// never sets Final used to grow cpPartial without limit. The upload is now
// dropped at protocol.MaxBlobSize, counted once, and the last complete
// checkpoint stays in place; the next complete upload is accepted whole and
// is what a spare adopts.
func TestCheckpointUploadIsBounded(t *testing.T) {
	c, vc := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	r2, _ := register(t, c, "b:2", 5) // spare
	shipCheckpoint(t, c, r1.Server, []byte("v1"))

	chunk := bytes.Repeat([]byte{7}, protocol.MaxFrameSize)
	errs := 0
	for sent := 0; sent < 2*protocol.MaxBlobSize; sent += len(chunk) {
		if _, err := c.HandleMessage(r1.Server, &protocol.SnapshotData{Blob: chunk}); err != nil {
			if !errors.Is(err, protocol.ErrBlobTooLarge) {
				t.Fatal(err)
			}
			errs++
		}
		if part := c.cpPartial[r1.Server]; part.Len() > protocol.MaxBlobSize {
			t.Fatalf("partial upload grew to %d bytes", part.Len())
		}
	}
	if part := c.cpPartial[r1.Server]; part.Len() != 0 {
		t.Errorf("dropped upload still holds %d bytes", part.Len())
	}
	if errs != 1 || c.CheckpointOverflows() != 1 || c.Fleet().CheckpointOverflows != 1 {
		t.Errorf("overflow: %d errors, counter %d, /fleetz %d; want 1 each",
			errs, c.CheckpointOverflows(), c.Fleet().CheckpointOverflows)
	}
	if n := c.CheckpointSize(r1.Server); n != len("v1") {
		t.Errorf("last complete checkpoint lost: %d bytes", n)
	}

	// The dropped stream ends at its final chunk; the upload after it counts.
	if _, err := c.HandleMessage(r1.Server, &protocol.SnapshotData{Blob: []byte("tail"), Final: true}); err != nil {
		t.Fatal(err)
	}
	blob := []byte(`{"world":"v2"}`)
	if _, err := c.HandleMessage(r1.Server, &protocol.SnapshotData{Blob: blob[:5]}); err != nil {
		t.Fatal(err)
	}
	shipCheckpoint(t, c, r1.Server, blob[5:])
	beat(t, c, r2.Server)
	vc.Advance(2 * time.Second)
	beat(t, c, r2.Server)
	vc.Advance(2 * time.Second)
	beat(t, c, r2.Server)
	got := msgsTo(c.Tick(), r2.Server)
	if len(got) == 0 {
		t.Fatal("spare got nothing after the owner's lease expired")
	}
	if adopt, ok := got[0].(*protocol.Adopt); !ok || !adopt.Final || !bytes.Equal(adopt.Blob, blob) {
		t.Fatalf("spare adopts %#v, want the whole v2 checkpoint", got[0])
	}
}

func TestDrainHandsPartitionToSpare(t *testing.T) {
	c, _ := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	r2, _ := register(t, c, "b:2", 5)
	envs, err := c.Drain(r1.Server, false)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if c.Drains() != 1 {
		t.Errorf("Drains = %d", c.Drains())
	}
	// The spare is activated with the drainee's exact rectangle.
	spareMsgs := msgsTo(envs, r2.Server)
	var activated bool
	for _, m := range spareMsgs {
		if ru, ok := m.(*protocol.RangeUpdate); ok && ru.Bounds.Eq(geom.R(0, 0, 100, 100)) {
			activated = true
		}
	}
	if !activated {
		t.Error("spare never activated with the drained bounds")
	}
	// The drainee is deactivated with handoff targets, then told to drain.
	dMsgs := msgsTo(envs, r1.Server)
	if len(dMsgs) < 2 {
		t.Fatalf("drainee got %d messages", len(dMsgs))
	}
	ru, ok := dMsgs[len(dMsgs)-2].(*protocol.RangeUpdate)
	if !ok || !ru.Bounds.Empty() || len(ru.Handoff) == 0 {
		t.Errorf("drainee deactivation = %#v", dMsgs[len(dMsgs)-2])
	}
	dr, ok := dMsgs[len(dMsgs)-1].(*protocol.DrainRequest)
	if !ok || dr.Exit {
		t.Errorf("drainee final message = %#v, want DrainRequest{Exit:false}", dMsgs[len(dMsgs)-1])
	}
	// The drainee re-pooled immediately (crash-mid-drain then reads as a
	// dead spare, not a lost region).
	if c.SpareCount() != 1 {
		t.Errorf("SpareCount = %d, want 1", c.SpareCount())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Draining twice is refused.
	if _, err := c.Drain(r1.Server, false); err == nil {
		t.Error("second drain must be refused")
	}
}

func TestDrainCrashMidDrainIsDeadSpare(t *testing.T) {
	c, _ := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	register(t, c, "b:2", 5)
	if _, err := c.Drain(r1.Server, false); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The drainee dies before finishing its evacuation. Its region already
	// belongs to the spare, so the death must not park anything or adopt
	// again — it just leaves the pool.
	envs := c.HandleDisconnect(r1.Server)
	if len(envs) != 0 {
		t.Errorf("mid-drain crash produced %d envelopes", len(envs))
	}
	if c.Adoptions() != 0 {
		t.Errorf("Adoptions = %d, want 0", c.Adoptions())
	}
	if len(c.Parked()) != 0 {
		t.Errorf("Parked = %v", c.Parked())
	}
	if c.SpareCount() != 0 {
		t.Errorf("SpareCount = %d", c.SpareCount())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDrainFoldsIntoParentWhenPoolEmpty(t *testing.T) {
	c, _ := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	r2, _ := register(t, c, "b:2", 5)
	if _, err := c.HandleMessage(r1.Server, &protocol.SplitRequest{Server: r1.Server, Clients: 100}); err != nil {
		t.Fatalf("split: %v", err)
	}
	// Pool is now empty; draining the child merges it back into r1.
	envs, err := c.Drain(r2.Server, false)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	var grew bool
	for _, m := range msgsTo(envs, r1.Server) {
		if ru, ok := m.(*protocol.RangeUpdate); ok && ru.Bounds.Eq(geom.R(0, 0, 100, 100)) {
			grew = true
		}
	}
	if !grew {
		t.Error("parent never got the merged bounds")
	}
	if got := c.ActiveServers(); len(got) != 1 || got[0] != r1.Server {
		t.Errorf("ActiveServers = %v", got)
	}
	if c.SpareCount() != 1 {
		t.Errorf("SpareCount = %d", c.SpareCount())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDrainDenials(t *testing.T) {
	c, _ := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	if _, err := c.Drain(99, false); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("unknown: %v", err)
	}
	// Sole owner, no spare, not mergeable: nowhere to put the region.
	if _, err := c.Drain(r1.Server, false); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("rootless drain: %v", err)
	}
	r2, _ := register(t, c, "b:2", 5)
	// Draining an idle spare without exit is pointless.
	if _, err := c.Drain(r2.Server, false); !errors.Is(err, ErrNotActive) {
		t.Errorf("idle spare: %v", err)
	}
	// Dead servers cannot drain.
	c.HandleDisconnect(r2.Server)
	if _, err := c.Drain(r2.Server, false); err == nil {
		t.Error("dead server drain must fail")
	}
}

func TestDrainSpareWithExitRetires(t *testing.T) {
	c, _ := newHealthMC(t)
	register(t, c, "a:1", 5)
	r2, _ := register(t, c, "b:2", 5)
	envs, err := c.Drain(r2.Server, true)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	dr, ok := envs[len(envs)-1].Msg.(*protocol.DrainRequest)
	if !ok || !dr.Exit || envs[len(envs)-1].To != r2.Server {
		t.Errorf("retire envelope = %#v", envs[len(envs)-1])
	}
	if c.SpareCount() != 0 {
		t.Errorf("SpareCount = %d", c.SpareCount())
	}
	// The retired server's exit-disconnect is expected, not a death.
	if envs := c.HandleDisconnect(r2.Server); envs != nil {
		t.Errorf("retired disconnect produced envelopes")
	}
	if c.Deaths() != 0 {
		t.Errorf("Deaths = %d", c.Deaths())
	}
}

func TestServerInitiatedDrainRepliesOverWire(t *testing.T) {
	c, _ := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	register(t, c, "b:2", 5)
	envs, err := c.HandleMessage(r1.Server, &protocol.DrainRequest{Server: r1.Server})
	if err != nil {
		t.Fatalf("DrainRequest: %v", err)
	}
	reply, ok := envs[0].Msg.(*protocol.DrainReply)
	if !ok || envs[0].To != r1.Server || !reply.Granted {
		t.Fatalf("first envelope = %#v", envs[0])
	}
	// A denied drain reports the reason instead of erroring the stream.
	envs, err = c.HandleMessage(r1.Server, &protocol.DrainRequest{Server: r1.Server})
	if err != nil {
		t.Fatalf("second DrainRequest: %v", err)
	}
	reply, ok = envs[0].Msg.(*protocol.DrainReply)
	if !ok || reply.Granted || reply.Reason == "" {
		t.Fatalf("denial = %#v", envs[0].Msg)
	}
}

func TestSpareFIFOPreservedAcrossSnapshotRestore(t *testing.T) {
	c, vc := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	r2, _ := register(t, c, "b:2", 5)
	r3, _ := register(t, c, "c:3", 5)
	r4, _ := register(t, c, "d:4", 5)
	shipCheckpoint(t, c, r1.Server, []byte("cp1"))

	st := c.CaptureState()
	c2, err := New(Config{World: geom.R(0, 0, 100, 100), HeartbeatEvery: time.Second, LeaseMisses: 3, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	// FIFO order of the pool survives the round trip: a split after
	// restore must pick r2, then r3, then r4.
	want := []id.ServerID{r2.Server, r3.Server, r4.Server}
	for i, sid := range want {
		envs, err := c2.HandleMessage(c2.ActiveServers()[0], &protocol.SplitRequest{Clients: 100})
		if err != nil {
			t.Fatalf("split %d: %v", i, err)
		}
		sr := envs[0].Msg.(*protocol.SplitReply)
		if !sr.Granted || sr.Child != sid {
			t.Fatalf("split %d granted=%v child=%v, want %v", i, sr.Granted, sr.Child, sid)
		}
	}
	// The checkpoint blob came through too.
	if n := c2.CheckpointSize(r1.Server); n != 3 {
		t.Errorf("restored checkpoint size = %d", n)
	}
}

func TestParkedFIFOPreservedAcrossSnapshotRestore(t *testing.T) {
	c, vc := newHealthMC(t)
	r1, _ := register(t, c, "a:1", 5)
	r2, _ := register(t, c, "b:2", 5)
	// Split so both own regions, then kill both with an empty pool.
	if _, err := c.HandleMessage(r1.Server, &protocol.SplitRequest{Clients: 100}); err != nil {
		t.Fatal(err)
	}
	c.HandleDisconnect(r1.Server)
	c.HandleDisconnect(r2.Server)
	if got := c.Parked(); len(got) != 2 || got[0] != r1.Server || got[1] != r2.Server {
		t.Fatalf("Parked = %v", got)
	}

	st := c.CaptureState()
	c2, err := New(Config{World: geom.R(0, 0, 100, 100), HeartbeatEvery: time.Second, LeaseMisses: 3, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if got := c2.Parked(); len(got) != 2 || got[0] != r1.Server || got[1] != r2.Server {
		t.Fatalf("restored Parked = %v", got)
	}
	// New spares adopt in park order: r1's region first.
	r5, envs := register(t, c2, "e:5", 5)
	adopt, ok := msgsTo(envs, r5.Server)[0].(*protocol.Adopt)
	if !ok || adopt.Victim != r1.Server {
		t.Fatalf("first adoption = %#v, want victim %v", envs[0].Msg, r1.Server)
	}
	if got := c2.Parked(); len(got) != 1 || got[0] != r2.Server {
		t.Errorf("Parked after first adoption = %v", got)
	}
}

func TestHealthDisabledIsInert(t *testing.T) {
	c := newTestMC(t) // no HeartbeatEvery
	r1, _ := register(t, c, "a:1", 5)
	register(t, c, "b:2", 5)
	// Heartbeats are tolerated but change nothing.
	if envs := beat(t, c, r1.Server); len(envs) != 0 {
		t.Errorf("heartbeat produced %d envelopes", len(envs))
	}
	if envs := c.Tick(); envs != nil {
		t.Errorf("Tick produced envelopes with health disabled")
	}
	if envs := c.HandleDisconnect(r1.Server); envs != nil {
		t.Errorf("HandleDisconnect produced envelopes with health disabled")
	}
	if _, err := c.Drain(r1.Server, false); err == nil {
		t.Error("Drain must be refused with health disabled")
	}
	if got := c.ActiveServers(); len(got) != 1 || got[0] != r1.Server {
		t.Errorf("ActiveServers = %v", got)
	}
}

// TestSnapshotOmitsHealthFieldsWhenDisabled pins the wire/golden stability
// contract: a health-disabled coordinator's JSON snapshot must not mention
// any health field, so pre-health golden snapshots stay byte-identical.
func TestSnapshotOmitsHealthFieldsWhenDisabled(t *testing.T) {
	c := newTestMC(t)
	register(t, c, "a:1", 5)
	register(t, c, "b:2", 5)
	blob, err := json.Marshal(c.CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"Deaths", "Adoptions", "Drains", "Parked", "Checkpoints", "Beats", "LastBeatUnixNano", "Dead", "Draining", "Retired"} {
		if bytes.Contains(blob, []byte(`"`+field+`"`)) {
			t.Errorf("disabled-health snapshot leaks field %q", field)
		}
	}
}

func TestNewRejectsNegativeHealthConfig(t *testing.T) {
	if _, err := New(Config{World: geom.R(0, 0, 1, 1), HeartbeatEvery: -time.Second}); err == nil {
		t.Error("negative heartbeat interval must be rejected")
	}
	if _, err := New(Config{World: geom.R(0, 0, 1, 1), LeaseMisses: -1}); err == nil {
		t.Error("negative lease misses must be rejected")
	}
}
