package nodeblob

import (
	"errors"
	"strings"
	"testing"

	"matrix/internal/core"
	"matrix/internal/gameserver"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/protocol"
)

// pair builds a Matrix server + game server owning the whole world.
func pair(t *testing.T, sid id.ServerID) (*core.Server, *gameserver.Server) {
	t.Helper()
	world := geom.R(0, 0, 100, 100)
	c, err := core.NewServer(core.Config{}, &protocol.RegisterReply{Server: sid, Bounds: world, World: world}, 10)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gameserver.New(gameserver.Config{Server: sid, Bounds: world, Radius: 10})
	if err != nil {
		t.Fatal(err)
	}
	return c, g
}

func join(t *testing.T, g *gameserver.Server, c id.ClientID) {
	t.Helper()
	if err := g.Enqueue(&protocol.ClientHello{Client: c, Pos: geom.Pt(float64(c), 5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Process(0); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptTakesTheWorldNotTheIdentity: what a spare restores from a victim's
// blob is the avatars and objects; its bounds, its queue and its own traffic
// counters stay its own.
func TestAdoptTakesTheWorldNotTheIdentity(t *testing.T) {
	vc, vg := pair(t, 1)
	join(t, vg, 7)
	join(t, vg, 8)
	vg.AddObject(protocol.ObjectState{Object: 3, Pos: geom.Pt(1, 1), Payload: []byte("tree")})
	blob, err := Marshal(vc, vg)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := Marshal(vc, vg); string(again) != string(blob) {
		t.Error("marshalling the same pair twice is not byte-identical")
	}

	_, ag := pair(t, 2)
	join(t, ag, 99) // the adopter's own history: one join processed
	before := ag.Stats()
	if err := RestoreGame(blob, ag); err != nil {
		t.Fatal(err)
	}
	if _, ok := ag.ClientPos(7); !ok || ag.ClientCount() != 2 || ag.ObjectCount() != 1 {
		t.Errorf("adopter holds %d clients, %d objects; want the victim's two avatars and one object", ag.ClientCount(), ag.ObjectCount())
	}
	after := ag.Stats()
	if after.Processed != before.Processed || after.JoinsAccepted != before.JoinsAccepted {
		t.Errorf("adopter's counters moved to the victim's: %+v, had %+v", after, before)
	}

	n, err := Decode(blob)
	if err != nil || n.Core.ID != 1 || len(n.Game.Clients) != 2 {
		t.Errorf("Decode = %+v, %v", n, err)
	}
}

func TestBlobRefusals(t *testing.T) {
	if _, err := Decode([]byte(`{"Version":99,"Core":{},"Game":{}}`)); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: err = %v, want ErrVersion", err)
	}
	if _, err := Decode([]byte(`{"Version":1,"Core":{}}`)); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("blob without a game section: err = %v", err)
	}
	c, g := pair(t, 1)
	g.AddObject(protocol.ObjectState{Object: 1, Payload: make([]byte, protocol.MaxBlobSize*3/4+1)})
	if _, err := Checkpoint(c, g); !errors.Is(err, ErrOversize) {
		t.Errorf("checkpoint over MaxBlobSize: err = %v, want ErrOversize", err)
	}
	if blob, err := Marshal(c, g); err != nil || len(blob) <= protocol.MaxBlobSize {
		t.Errorf("Marshal (a dump has no size limit) = %d bytes, %v", len(blob), err)
	}
}
