package snapshot

import (
	"encoding/json"
	"testing"

	"matrix/internal/gameserver"
	"matrix/internal/geom"
	"matrix/internal/nodeblob"
	"matrix/internal/sim"
)

// FuzzDecodeNode feeds arbitrary bytes to the node-blob decoder
// (internal/nodeblob) — what a matrix-server runs on -restore files and, live
// or simulated, on the Adopt stream a coordinator relays. Whatever the bytes,
// Decode returns a complete node of its format version or an error, never
// panics; and a blob it accepts loads into a fresh game server (or is
// refused) the way a spare adopting it would. The target stayed in this
// package when the codec moved below sim — its id and corpus are what CI and
// the tests-at-floor list name. The hand-written seeds are in
// testdata/fuzz/FuzzDecodeNode; the one added here is a real node out of a
// short run.
func FuzzDecodeNode(f *testing.F) {
	cfg := tinyConfig(3)
	cfg.BasePopulation, cfg.Script = 3, nil // a small seed: the mutator minimizes what it keeps
	s, err := sim.New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Start(); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Step(); err != nil {
			f.Fatal(err)
		}
	}
	st, err := s.CaptureState()
	if err != nil {
		f.Fatal(err)
	}
	real, err := json.Marshal(nodeblob.Blob{Version: nodeblob.Version, Core: st.Nodes[0].Core, Game: st.Nodes[0].Game})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Fuzz(func(t *testing.T, blob []byte) {
		n, err := nodeblob.Decode(blob)
		if err != nil {
			return
		}
		if n.Version != nodeblob.Version || n.Core == nil || n.Game == nil {
			t.Fatalf("accepted an incomplete node: version %d, core %v, game %v", n.Version, n.Core != nil, n.Game != nil)
		}
		gs, err := gameserver.New(gameserver.Config{Server: 9, Bounds: geom.R(0, 0, 400, 400), Radius: 40})
		if err != nil {
			t.Fatal(err)
		}
		if err := nodeblob.RestoreGame(blob, gs); err == nil && gs.ClientCount() > len(n.Game.Clients) {
			t.Fatalf("restored %d clients from a blob carrying %d", gs.ClientCount(), len(n.Game.Clients))
		}
	})
}
