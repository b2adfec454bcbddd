package overlap

import (
	"math/rand"
	"slices"
	"testing"

	"matrix/internal/geom"
)

func TestReconstructMatchesOriginal(t *testing.T) {
	for _, seed := range []int64{11, 22, 33} {
		parts := randomPartitions(t, 9, seed)
		const r = 15.0
		tabs, err := BuildAll(parts, r, 4)
		if err != nil {
			t.Fatal(err)
		}
		rnd := rand.New(rand.NewSource(seed))
		for owner, orig := range tabs {
			rebuilt, err := NewTableFromRegions(owner, orig.Bounds(), orig.Version(), orig.Regions())
			if err != nil {
				t.Fatalf("reconstruct %v: %v", owner, err)
			}
			if rebuilt.Bounds() != orig.Bounds() || rebuilt.Version() != orig.Version() {
				t.Fatal("metadata mismatch")
			}
			if rebuilt.OverlapArea() != orig.OverlapArea() {
				t.Fatalf("OverlapArea %v != %v", rebuilt.OverlapArea(), orig.OverlapArea())
			}
			// Lookups must agree everywhere in the partition.
			b := orig.Bounds()
			for i := 0; i < 1000; i++ {
				p := geom.Pt(
					b.MinX+rnd.Float64()*b.Width(),
					b.MinY+rnd.Float64()*b.Height(),
				)
				if got, want := rebuilt.Lookup(p), orig.Lookup(p); !slices.Equal(got, want) {
					t.Fatalf("owner %v point %v: rebuilt %v, original %v", owner, p, got, want)
				}
			}
		}
	}
}

func TestReconstructValidation(t *testing.T) {
	if _, err := NewTableFromRegions(1, geom.Rect{}, 1, nil); err == nil {
		t.Error("empty bounds must fail")
	}
	// Region escaping bounds.
	regions := []Region{{Bounds: geom.R(0, 0, 20, 20), Peers: NewSet(2)}}
	if _, err := NewTableFromRegions(1, geom.R(0, 0, 10, 10), 1, regions); err == nil {
		t.Error("escaping region must fail")
	}
	// Empty region rect.
	regions = []Region{{Bounds: geom.Rect{}, Peers: NewSet(2)}}
	if _, err := NewTableFromRegions(1, geom.R(0, 0, 10, 10), 1, regions); err == nil {
		t.Error("empty region must fail")
	}
}

func TestReconstructEmptyRegionList(t *testing.T) {
	tab, err := NewTableFromRegions(1, geom.R(0, 0, 10, 10), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Lookup(geom.Pt(5, 5)); got != nil {
		t.Errorf("Lookup = %v, want nil", got)
	}
	if tab.OverlapArea() != 0 {
		t.Error("no regions means zero overlap area")
	}
}

func TestReconstructDoesNotAliasInput(t *testing.T) {
	regions := []Region{{Bounds: geom.R(0, 0, 5, 10), Peers: NewSet(2, 3)}}
	tab, err := NewTableFromRegions(1, geom.R(0, 0, 10, 10), 1, regions)
	if err != nil {
		t.Fatal(err)
	}
	regions[0].Peers[0] = 99
	if got := tab.Lookup(geom.Pt(1, 1)); !slices.Equal(got, NewSet(2, 3)) {
		t.Errorf("table aliased caller's peer slice: %v", got)
	}
}
