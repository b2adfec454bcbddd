package overlap

import (
	"math/rand"
	"slices"
	"testing"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/space"
)

// twoPartitions builds the canonical two-server world: server 2 owns the
// left half [0,50), server 1 the right half [50,100) of a 100x100 world.
func twoPartitions() []space.Partition {
	return []space.Partition{
		{Owner: 1, Bounds: geom.R(50, 0, 100, 100)},
		{Owner: 2, Bounds: geom.R(0, 0, 50, 100)},
	}
}

func TestConsistencySetTwoServers(t *testing.T) {
	parts := twoPartitions()
	const r = 5
	tests := []struct {
		name  string
		p     geom.Point
		owner id.ServerID
		want  Set
	}{
		{"interior-right", geom.Pt(80, 50), 1, nil},
		{"near-boundary-right", geom.Pt(52, 50), 1, NewSet(2)},
		{"at-boundary", geom.Pt(50, 50), 1, NewSet(2)},
		{"interior-left", geom.Pt(20, 50), 2, nil},
		{"near-boundary-left", geom.Pt(47, 50), 2, NewSet(1)},
		{"exactly-r-away", geom.Pt(55, 50), 1, NewSet(2)},
		{"just-past-r", geom.Pt(55.001, 50), 1, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := ConsistencySet(tt.p, tt.owner, parts, r)
			if !slices.Equal(got, tt.want) {
				t.Fatalf("C(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestConsistencySetInfiniteRadiusIsGlobal(t *testing.T) {
	// "If R is infinite, all updates must be globally propagated" (§3.1).
	parts := twoPartitions()
	got := ConsistencySet(geom.Pt(80, 50), 1, parts, 1e18)
	if !slices.Equal(got, NewSet(2)) {
		t.Fatalf("C = %v, want all other servers", got)
	}
}

func TestBuildTableTwoServersBand(t *testing.T) {
	parts := twoPartitions()
	const r = 5.0
	tab, err := BuildTable(1, parts, r, 7)
	if err != nil {
		t.Fatalf("BuildTable: %v", err)
	}
	if tab.Bounds() != parts[0].Bounds || tab.Version() != 7 {
		t.Errorf("metadata: bounds=%v version=%d", tab.Bounds(), tab.Version())
	}
	// The overlap area must be exactly the r-wide band along the shared
	// edge: r * world height.
	if got, want := tab.OverlapArea(), r*100.0; got != want {
		t.Errorf("OverlapArea = %v, want %v", got, want)
	}
	regions := tab.Regions()
	if len(regions) != 1 {
		t.Fatalf("got %d regions, want 1 band: %+v", len(regions), regions)
	}
	if !regions[0].Bounds.Eq(geom.R(50, 0, 55, 100)) {
		t.Errorf("band = %v", regions[0].Bounds)
	}
	if !slices.Equal(regions[0].Peers, NewSet(2)) {
		t.Errorf("band peers = %v", regions[0].Peers)
	}
}

func TestTableLookupTwoServers(t *testing.T) {
	parts := twoPartitions()
	tab, err := BuildTable(1, parts, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		p    geom.Point
		want Set
	}{
		{geom.Pt(80, 50), nil},       // deep interior
		{geom.Pt(52, 10), NewSet(2)}, // inside band
		{geom.Pt(50, 0), NewSet(2)},  // band min corner
		{geom.Pt(54.999, 99), NewSet(2)},
		{geom.Pt(55, 50), nil}, // band max edge is exclusive
		{geom.Pt(20, 50), nil}, // not our partition at all
		{geom.Pt(-1, -1), nil}, // outside world
	}
	for _, tt := range tests {
		if got := tab.Lookup(tt.p); !slices.Equal(got, tt.want) {
			t.Errorf("Lookup(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestZeroRadiusMeansNoOverlap(t *testing.T) {
	parts := twoPartitions()
	tab, err := BuildTable(1, parts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With R=0 the expansion adds nothing; the clip of the neighbour
	// against our half-open partition is a zero-width rect => no regions.
	if got := tab.OverlapArea(); got != 0 {
		t.Errorf("OverlapArea = %v, want 0", got)
	}
	if got := tab.Lookup(geom.Pt(50, 50)); got != nil {
		t.Errorf("Lookup on boundary with R=0 = %v, want nil", got)
	}
}

func TestBuildTableErrors(t *testing.T) {
	parts := twoPartitions()
	if _, err := BuildTable(9, parts, 5, 1); err == nil {
		t.Error("unknown owner must fail")
	}
	if _, err := BuildTable(1, parts, -1, 1); err == nil {
		t.Error("negative radius must fail")
	}
}

func TestBuildAll(t *testing.T) {
	parts := twoPartitions()
	tabs, err := BuildAll(parts, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("got %d tables", len(tabs))
	}
	for owner, tab := range tabs {
		if tab.Bounds() != parts[owner-1].Bounds {
			t.Errorf("table keyed %v covers %v, want that server's partition %v", owner, tab.Bounds(), parts[owner-1].Bounds)
		}
		if tab.Version() != 3 {
			t.Errorf("version = %d", tab.Version())
		}
	}
}

func TestFourQuadrantsCornerSet(t *testing.T) {
	// Four quadrants: a point near the center of the world sees all three
	// other servers — the paper's Figure 1(a) three-server overlap.
	parts := []space.Partition{
		{Owner: 1, Bounds: geom.R(50, 50, 100, 100)}, // NE
		{Owner: 2, Bounds: geom.R(0, 50, 50, 100)},   // NW
		{Owner: 3, Bounds: geom.R(0, 0, 50, 50)},     // SW
		{Owner: 4, Bounds: geom.R(50, 0, 100, 50)},   // SE
	}
	tab, err := BuildTable(1, parts, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Just inside NE's min corner: all three peers.
	if got := tab.Lookup(geom.Pt(51, 51)); !slices.Equal(got, NewSet(2, 3, 4)) {
		t.Errorf("corner Lookup = %v, want {2,3,4}", got)
	}
	// On the west band but north of the corner zone: only NW.
	if got := tab.Lookup(geom.Pt(51, 80)); !slices.Equal(got, NewSet(2)) {
		t.Errorf("west band Lookup = %v, want {2}", got)
	}
	// South band east of corner zone: only SE.
	if got := tab.Lookup(geom.Pt(80, 51)); !slices.Equal(got, NewSet(4)) {
		t.Errorf("south band Lookup = %v, want {4}", got)
	}
	// Deep interior: empty.
	if got := tab.Lookup(geom.Pt(90, 90)); got != nil {
		t.Errorf("interior Lookup = %v, want nil", got)
	}
	// Overlap area: west band (5x50) + south band (50x5) - double-counted
	// 5x5 corner counted once each set; total covered area = 5*50 + 5*50 - 25.
	want := 5.0*50 + 5.0*50 - 25
	if got := tab.OverlapArea(); got != want {
		t.Errorf("OverlapArea = %v, want %v", got, want)
	}
}

func TestRegionsDisjointAndConsistentWithLookup(t *testing.T) {
	parts := randomPartitions(t, 12, 99)
	tabs, err := BuildAll(parts, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for owner, tab := range tabs {
		regions := tab.Regions()
		for i := range regions {
			if regions[i].Bounds.Empty() {
				t.Fatalf("empty region in table of %v", owner)
			}
			if len(regions[i].Peers) == 0 {
				t.Fatalf("region with empty peer set in table of %v", owner)
			}
			for j := i + 1; j < len(regions); j++ {
				if regions[i].Bounds.Intersects(regions[j].Bounds) {
					t.Fatalf("regions %d and %d of %v overlap", i, j, owner)
				}
			}
			// A point inside the region must look up to the same set.
			c := regions[i].Bounds.Center()
			if got := tab.Lookup(c); !slices.Equal(got, regions[i].Peers) {
				t.Fatalf("Lookup(%v) = %v, region says %v", c, got, regions[i].Peers)
			}
		}
	}
}

// randomPartitions drives the space fuzzer to produce a realistic dynamic
// partitioning with n servers.
func randomPartitions(t *testing.T, n int, seed int64) []space.Partition {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	m, err := space.NewMap(geom.R(0, 0, 1000, 1000), 1)
	if err != nil {
		t.Fatal(err)
	}
	var gen id.Generator
	gen.NextServer()
	live := []id.ServerID{1}
	for len(live) < n {
		victim := live[rnd.Intn(len(live))]
		child := gen.NextServer()
		if _, _, err := m.Split(victim, child, space.SplitToLeft{}); err != nil {
			t.Fatal(err)
		}
		live = append(live, child)
	}
	return m.Partitions()
}

// TestTableIsConservativeSupersetOfExact verifies the key correctness
// property: the AABB-based table never returns fewer servers than the exact
// Euclidean consistency set (Equation 1). It may return slightly more near
// corners; that costs bandwidth, never consistency.
func TestTableIsConservativeSupersetOfExact(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		parts := randomPartitions(t, 10, seed)
		const r = 12.5
		tabs, err := BuildAll(parts, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		rnd := rand.New(rand.NewSource(seed * 100))
		for i := 0; i < 3000; i++ {
			p := geom.Pt(rnd.Float64()*1000, rnd.Float64()*1000)
			var owner id.ServerID
			for _, part := range parts {
				if part.Bounds.Contains(p) {
					owner = part.Owner
					break
				}
			}
			if !owner.Valid() {
				continue // on a max edge of the world
			}
			exact := ConsistencySet(p, owner, parts, r)
			table := tabs[owner].Lookup(p)
			if !subsetOf(exact, table) {
				t.Fatalf("seed %d point %v owner %v: exact %v ⊄ table %v",
					seed, p, owner, exact, table)
			}
			// And the table itself must match the AABB ground truth
			// exactly: peer listed iff its R-expansion contains p.
			for _, part := range parts {
				if part.Owner == owner {
					continue
				}
				inExp := part.Bounds.Expand(r).Contains(p)
				if inExp != slices.Contains(table, part.Owner) {
					t.Fatalf("seed %d point %v: AABB says %v for peer %v, table says %v",
						seed, p, inExp, part.Owner, slices.Contains(table, part.Owner))
				}
			}
		}
	}
}

func TestTableLookupNoAlloc(t *testing.T) {
	parts := randomPartitions(t, 8, 5)
	tab, err := BuildTable(1, parts, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := tab.Bounds(), 0
	p := b.Center()
	allocs := testing.AllocsPerRun(100, func() {
		_ = tab.Lookup(p)
	})
	if allocs != 0 {
		t.Errorf("Lookup allocates %v per run, want 0", allocs)
	}
}

func TestSingleServerNoRegions(t *testing.T) {
	parts := []space.Partition{{Owner: 1, Bounds: geom.R(0, 0, 100, 100)}}
	tab, err := BuildTable(1, parts, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Regions()) != 0 {
		t.Errorf("single server should have no overlap regions, got %d", len(tab.Regions()))
	}
	if got := tab.Lookup(geom.Pt(1, 1)); got != nil {
		t.Errorf("Lookup = %v, want nil", got)
	}
}
