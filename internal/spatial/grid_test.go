package spatial

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"matrix/internal/geom"
	"matrix/internal/id"
)

func TestInsertQueryBasics(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(5, 5))
	g.Insert(2, geom.Pt(50, 50))
	g.Insert(3, geom.Pt(7, 5))
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	got := g.QueryCircle(geom.Pt(5, 5), 3, nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("QueryCircle = %v", got)
	}
	// Inclusive boundary.
	got = g.QueryCircle(geom.Pt(5, 5), 2, nil)
	if len(got) != 2 {
		t.Fatalf("inclusive boundary: %v", got)
	}
	got = g.QueryCircle(geom.Pt(5, 5), 1.999, nil)
	if len(got) != 1 {
		t.Fatalf("exclusive: %v", got)
	}
}

func TestMoveAcrossCells(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(5, 5))
	g.Insert(1, geom.Pt(95, 95)) // move far away
	if g.Len() != 1 {
		t.Fatalf("Len = %d after move", g.Len())
	}
	if got := g.QueryCircle(geom.Pt(5, 5), 5, nil); len(got) != 0 {
		t.Fatalf("old cell still occupied: %v", got)
	}
	if got := g.QueryCircle(geom.Pt(95, 95), 1, nil); len(got) != 1 {
		t.Fatalf("new cell empty: %v", got)
	}
	if p, ok := g.pos[1]; !ok || p != geom.Pt(95, 95) {
		t.Fatalf("stored position = %v,%v", p, ok)
	}
}

func TestMoveWithinCell(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(5, 5))
	g.Insert(1, geom.Pt(6, 6))
	if got := g.QueryCircle(geom.Pt(6, 6), 0.5, nil); len(got) != 1 {
		t.Fatalf("in-cell move lost: %v", got)
	}
	if p := g.pos[1]; p != geom.Pt(6, 6) {
		t.Fatalf("stored position = %v", p)
	}
}

func TestRemove(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(5, 5))
	g.Remove(1)
	g.Remove(99) // unknown: no-op
	if g.Len() != 0 {
		t.Fatalf("Len = %d", g.Len())
	}
	if _, ok := g.pos[1]; ok {
		t.Fatal("removed entity still has position")
	}
	if got := g.QueryCircle(geom.Pt(5, 5), 10, nil); len(got) != 0 {
		t.Fatalf("removed entity still found: %v", got)
	}
}

func TestQueryRect(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(5, 5))
	g.Insert(2, geom.Pt(15, 5))
	g.Insert(3, geom.Pt(10, 5)) // on boundary: half-open => belongs to [10,20)
	r := geom.R(0, 0, 10, 10)
	out := g.QueryOutsideRect(r, nil)
	if len(out) != 2 || out[0] != 2 || out[1] != 3 {
		t.Fatalf("QueryOutsideRect = %v", out)
	}
	if got := g.QueryOutsideRect(geom.Rect{}, nil); len(got) != 3 {
		t.Fatalf("everything is outside the empty rect, got %v", got)
	}
}

func TestNegativeCoordinates(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(-5, -5))
	g.Insert(2, geom.Pt(-15, -15))
	got := g.QueryCircle(geom.Pt(-5, -5), 1, nil)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("negative coords: %v", got)
	}
}

func TestNegativeRadius(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(0, 0))
	if got := g.QueryCircle(geom.Pt(0, 0), -1, nil); len(got) != 0 {
		t.Fatalf("negative radius: %v", got)
	}
}

func TestDefaultCellSize(t *testing.T) {
	g := NewGrid[int](0)
	g.Insert(1, geom.Pt(0.5, 0.5))
	if got := g.QueryCircle(geom.Pt(0, 0), 1, nil); len(got) != 1 {
		t.Fatalf("default cell: %v", got)
	}
}

// TestGridMatchesBruteForce cross-checks grid queries against a linear scan
// over randomized positions, cell sizes and radii.
func TestGridMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		cell := []float64{1, 5, 10, 33}[rnd.Intn(4)]
		g := NewGrid[int](cell)
		type ent struct {
			k int
			p geom.Point
		}
		var ents []ent
		for i := 0; i < 200; i++ {
			p := geom.Pt(rnd.Float64()*200-100, rnd.Float64()*200-100)
			g.Insert(i, p)
			ents = append(ents, ent{i, p})
		}
		// Random moves.
		for i := 0; i < 50; i++ {
			k := rnd.Intn(200)
			p := geom.Pt(rnd.Float64()*200-100, rnd.Float64()*200-100)
			g.Insert(k, p)
			ents[k].p = p
		}
		// Random removals.
		removed := map[int]bool{}
		for i := 0; i < 20; i++ {
			k := rnd.Intn(200)
			g.Remove(k)
			removed[k] = true
		}
		for q := 0; q < 20; q++ {
			center := geom.Pt(rnd.Float64()*200-100, rnd.Float64()*200-100)
			radius := rnd.Float64() * 50
			want := map[int]bool{}
			for _, e := range ents {
				if removed[e.k] {
					continue
				}
				dx, dy := e.p.X-center.X, e.p.Y-center.Y
				if dx*dx+dy*dy <= radius*radius {
					want[e.k] = true
				}
			}
			got := g.QueryCircle(center, radius, nil)
			if len(got) != len(want) {
				t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
			}
			for _, k := range got {
				if !want[k] {
					t.Fatalf("trial %d: unexpected %d in result", trial, k)
				}
			}
		}
	}
}

func TestQueryReusesDst(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(0, 0))
	buf := make([]int, 0, 8)
	got := g.QueryCircle(geom.Pt(0, 0), 1, buf)
	if len(got) != 1 {
		t.Fatal("query failed")
	}
	if cap(got) != cap(buf) {
		t.Error("dst not reused")
	}
}

// model is the plain-map reference the property test and the fuzzer compare
// the grid against.
type model[K Key] map[K]geom.Point

func within(p, c geom.Point, dist float64) bool {
	dx, dy := p.X-c.X, p.Y-c.Y
	return dx*dx+dy*dy <= dist*dist
}

func (m model[K]) discs(a, b geom.Point, dist float64) []K {
	var out []K
	for k, p := range m {
		if within(p, a, dist) || within(p, b, dist) {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// checkAgainst holds the grid to the model: same population, and the
// two-disc query returns exactly the union, ascending, each key once.
func checkAgainst[K Key](t *testing.T, g *Grid[K], m model[K], a, b geom.Point, dist float64) {
	t.Helper()
	if g.Len() != len(m) {
		t.Fatalf("Len = %d, model has %d", g.Len(), len(m))
	}
	got := g.QueryDiscs(a, b, dist, nil)
	if want := m.discs(a, b, dist); !slices.Equal(got, want) {
		t.Fatalf("QueryDiscs(%v, %v, %v) = %v, want %v", a, b, dist, got, want)
	}
	if one := g.QueryCircle(a, dist, nil); !slices.Equal(one, m.discs(a, a, dist)) {
		t.Fatalf("QueryCircle(%v, %v) = %v, want %v", a, dist, one, m.discs(a, a, dist))
	}
}

// stride spreads keys further apart than the bitmap rule allows: h ≥ 2 hits
// k·stride span at least 2(h−1)+1 > h words, so they are merged.
const stride = 131

// TestQueryDiscsMatchesBruteForce drives random insert / move-across-cells /
// move-within-cell / remove traffic over negative and positive coordinates
// and checks the two-disc query against a linear scan for coincident,
// overlapping and far-apart discs. The same traffic runs over dense keys
// (ordered by the bitmap), keys spread by a stride, negative keys and
// int64 extremes and callsigns near 2⁶⁴−1, so both orderings stay
// exercised; bitmap says whether any grid must have used the dense path.
func TestQueryDiscsMatchesBruteForce(t *testing.T) {
	t.Run("dense", func(t *testing.T) { bruteForce(t, func(k int) int { return k }, true) })
	t.Run("negative", func(t *testing.T) { bruteForce(t, func(k int) int { return k - 75 }, true) })
	t.Run("stride", func(t *testing.T) { bruteForce(t, func(k int) int { return k * stride }, false) })
	t.Run("negative-stride", func(t *testing.T) { bruteForce(t, func(k int) int { return -k * stride }, false) })
	t.Run("int64-extremes", func(t *testing.T) {
		// Hits at both ends span every word; hits at one end are dense.
		bruteForce(t, func(k int) int { return [2]int{math.MinInt64 + k, math.MaxInt64 - k}[k%2] }, true)
	})
	t.Run("callsigns-near-max", func(t *testing.T) {
		bruteForce(t, func(k int) id.ClientID { return math.MaxUint64 - id.ClientID(k) }, true)
	})
	t.Run("callsigns-mixed", func(t *testing.T) {
		// A few far-off callsigns among dense ones: a query takes the
		// bitmap or the merge depending on whether one of them is a hit.
		bruteForce(t, func(k int) id.ClientID {
			if k%16 == 0 {
				return math.MaxUint64 - id.ClientID(k)
			}
			return id.ClientID(k + 1)
		}, true)
	})
}

func bruteForce[K Key](t *testing.T, key func(int) K, bitmap bool) {
	rnd := rand.New(rand.NewSource(13))
	pt := func() geom.Point { return geom.Pt(rnd.Float64()*200-100, rnd.Float64()*200-100) }
	used := false
	for trial := 0; trial < 40; trial++ {
		cell := []float64{1, 5, 10, 33}[rnd.Intn(4)]
		g, m := NewGrid[K](cell), model[K]{}
		for op := 0; op < 600; op++ {
			k := key(rnd.Intn(150))
			switch old, ok := m[k]; {
			case rnd.Intn(5) == 0:
				g.Remove(k)
				delete(m, k)
			case ok && rnd.Intn(2) == 0: // nudge: mostly stays in its cell
				p := geom.Pt(old.X+rnd.Float64()*cell/4, old.Y-rnd.Float64()*cell/4)
				g.Insert(k, p)
				m[k] = p
			default:
				p := pt()
				g.Insert(k, p)
				m[k] = p
			}
			if op%20 != 0 {
				continue
			}
			a, dist := pt(), rnd.Float64()*40
			b := a
			switch rnd.Intn(3) {
			case 1: // overlapping discs, as a move produces
				b = geom.Pt(a.X+rnd.Float64()*dist, a.Y-rnd.Float64()*dist)
			case 2:
				b = pt()
			}
			checkAgainst(t, g, m, a, b, dist)
		}
		used = used || g.bitmap != nil
	}
	if used != bitmap {
		t.Fatalf("bitmap ordering used = %v, want %v", used, bitmap)
	}
}

// TestQueryOrdersSignedKeysByOffset fills a grid with every int8 key in one
// cell: the dense rule holds, and the offsets k−lo reach 255, which only
// uint64 arithmetic holds (in int8, 127−(−128) wraps to −1).
func TestQueryOrdersSignedKeysByOffset(t *testing.T) {
	g := NewGrid[int8](10)
	var want []int8
	for k := math.MaxInt8; k >= math.MinInt8; k-- {
		g.Insert(int8(k), geom.Pt(float64(k&7), 5)) // eight cells' worth of runs
		want = append(want, int8(k))
	}
	slices.Sort(want)
	g2 := NewGrid[int8](1)
	for _, k := range want {
		g2.Insert(k, geom.Pt(float64(k&7), 5))
	}
	for _, g := range []*Grid[int8]{g, g2} {
		if got := g.QueryCircle(geom.Pt(4, 5), 10, nil); !slices.Equal(got, want) {
			t.Fatalf("cell %v: got %v, want every int8 ascending", g.cell, got)
		}
	}
	if g2.bitmap == nil {
		t.Fatal("256 dense hits over eight runs were not ordered by the bitmap")
	}
}

// TestQueryWorkBoundedByDiscs pins the bound a hostile update must not
// break: Origin and Dest come off the wire, and however far apart they are
// the query looks at the cells under the two discs, never the cells between
// them. NaN and infinite centres neither panic nor loop, and match nothing;
// a huge radius looks at no more than the cells ever occupied.
func TestQueryWorkBoundedByDiscs(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(5, 5))
	g.Insert(2, geom.Pt(1e9, -1e9))
	g.Insert(3, geom.Pt(1e300, 1e300)) // beyond the last cell: clamped, still exact
	const perDisc = 9                  // dist == cell: at most 3×3 cells under a disc
	cases := []struct {
		name string
		a, b geom.Point
		want []int
	}{
		{"teleport", geom.Pt(5, 5), geom.Pt(1e9, -1e9), []int{1, 2}},
		{"teleport past the last cell", geom.Pt(1e300, 1e300), geom.Pt(-1e300, 5), []int{3}},
		{"overlap", geom.Pt(5, 5), geom.Pt(12, 12), []int{1}},
		{"NaN origin", geom.Pt(math.NaN(), 5), geom.Pt(5, 5), []int{1}},
		{"NaN both", geom.Pt(math.NaN(), math.NaN()), geom.Pt(5, math.NaN()), nil},
		{"Inf", geom.Pt(math.Inf(1), 5), geom.Pt(5, math.Inf(-1)), nil},
	}
	for _, tc := range cases {
		before := g.visited
		got := g.QueryDiscs(tc.a, tc.b, 10, nil)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		if n := g.visited - before; n > 2*perDisc {
			t.Errorf("%s: visited %d cells, bound is %d", tc.name, n, 2*perDisc)
		}
	}
	// A hostile radius costs the occupied cells, not the radius: the query
	// is clamped to the box of cells anything was ever inserted into.
	h := NewGrid[int](10)
	for k, p := range []geom.Point{geom.Pt(5, 5), geom.Pt(95, 15), geom.Pt(45, 85)} {
		h.Insert(k, p)
	}
	const occupied = 10 * 9 // cells 0..9 × 0..8
	for _, dist := range []float64{1e6, 1e12} {
		before := h.visited
		if got := h.QueryDiscs(geom.Pt(5, 5), geom.Pt(-1e9, 1e9), dist, nil); !slices.Equal(got, []int{0, 1, 2}) {
			t.Errorf("radius %g: got %v, want every entity", dist, got)
		}
		if n := h.visited - before; n > occupied {
			t.Errorf("radius %g: visited %d cells, bound is the %d occupied", dist, n, occupied)
		}
	}
	// A stored NaN position is never a hit, and removing it still works.
	g.Insert(4, geom.Pt(math.NaN(), 0))
	if got := g.QueryCircle(geom.Pt(0, 0), 10, nil); !slices.Equal(got, []int{1}) {
		t.Errorf("NaN position matched: %v", got)
	}
	g.Remove(4)
	if g.Len() != 3 {
		t.Errorf("Len = %d after removing the NaN entity", g.Len())
	}
}

// TestQueryZeroAllocSteadyState: the query orders through grid-owned
// scratch, so with a warm dst a multi-cell two-disc query does not allocate,
// whether its keys are dense (the bitmap) or spread out (the merge).
func TestQueryZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stride int
	}{{"bitmap", 1}, {"merge", stride}} {
		g := NewGrid[int](10)
		rnd := rand.New(rand.NewSource(3))
		for k := 0; k < 400; k++ {
			g.Insert(k*tc.stride, geom.Pt(rnd.Float64()*60, rnd.Float64()*60))
		}
		a, b := geom.Pt(25, 25), geom.Pt(33, 31)
		dst := g.QueryDiscs(a, b, 10, nil)
		if len(dst) < 20 {
			t.Fatalf("%s: only %d hits: the ordering is not exercised", tc.name, len(dst))
		}
		if used := g.bitmap != nil; used != (tc.stride == 1) {
			t.Fatalf("%s: bitmap ordering used = %v", tc.name, used)
		}
		allocs := testing.AllocsPerRun(100, func() {
			dst = g.QueryDiscs(a, b, 10, dst[:0])
			// A same-cell move and a move across cells and back reuse cell capacity.
			g.Insert(7*tc.stride, geom.Pt(25, 25))
			g.Insert(7*tc.stride, geom.Pt(45, 45))
			// A lone entity moving between two empty cells and back empties
			// each cell it leaves and enters an empty one: it reuses the spare.
			g.Insert(1000*tc.stride, geom.Pt(500, 500))
			g.Insert(1000*tc.stride, geom.Pt(520, 520))
		})
		if allocs != 0 {
			t.Errorf("%s: query + move allocates %.1f/op, budget is 0", tc.name, allocs)
		}
	}
}

// FuzzGridOps replays an op stream against the grid and a plain map. Each op
// is 4 bytes: kind, key, x, y. Coordinates are small signed integers scaled
// so that neighbouring values share cells and the extremes do not. A query's
// radius is picked by the kind byte's top two bits, two of the four hostile.
// Each stream is replayed under three key spreads, so both orderings are
// fuzzed: dense keys (the bitmap), negative keys a stride apart (the merge),
// and callsigns near 2⁶⁴−1 of which the key byte's bit 5 makes some far-off
// (either, as the hits fall).
func FuzzGridOps(f *testing.F) {
	f.Add([]byte{}) // the op streams worth keeping are in testdata/fuzz/FuzzGridOps
	// Hostile radii over a spread-out population, then after a removal.
	f.Add([]byte{0, 1, 0x80, 0x80, 0, 2, 0x7f, 0x7f, 0, 3, 4, 0xf0, 0x83, 5, 1, 1, 0xc3, 0x21, 0x7f, 0x80, 1, 2, 0, 0, 0xc3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		replay(t, ops, func(b byte) int { return int(b % 32) })
		replay(t, ops, func(b byte) int { return (16 - int(b%32)) * stride })
		replay(t, ops, func(b byte) id.ClientID { return math.MaxUint64 - id.ClientID(b%32)<<(b&32) })
	})
}

// replay runs one FuzzGridOps stream, key mapping the key byte to a key.
func replay[K Key](t *testing.T, ops []byte, key func(byte) K) {
	g, m := NewGrid[K](8), model[K]{}
	for ; len(ops) >= 4; ops = ops[4:] {
		k := key(ops[1])
		p := geom.Pt(float64(int8(ops[2]))*1.5, float64(int8(ops[3]))*1.5)
		switch ops[0] % 4 {
		case 0:
			g.Insert(k, p)
			m[k] = p
		case 1:
			g.Remove(k)
			delete(m, k)
		case 2:
			r := geom.R(p.X, p.Y, p.X+float64(ops[1]), p.Y+float64(ops[1]))
			var want []K
			for mk, mp := range m {
				if !r.Contains(mp) {
					want = append(want, mk)
				}
			}
			slices.Sort(want)
			if got := g.QueryOutsideRect(r, nil); !slices.Equal(got, want) {
				t.Fatalf("QueryOutsideRect(%v) = %v, want %v", r, got, want)
			}
		case 3:
			b := geom.Pt(p.X+float64(ops[1]%16), p.Y-float64(ops[1]/16))
			checkAgainst(t, g, m, p, b, [4]float64{12, 0, 1e6, 1e12}[ops[0]>>6])
		}
	}
	if len(g.pos) != len(m) {
		t.Fatalf("grid holds %d keys for a model of %d", len(g.pos), len(m))
	}
	for k, want := range m {
		if p, ok := g.pos[k]; !ok || p != want {
			t.Fatalf("stored position of %v = %v,%v, model has %v", k, p, ok, want)
		}
	}
}
