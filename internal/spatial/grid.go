// Package spatial provides a uniform hash grid for radius queries over
// moving entities — the interest-management substrate game servers use to
// find "all clients whose zone of visibility contains this event" without
// scanning every connected client per packet.
package spatial

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"matrix/internal/geom"
)

// Key is what a grid can index: any integer type (callsigns, in practice).
type Key interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// entry is one entity inside a cell.
type entry[K Key] struct {
	key K
	pt  geom.Point
}

// span is the run [lo:hi] of a query scratch buffer.
type span struct{ lo, hi int }

// Grid is a uniform spatial hash from cells to entity keys. Every cell
// keeps its entries in ascending key order, so every query returns
// ascending keys by ordering the runs of the cells it visits (QueryDiscs):
// callers that need a deterministic order get it from the structure, not
// from a sort. The zero value is not usable; call NewGrid. Grid is not
// safe for concurrent use (each game server owns one and serializes access
// through its inbox); queries reuse grid-owned scratch.
type Grid[K Key] struct {
	cell  float64
	cells map[[2]int32][]entry[K]
	pos   map[K]geom.Point

	// Query scratch: keys holds the keys that passed the filter, one
	// ascending run per visited cell (runs says where each one is); tmp is
	// the buffer the merge passes alternate with, bitmap the dense ordering's
	// (all zero between queries).
	keys, tmp []K
	runs      []span
	bitmap    []uint64
	// visited counts the cells queries have looked up — the work bound the
	// tests pin for hostile coordinates and radii.
	visited uint64
	// occupied bounds every cell ever inserted into (it never shrinks): a
	// query looks nowhere else, so a huge radius costs the populated area.
	occupied cellRange
	// spare is the run of the last cell that emptied, kept for the next
	// insert into an empty cell: an entity moving alone between cells
	// allocates no run.
	spare []entry[K]
}

// NewGrid creates a grid with the given cell size. Radius queries are most
// efficient when cell is close to the typical query radius. A non-positive
// cell defaults to 1.
func NewGrid[K Key](cell float64) *Grid[K] {
	if cell <= 0 {
		cell = 1
	}
	return &Grid[K]{
		cell:     cell,
		cells:    make(map[[2]int32][]entry[K]),
		pos:      make(map[K]geom.Point),
		occupied: cellRange{maxCoord, maxCoord, -maxCoord, -maxCoord},
	}
}

// maxCoord bounds cell coordinates. Points further out share the edge cell
// (queries filter by exact position, so results stay exact), a loop over a
// cell range can never wrap, and the float→int conversion is never out of
// range.
const maxCoord = 1 << 30

// coord maps one axis value to its cell coordinate. NaN maps to cell 0: a
// NaN position is stored there and no query can match it, and a query around
// a NaN centre looks there and matches nothing.
func (g *Grid[K]) coord(v float64) int32 {
	c := math.Floor(v / g.cell)
	switch {
	case c >= maxCoord:
		return maxCoord
	case c <= -maxCoord:
		return -maxCoord
	case c != c:
		return 0
	}
	return int32(c)
}

// cellOf maps a point to its cell coordinates.
func (g *Grid[K]) cellOf(p geom.Point) [2]int32 {
	return [2]int32{g.coord(p.X), g.coord(p.Y)}
}

// cellRange is an inclusive rectangle of cells; x0 > x1 means empty.
type cellRange struct{ x0, y0, x1, y1 int32 }

func (r cellRange) contains(cx, cy int32) bool {
	return r.x0 <= cx && cx <= r.x1 && r.y0 <= cy && cy <= r.y1
}

// cellsOver returns the occupied cells overlapping [minX,maxX]×[minY,maxY].
func (g *Grid[K]) cellsOver(minX, minY, maxX, maxY float64) cellRange {
	o := g.occupied
	return cellRange{max(g.coord(minX), o.x0), max(g.coord(minY), o.y0), min(g.coord(maxX), o.x1), min(g.coord(maxY), o.y1)}
}

// Len returns the number of entities in the grid.
func (g *Grid[K]) Len() int { return len(g.pos) }

func searchCell[K Key](run []entry[K], k K) (int, bool) {
	return slices.BinarySearchFunc(run, k, func(e entry[K], k K) int { return cmp.Compare(e.key, k) })
}

// Insert adds or moves an entity to p.
func (g *Grid[K]) Insert(k K, p geom.Point) {
	nc := g.cellOf(p)
	if old, ok := g.pos[k]; ok {
		oc := g.cellOf(old)
		if oc == nc {
			g.pos[k] = p
			run := g.cells[oc]
			i, _ := searchCell(run, k)
			run[i].pt = p
			return
		}
		g.removeFromCell(k, oc)
	}
	g.pos[k] = p
	run := g.cells[nc]
	if run == nil {
		run, g.spare = g.spare, nil
	}
	i, _ := searchCell(run, k)
	g.cells[nc] = slices.Insert(run, i, entry[K]{k, p})
	o := &g.occupied
	o.x0, o.y0, o.x1, o.y1 = min(o.x0, nc[0]), min(o.y0, nc[1]), max(o.x1, nc[0]), max(o.y1, nc[1])
}

// Remove deletes an entity; unknown keys are a no-op.
func (g *Grid[K]) Remove(k K) {
	p, ok := g.pos[k]
	if !ok {
		return
	}
	delete(g.pos, k)
	g.removeFromCell(k, g.cellOf(p))
}

// removeFromCell drops k from cell c. Empty cells leave the index, their
// run becoming the spare, so the index stays bounded by the population plus
// one however far entities wander.
func (g *Grid[K]) removeFromCell(k K, c [2]int32) {
	run := g.cells[c]
	if len(run) == 1 {
		delete(g.cells, c)
		g.spare = run[:0]
		return
	}
	i, _ := searchCell(run, k)
	g.cells[c] = slices.Delete(run, i, i+1)
}

// QueryCircle appends to dst, in ascending key order, every entity within
// dist of center (Euclidean, inclusive) and returns the extended slice. Pass
// a reused dst to avoid allocation on hot paths.
func (g *Grid[K]) QueryCircle(center geom.Point, dist float64, dst []K) []K {
	return g.QueryDiscs(center, center, dist, dst)
}

// QueryDiscs appends to dst, in ascending key order and each once, every
// entity within dist of a or of b — the audience of a move from a to b. It
// visits each cell overlapping either disc once, never the cells between
// two far-apart discs, so the work is bounded by the discs however far
// apart a and b are. A NaN or infinite centre matches nothing.
//
// How the per-cell runs of hits are ordered is picked from the keys, as a
// sort's small-input cutoff is: dense keys, spanning no more 64-bit words
// than there are hits ((hi−lo)/64+1 ≤ hits, as callsigns 1, 2, 3, … do), set
// a bit each in a bitmap read back in word order, O(hits); sparse keys are
// merged pairwise (merge), so a far-off callsign never costs its span.
func (g *Grid[K]) QueryDiscs(a, b geom.Point, dist float64, dst []K) []K {
	if !(dist >= 0) {
		return dst
	}
	d2 := dist * dist
	g.keys, g.runs = g.keys[:0], g.runs[:0]
	ra := g.cellsOver(a.X-dist, a.Y-dist, a.X+dist, a.Y+dist)
	rb := cellRange{x0: 1}
	if b != a {
		rb = g.cellsOver(b.X-dist, b.Y-dist, b.X+dist, b.Y+dist)
	}
	for pass, r := range [2]cellRange{ra, rb} {
		for cx := r.x0; cx <= r.x1; cx++ {
			for cy := r.y0; cy <= r.y1; cy++ {
				if pass == 1 && ra.contains(cx, cy) {
					continue // already taken, with both discs tested
				}
				g.visited++
				cell := g.cells[[2]int32{cx, cy}]
				n := len(g.keys)
				keys := slices.Grow(g.keys, len(cell))[:n+len(cell)]
				w := n
				for _, e := range cell {
					// Whether an entry is a hit is a coin toss to the branch
					// predictor, so store every key and step past it only on
					// a hit: the conditional moves cost less than the misses.
					ax, ay := e.pt.X-a.X, e.pt.Y-a.Y
					bx, by := e.pt.X-b.X, e.pt.Y-b.Y
					keys[w] = e.key
					hit := 0
					if ax*ax+ay*ay <= d2 {
						hit = 1
					}
					if bx*bx+by*by <= d2 {
						hit = 1
					}
					w += hit
				}
				g.keys = keys[:w]
				if w > n {
					g.runs = append(g.runs, span{n, w})
				}
			}
		}
	}
	if len(g.runs) > 1 {
		lo, hi := g.keys[g.runs[0].lo], g.keys[g.runs[0].hi-1]
		for _, r := range g.runs[1:] {
			lo, hi = min(lo, g.keys[r.lo]), max(hi, g.keys[r.hi-1])
		}
		if words := (uint64(hi)-uint64(lo))/64 + 1; words <= uint64(len(g.keys)) {
			return g.emitBitmap(dst, uint64(lo), int(words))
		}
	}
	return g.merge(dst)
}

// emitBitmap appends g.keys to dst, ascending, through the bitmap: bit k−lo
// stands for key k, in uint64 (as the span is) so a signed K cannot overflow.
func (g *Grid[K]) emitBitmap(dst []K, lo uint64, words int) []K {
	if len(g.bitmap) < words {
		g.bitmap = make([]uint64, words)
	}
	for _, k := range g.keys {
		off := uint64(k) - lo
		g.bitmap[off/64] |= 1 << (off % 64)
	}
	dst = slices.Grow(dst, len(g.keys))
	for w, word := range g.bitmap[:words] {
		g.bitmap[w] = 0 // all zero again for the next query
		for ; word != 0; word &= word - 1 {
			dst = append(dst, K(lo+uint64(w)*64+uint64(bits.TrailingZeros64(word))))
		}
	}
	return dst
}

// merge appends the runs collected in g.keys to dst as one ascending
// sequence: neighbouring runs are merged pairwise, pass by pass, alternating
// between the two scratch buffers, and the last merge writes into dst.
// (Merging the two shortest runs first moves fewer keys, yet measured 10 %
// slower on the flash-crowd probe: picking the pair costs more than it
// saves at a dozen runs.)
func (g *Grid[K]) merge(dst []K) []K {
	src, tmp, runs := g.keys, g.tmp, g.runs
	for len(runs) > 2 {
		tmp = tmp[:0]
		w := 0
		for i := 0; i < len(runs); i += 2 {
			a, b := runs[i], span{}
			if i+1 < len(runs) {
				b = runs[i+1]
			}
			lo := len(tmp)
			tmp = merge2(tmp, src[a.lo:a.hi], src[b.lo:b.hi])
			runs[w] = span{lo, len(tmp)}
			w++
		}
		runs = runs[:w]
		src, tmp = tmp, src
	}
	g.keys, g.tmp = src, tmp // keep both buffers' capacity
	switch len(runs) {
	case 0:
		return dst
	case 1:
		return append(dst, src[runs[0].lo:runs[0].hi]...)
	}
	return merge2(dst, src[runs[0].lo:runs[0].hi], src[runs[1].lo:runs[1].hi])
}

// merge2 appends the merge of two ascending runs to dst. Which run the next
// key comes from is a coin toss to the branch predictor, so the loop selects
// with conditional moves instead of branching on the comparison.
func merge2[K Key](dst, a, b []K) []K {
	n := len(dst)
	dst = slices.Grow(dst, len(a)+len(b))[:n+len(a)+len(b)]
	out := dst[n:]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		v := y
		if x < y {
			v = x
		}
		out[k] = v
		k++
		if x < y {
			i++
		}
		j = k - i
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
	return dst
}

// QueryOutsideRect appends every entity NOT inside r to dst, in ascending
// key order — exactly the set a game server must redirect after its range
// shrinks.
func (g *Grid[K]) QueryOutsideRect(r geom.Rect, dst []K) []K {
	n := len(dst)
	for k, p := range g.pos {
		if !r.Contains(p) {
			dst = append(dst, k)
		}
	}
	slices.Sort(dst[n:])
	return dst
}
