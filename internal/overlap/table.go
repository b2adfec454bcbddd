package overlap

import (
	"fmt"
	"slices"
	"sort"

	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/space"
)

// ConsistencySet evaluates Equation 1 of the paper exactly: the set of
// servers other than owner whose partitions intersect the visibility circle
// of radius r centered at p. It is the ground truth the table-based fast
// path is checked against, and what the Matrix Coordinator answers for rare
// non-proximal interactions.
func ConsistencySet(p geom.Point, owner id.ServerID, parts []space.Partition, r float64) Set {
	var out Set
	for _, part := range parts {
		if part.Owner == owner {
			continue
		}
		if part.Bounds.IntersectsCircle(p, r) {
			out = append(out, part.Owner)
		}
	}
	if out == nil {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Region is one overlap region: a rectangle of the owner's partition whose
// points all share the same non-empty consistency set. "An update at any
// point in that overlap region requires all the servers in that overlap
// region to be informed of the update" (paper §3.1).
type Region struct {
	Bounds geom.Rect
	Peers  Set
}

// Table is one server's routing table: the overlap regions of its partition
// plus a grid index over them. The Matrix Coordinator builds tables with
// axis-aligned bounding-box arithmetic (exactly the computation the paper
// describes) and pushes them to Matrix servers; lookups on the packet path
// touch no locks and allocate nothing.
//
// The AABB construction is conservative near partition corners: it may
// include a peer whose true Euclidean distance is slightly beyond R. That
// errs on the side of more consistency (a superset of C(σ)), never less.
type Table struct {
	bounds  geom.Rect
	version uint64

	// Cell grid: xs and ys are the sorted cut coordinates; cell (i,j) spans
	// [xs[i],xs[i+1]) x [ys[j],ys[j+1]) and holds an index into sets
	// (-1 = interior, empty consistency set).
	xs, ys []float64
	cells  []int32 // row-major: cells[j*(len(xs)-1)+i]
	sets   []Set

	regions []Region // merged maximal regions, for size metrics and tests
}

// BuildTable computes the overlap table for owner given the current global
// partition list and the game's radius of visibility. Partitions other than
// the owner's whose R-expansion misses the owner's bounds are pruned
// immediately, which is what keeps tables small when R ≪ partition size.
func BuildTable(owner id.ServerID, parts []space.Partition, radius float64, version uint64) (*Table, error) {
	var bounds geom.Rect
	found := false
	for _, p := range parts {
		if p.Owner == owner {
			bounds = p.Bounds
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("overlap: owner %v not in partition list", owner)
	}
	if radius < 0 {
		return nil, fmt.Errorf("overlap: negative radius %v", radius)
	}

	t := &Table{bounds: bounds, version: version}

	// Clip every neighbour's expanded rectangle against the owner's bounds.
	type clip struct {
		peer id.ServerID
		rect geom.Rect
	}
	var clips []clip
	for _, p := range parts {
		if p.Owner == owner {
			continue
		}
		c := p.Bounds.Expand(radius).Intersect(bounds)
		if c.Empty() {
			continue
		}
		clips = append(clips, clip{peer: p.Owner, rect: c})
	}
	if len(clips) == 0 {
		// Whole partition is interior: single empty cell.
		t.xs = []float64{bounds.MinX, bounds.MaxX}
		t.ys = []float64{bounds.MinY, bounds.MaxY}
		t.cells = []int32{-1}
		return t, nil
	}

	// Build the arrangement grid from all clip edges.
	xs := []float64{bounds.MinX, bounds.MaxX}
	ys := []float64{bounds.MinY, bounds.MaxY}
	for _, c := range clips {
		xs = append(xs, c.rect.MinX, c.rect.MaxX)
		ys = append(ys, c.rect.MinY, c.rect.MaxY)
	}
	// Cuts come from identical float arithmetic, so exact comparison dedups.
	slices.Sort(xs)
	slices.Sort(ys)
	t.xs, t.ys = slices.Compact(xs), slices.Compact(ys)
	nx, ny := len(t.xs)-1, len(t.ys)-1

	// Assign each cell its consistency set (deduplicated via canonical key).
	t.cells = make([]int32, nx*ny)
	setIdx := make(map[string]int32)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			center := geom.Pt((t.xs[i]+t.xs[i+1])/2, (t.ys[j]+t.ys[j+1])/2)
			var members Set
			for _, c := range clips {
				if c.rect.Contains(center) {
					members = append(members, c.peer)
				}
			}
			if members == nil {
				t.cells[j*nx+i] = -1
				continue
			}
			sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
			key := members.Key()
			idx, ok := setIdx[key]
			if !ok {
				idx = int32(len(t.sets))
				t.sets = append(t.sets, members)
				setIdx[key] = idx
			}
			t.cells[j*nx+i] = idx
		}
	}

	t.regions = t.mergeRegions()
	return t, nil
}

// mergeRegions coalesces grid cells with identical sets into maximal
// rectangles (greedy: grow right, then grow down full-width).
func (t *Table) mergeRegions() []Region {
	nx, ny := len(t.xs)-1, len(t.ys)-1
	visited := make([]bool, nx*ny)
	var out []Region
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			at := j*nx + i
			if visited[at] || t.cells[at] < 0 {
				continue
			}
			want := t.cells[at]
			// Grow right.
			i2 := i
			for i2+1 < nx && !visited[j*nx+i2+1] && t.cells[j*nx+i2+1] == want {
				i2++
			}
			// Grow down as long as the whole row span matches.
			j2 := j
			for j2+1 < ny {
				ok := true
				for k := i; k <= i2; k++ {
					if visited[(j2+1)*nx+k] || t.cells[(j2+1)*nx+k] != want {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
				j2++
			}
			for jj := j; jj <= j2; jj++ {
				for ii := i; ii <= i2; ii++ {
					visited[jj*nx+ii] = true
				}
			}
			out = append(out, Region{
				Bounds: geom.R(t.xs[i], t.ys[j], t.xs[i2+1], t.ys[j2+1]),
				Peers:  t.sets[want].Clone(),
			})
		}
	}
	return out
}

// Bounds returns the partition the table covers.
func (t *Table) Bounds() geom.Rect { return t.bounds }

// Version returns the topology version the table was built from.
func (t *Table) Version() uint64 { return t.version }

// Regions returns the merged overlap regions (copy-free; callers must not
// mutate).
func (t *Table) Regions() []Region { return t.regions }

// OverlapArea returns the total area of all overlap regions — the quantity
// the paper's microbenchmark correlates with inter-Matrix traffic.
func (t *Table) OverlapArea() float64 {
	var a float64
	for _, r := range t.regions {
		a += r.Bounds.Area()
	}
	return a
}

// Lookup returns the consistency set for a point in the owner's partition.
// It is the paper's O(1) fast-path operation: two branchless binary searches
// over tiny cut arrays and one slice index; no allocation, no locks. Points
// outside the partition return nil (the caller verifies ranges separately).
func (t *Table) Lookup(p geom.Point) Set {
	if !t.bounds.Contains(p) {
		return nil
	}
	i := searchCut(t.xs, p.X)
	j := searchCut(t.ys, p.Y)
	nx := len(t.xs) - 1
	if i < 0 || i >= nx || j < 0 || j >= len(t.ys)-1 {
		return nil
	}
	idx := t.cells[j*nx+i]
	if idx < 0 {
		return nil
	}
	return t.sets[idx]
}

// searchCut returns the cell index k such that cuts[k] <= v < cuts[k+1].
func searchCut(cuts []float64, v float64) int {
	lo, hi := 0, len(cuts)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if cuts[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// NewTableFromRegions reconstructs a lookup table from overlap regions
// received over the wire. Matrix servers call this when the MC pushes a
// fresh OverlapTable, rebuilding the same O(1) grid index the MC computed.
func NewTableFromRegions(owner id.ServerID, bounds geom.Rect, version uint64, regions []Region) (*Table, error) {
	if bounds.Empty() {
		return nil, fmt.Errorf("overlap: empty bounds for %v", owner)
	}
	t := &Table{bounds: bounds, version: version}
	t.regions = make([]Region, len(regions))
	for i, r := range regions {
		if r.Bounds.Empty() || !bounds.ContainsRect(r.Bounds) {
			return nil, fmt.Errorf("overlap: region %v escapes bounds %v", r.Bounds, bounds)
		}
		t.regions[i] = Region{Bounds: r.Bounds, Peers: r.Peers.Clone()}
	}
	xs := []float64{bounds.MinX, bounds.MaxX}
	ys := []float64{bounds.MinY, bounds.MaxY}
	for _, r := range t.regions {
		xs = append(xs, r.Bounds.MinX, r.Bounds.MaxX)
		ys = append(ys, r.Bounds.MinY, r.Bounds.MaxY)
	}
	// Cuts come from identical float arithmetic, so exact comparison dedups.
	slices.Sort(xs)
	slices.Sort(ys)
	t.xs, t.ys = slices.Compact(xs), slices.Compact(ys)
	nx, ny := len(t.xs)-1, len(t.ys)-1
	t.cells = make([]int32, nx*ny)
	setIdx := make(map[string]int32)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			center := geom.Pt((t.xs[i]+t.xs[i+1])/2, (t.ys[j]+t.ys[j+1])/2)
			t.cells[j*nx+i] = -1
			for _, r := range t.regions {
				if r.Bounds.Contains(center) {
					key := r.Peers.Key()
					idx, ok := setIdx[key]
					if !ok {
						idx = int32(len(t.sets))
						t.sets = append(t.sets, r.Peers.Clone())
						setIdx[key] = idx
					}
					t.cells[j*nx+i] = idx
					break
				}
			}
		}
	}
	return t, nil
}

// BuildAll computes the tables for every partition at once (what the MC does
// after each split or reclamation).
func BuildAll(parts []space.Partition, radius float64, version uint64) (map[id.ServerID]*Table, error) {
	out := make(map[id.ServerID]*Table, len(parts))
	for _, p := range parts {
		t, err := BuildTable(p.Owner, parts, radius, version)
		if err != nil {
			return nil, err
		}
		out[p.Owner] = t
	}
	return out, nil
}
