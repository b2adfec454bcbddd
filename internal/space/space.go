// Package space maintains the dynamic spatial partitioning of the game world.
//
// Matrix "partitions the overall space Z of an MMOG into N non-overlapping
// partitions {P1..PN} and assigns each partition Pi to a distinct server Si"
// (paper §3.1). Partitions change at runtime through splits (an overloaded
// server hands half its map to a new server) and reclamations (a parent
// absorbs an underloaded child). This package owns that bookkeeping and its
// invariants:
//
//   - partitions are pairwise disjoint axis-aligned rectangles;
//   - the union of all partitions is exactly the world rectangle;
//   - split/reclaim relationships form a tree rooted at the first server.
//
// The package is purely computational (no goroutines, no I/O); the Matrix
// Coordinator and Matrix servers drive it.
package space

import (
	"errors"
	"fmt"
	"sort"

	"matrix/internal/geom"
	"matrix/internal/id"
)

// Sentinel errors returned by Map operations.
var (
	ErrUnknownServer  = errors.New("space: unknown server")
	ErrDuplicateOwner = errors.New("space: server already owns a partition")
	ErrNotLeaf        = errors.New("space: server still has children")
	ErrRootReclaim    = errors.New("space: cannot reclaim the root server")
	ErrTooSmall       = errors.New("space: partition too small to split")
	ErrNotMergeable   = errors.New("space: partitions no longer merge into a rectangle")
)

// Partition pairs a server with the rectangle of the world it owns.
type Partition struct {
	Owner  id.ServerID
	Bounds geom.Rect
}

// SplitPolicy decides how an overloaded partition is divided. It returns the
// piece retained by the overloaded server and the piece handed to the new
// child. Implementations must return two disjoint non-empty rectangles whose
// union is exactly the input.
type SplitPolicy interface {
	// Split divides bounds into (keep, give).
	Split(bounds geom.Rect) (keep, give geom.Rect)
	// Name identifies the policy in experiment output.
	Name() string
}

// SplitToLeft is the paper's policy: the map is "split into two equal pieces
// with the left piece handed off to the new server". The cut runs across the
// longer axis so repeated splits keep partitions roughly square.
type SplitToLeft struct{}

// Split implements SplitPolicy.
func (SplitToLeft) Split(bounds geom.Rect) (keep, give geom.Rect) {
	lo, hi := bounds.SplitHalf()
	return hi, lo
}

// Name implements SplitPolicy.
func (SplitToLeft) Name() string { return "split-to-left" }

var _ SplitPolicy = SplitToLeft{}

// MinSplitExtent is the smallest width/height a partition may have after a
// split. It guards against unbounded recursion when a hotspot is denser than
// the server fleet can dilute.
const MinSplitExtent = 1e-6

// Map is the authoritative picture of which server owns which part of the
// world. It is not safe for concurrent use: its one owner, the coordinator,
// calls it under its own lock.
type Map struct {
	world    geom.Rect
	bounds   map[id.ServerID]geom.Rect
	parent   map[id.ServerID]id.ServerID
	children map[id.ServerID]map[id.ServerID]bool
	root     id.ServerID
	version  uint64
}

// NewMap creates a Map covering world, fully owned by root.
func NewMap(world geom.Rect, root id.ServerID) (*Map, error) {
	if world.Empty() {
		return nil, errors.New("space: world rectangle is empty")
	}
	if !root.Valid() {
		return nil, errors.New("space: root server id is invalid")
	}
	return &Map{
		world:    world,
		bounds:   map[id.ServerID]geom.Rect{root: world},
		parent:   map[id.ServerID]id.ServerID{},
		children: map[id.ServerID]map[id.ServerID]bool{},
		root:     root,
		version:  1,
	}, nil
}

// NewPresetMap creates a Map with a fixed set of partitions, used by the
// static-partitioning baseline the paper compares against. The partitions
// must tile world exactly. The first partition's owner acts as the tree
// root; every other owner is recorded as its child so the structural
// invariants hold (static deployments never split or reclaim anyway).
func NewPresetMap(world geom.Rect, parts []Partition) (*Map, error) {
	if world.Empty() {
		return nil, errors.New("space: world rectangle is empty")
	}
	if len(parts) == 0 {
		return nil, errors.New("space: no partitions")
	}
	m := &Map{
		world:    world,
		bounds:   make(map[id.ServerID]geom.Rect, len(parts)),
		parent:   map[id.ServerID]id.ServerID{},
		children: map[id.ServerID]map[id.ServerID]bool{},
		root:     parts[0].Owner,
		version:  1,
	}
	for _, p := range parts {
		if !p.Owner.Valid() {
			return nil, errors.New("space: invalid owner in preset partitions")
		}
		if _, dup := m.bounds[p.Owner]; dup {
			return nil, fmt.Errorf("%w: %v", ErrDuplicateOwner, p.Owner)
		}
		m.bounds[p.Owner] = p.Bounds
		if p.Owner != m.root {
			m.parent[p.Owner] = m.root
			if m.children[m.root] == nil {
				m.children[m.root] = make(map[id.ServerID]bool)
			}
			m.children[m.root][p.Owner] = true
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Version returns a counter incremented by every topology change. Overlap
// tables are tagged with it so stale tables can be detected.
func (m *Map) Version() uint64 {
	return m.version
}

// Len returns the number of partitions (= active servers).
func (m *Map) Len() int {
	return len(m.bounds)
}

// Bounds returns the partition owned by s.
func (m *Map) Bounds(s id.ServerID) (geom.Rect, error) {
	b, ok := m.bounds[s]
	if !ok {
		return geom.Rect{}, fmt.Errorf("%w: %v", ErrUnknownServer, s)
	}
	return b, nil
}

// Parent returns the split-tree parent of s (id.None for the root).
func (m *Map) Parent(s id.ServerID) (id.ServerID, error) {
	if _, ok := m.bounds[s]; !ok {
		return id.None, fmt.Errorf("%w: %v", ErrUnknownServer, s)
	}
	return m.parent[s], nil
}

// Children returns the split-tree children of s, sorted by ID.
func (m *Map) Children(s id.ServerID) []id.ServerID {
	kids := m.children[s]
	out := make([]id.ServerID, 0, len(kids))
	for k := range kids {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Partitions returns a snapshot of all partitions, sorted by owner ID.
func (m *Map) Partitions() []Partition {
	out := make([]Partition, 0, len(m.bounds))
	for s, b := range m.bounds {
		out = append(out, Partition{Owner: s, Bounds: b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out
}

// Split divides the partition of overloaded according to policy, assigning
// the handed-off piece to child. It returns the rectangle retained by
// overloaded and the rectangle given to child.
func (m *Map) Split(overloaded, child id.ServerID, policy SplitPolicy) (keep, give geom.Rect, err error) {
	if policy == nil {
		policy = SplitToLeft{}
	}
	bounds, ok := m.bounds[overloaded]
	if !ok {
		return geom.Rect{}, geom.Rect{}, fmt.Errorf("%w: %v", ErrUnknownServer, overloaded)
	}
	if _, exists := m.bounds[child]; exists {
		return geom.Rect{}, geom.Rect{}, fmt.Errorf("%w: %v", ErrDuplicateOwner, child)
	}
	if !child.Valid() {
		return geom.Rect{}, geom.Rect{}, errors.New("space: child server id is invalid")
	}
	keep, give = policy.Split(bounds)
	if keep.Empty() || give.Empty() {
		return geom.Rect{}, geom.Rect{}, fmt.Errorf("space: policy %q produced an empty piece", policy.Name())
	}
	if keep.Width() < MinSplitExtent || keep.Height() < MinSplitExtent ||
		give.Width() < MinSplitExtent || give.Height() < MinSplitExtent {
		return geom.Rect{}, geom.Rect{}, fmt.Errorf("%w: %v", ErrTooSmall, bounds)
	}
	if keep.Intersects(give) || !keep.Union(give).Eq(bounds) {
		return geom.Rect{}, geom.Rect{}, fmt.Errorf("space: policy %q broke the tiling invariant", policy.Name())
	}
	m.bounds[overloaded] = keep
	m.bounds[child] = give
	m.parent[child] = overloaded
	if m.children[overloaded] == nil {
		m.children[overloaded] = make(map[id.ServerID]bool)
	}
	m.children[overloaded][child] = true
	m.version++
	return keep, give, nil
}

// ReplaceOwner transfers the partition of old — bounds, tree edges and root
// status — to next, removing old from the map. It is the topology half of
// failure remediation: when a server dies, a warm spare takes over its exact
// rectangle, so the tiling and the split tree are unchanged apart from the
// renamed node. It returns the transferred bounds.
func (m *Map) ReplaceOwner(old, next id.ServerID) (geom.Rect, error) {
	bounds, ok := m.bounds[old]
	if !ok {
		return geom.Rect{}, fmt.Errorf("%w: %v", ErrUnknownServer, old)
	}
	if !next.Valid() {
		return geom.Rect{}, errors.New("space: replacement server id is invalid")
	}
	if _, exists := m.bounds[next]; exists {
		return geom.Rect{}, fmt.Errorf("%w: %v", ErrDuplicateOwner, next)
	}
	m.bounds[next] = bounds
	delete(m.bounds, old)
	if p, hasParent := m.parent[old]; hasParent {
		m.parent[next] = p
		delete(m.parent, old)
		delete(m.children[p], old)
		if m.children[p] == nil {
			m.children[p] = make(map[id.ServerID]bool)
		}
		m.children[p][next] = true
	}
	if kids := m.children[old]; len(kids) > 0 {
		m.children[next] = kids
		delete(m.children, old)
		for k := range kids {
			m.parent[k] = next
		}
	} else {
		delete(m.children, old)
	}
	if m.root == old {
		m.root = next
	}
	m.version++
	return bounds, nil
}

// Reclaim merges the partition of child back into its parent, removing child
// from the map. Only leaf servers can be reclaimed, and only by their own
// parent (the paper's parent/child reclamation rule). It returns the
// parent's new bounds.
func (m *Map) Reclaim(child id.ServerID) (parent id.ServerID, merged geom.Rect, err error) {
	childBounds, ok := m.bounds[child]
	if !ok {
		return id.None, geom.Rect{}, fmt.Errorf("%w: %v", ErrUnknownServer, child)
	}
	if child == m.root {
		return id.None, geom.Rect{}, ErrRootReclaim
	}
	if len(m.children[child]) > 0 {
		return id.None, geom.Rect{}, fmt.Errorf("%w: %v", ErrNotLeaf, child)
	}
	parent = m.parent[child]
	parentBounds := m.bounds[parent]
	merged = parentBounds.Union(childBounds)
	// The merge must itself be a clean rectangle: the paper only ever
	// reclaims a piece that was split off, so parent ∪ child tiles merged.
	if merged.Area()-parentBounds.Area()-childBounds.Area() > 1e-9*merged.Area() {
		return id.None, geom.Rect{}, fmt.Errorf("%w: parent %v, child %v", ErrNotMergeable, parentBounds, childBounds)
	}
	m.bounds[parent] = merged
	delete(m.bounds, child)
	delete(m.parent, child)
	delete(m.children[parent], child)
	delete(m.children, child)
	m.version++
	return parent, merged, nil
}

// CanReclaim reports whether child can currently be reclaimed: it must be a
// non-root leaf whose partition still merges with its parent's into a clean
// rectangle. Because splits always halve the parent's *current* rectangle,
// reclamation is valid in last-split-first order — the same order the
// paper's parent/child protocol produces.
func (m *Map) CanReclaim(child id.ServerID) bool {
	childBounds, ok := m.bounds[child]
	if !ok || child == m.root || len(m.children[child]) > 0 {
		return false
	}
	parentBounds := m.bounds[m.parent[child]]
	merged := parentBounds.Union(childBounds)
	return merged.Area()-parentBounds.Area()-childBounds.Area() <= 1e-9*merged.Area()
}

// PartitionNode is one partition plus its split-tree parent, the unit of a
// MapState snapshot.
type PartitionNode struct {
	Owner  id.ServerID
	Bounds geom.Rect
	Parent id.ServerID // id.None for the root
}

// MapState is a Map's serializable snapshot. Nodes are sorted by owner so
// encoding the same map twice produces byte-identical output.
type MapState struct {
	World   geom.Rect
	Root    id.ServerID
	Version uint64
	Nodes   []PartitionNode
}

// State snapshots the map: partitions, tree edges and the topology version.
func (m *Map) State() MapState {
	st := MapState{World: m.world, Root: m.root, Version: m.version}
	for s, b := range m.bounds {
		st.Nodes = append(st.Nodes, PartitionNode{Owner: s, Bounds: b, Parent: m.parent[s]})
	}
	sort.Slice(st.Nodes, func(i, j int) bool { return st.Nodes[i].Owner < st.Nodes[j].Owner })
	return st
}

// NewMapFromState rebuilds a map from a snapshot, re-deriving the children
// index and re-checking every structural invariant.
func NewMapFromState(st MapState) (*Map, error) {
	if st.World.Empty() {
		return nil, errors.New("space: world rectangle is empty")
	}
	if !st.Root.Valid() {
		return nil, errors.New("space: root server id is invalid")
	}
	m := &Map{
		world:    st.World,
		bounds:   make(map[id.ServerID]geom.Rect, len(st.Nodes)),
		parent:   map[id.ServerID]id.ServerID{},
		children: map[id.ServerID]map[id.ServerID]bool{},
		root:     st.Root,
		version:  st.Version,
	}
	for _, n := range st.Nodes {
		if !n.Owner.Valid() {
			return nil, errors.New("space: invalid owner in map state")
		}
		if _, dup := m.bounds[n.Owner]; dup {
			return nil, fmt.Errorf("%w: %v", ErrDuplicateOwner, n.Owner)
		}
		m.bounds[n.Owner] = n.Bounds
		if n.Owner == st.Root {
			continue
		}
		if !n.Parent.Valid() {
			return nil, fmt.Errorf("space: non-root %v has no parent", n.Owner)
		}
		m.parent[n.Owner] = n.Parent
		if m.children[n.Parent] == nil {
			m.children[n.Parent] = make(map[id.ServerID]bool)
		}
		m.children[n.Parent][n.Owner] = true
	}
	if _, ok := m.bounds[st.Root]; !ok {
		return nil, fmt.Errorf("space: root %v missing from map state", st.Root)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks the structural invariants: pairwise-disjoint partitions
// exactly tiling the world, and a parent map that forms a tree rooted at
// Root. It is used by tests and by the coordinator's self-checks.
func (m *Map) Validate() error {
	parts := make([]Partition, 0, len(m.bounds))
	var area float64
	for s, b := range m.bounds {
		if b.Empty() {
			return fmt.Errorf("space: partition of %v is empty", s)
		}
		if !m.world.ContainsRect(b) {
			return fmt.Errorf("space: partition of %v (%v) escapes the world", s, b)
		}
		parts = append(parts, Partition{Owner: s, Bounds: b})
		area += b.Area()
	}
	for i := range parts {
		for j := i + 1; j < len(parts); j++ {
			if parts[i].Bounds.Intersects(parts[j].Bounds) {
				return fmt.Errorf("space: partitions of %v and %v overlap", parts[i].Owner, parts[j].Owner)
			}
		}
	}
	if diff := area - m.world.Area(); diff > 1e-9*m.world.Area() || diff < -1e-9*m.world.Area() {
		return fmt.Errorf("space: partitions cover area %v, world area is %v", area, m.world.Area())
	}
	// Tree checks: every non-root server has a known parent; no cycles.
	for s := range m.bounds {
		if s == m.root {
			continue
		}
		seen := map[id.ServerID]bool{}
		cur := s
		for cur != m.root {
			if seen[cur] {
				return fmt.Errorf("space: parent cycle at %v", cur)
			}
			seen[cur] = true
			p, ok := m.parent[cur]
			if !ok {
				return fmt.Errorf("space: %v has no path to root", s)
			}
			if _, alive := m.bounds[p]; !alive {
				return fmt.Errorf("space: %v has dead parent %v", cur, p)
			}
			cur = p
		}
	}
	return nil
}
