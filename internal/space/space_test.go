package space

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"matrix/internal/geom"
	"matrix/internal/id"
)

func mustMap(t *testing.T, world geom.Rect, root id.ServerID) *Map {
	t.Helper()
	m, err := NewMap(world, root)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	return m
}

func TestNewMapValidation(t *testing.T) {
	if _, err := NewMap(geom.Rect{}, 1); err == nil {
		t.Error("empty world must be rejected")
	}
	if _, err := NewMap(geom.R(0, 0, 10, 10), id.None); err == nil {
		t.Error("invalid root must be rejected")
	}
	m := mustMap(t, geom.R(0, 0, 10, 10), 1)
	if m.Len() != 1 || m.State().Root != 1 {
		t.Errorf("fresh map: Len=%d Root=%v", m.Len(), m.State().Root)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("fresh map invalid: %v", err)
	}
}

func TestSplitToLeftHandsOffLeftPiece(t *testing.T) {
	m := mustMap(t, geom.R(0, 0, 100, 50), 1)
	keep, give, err := m.Split(1, 2, SplitToLeft{})
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	// World is wider than tall: cut on X; left half goes to the child.
	if !give.Eq(geom.R(0, 0, 50, 50)) {
		t.Errorf("give = %v, want left half", give)
	}
	if !keep.Eq(geom.R(50, 0, 100, 50)) {
		t.Errorf("keep = %v, want right half", keep)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("after split: %v", err)
	}
	if p, _ := m.Parent(2); p != 1 {
		t.Errorf("parent of 2 = %v, want 1", p)
	}
	kids := m.Children(1)
	if len(kids) != 1 || kids[0] != 2 {
		t.Errorf("children of 1 = %v", kids)
	}
}

func TestSplitErrors(t *testing.T) {
	m := mustMap(t, geom.R(0, 0, 100, 100), 1)
	if _, _, err := m.Split(9, 2, nil); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("unknown server: %v", err)
	}
	if _, _, err := m.Split(1, 1, nil); !errors.Is(err, ErrDuplicateOwner) {
		t.Errorf("duplicate owner: %v", err)
	}
	if _, _, err := m.Split(1, id.None, nil); err == nil {
		t.Error("invalid child must be rejected")
	}
}

func TestSplitTooSmall(t *testing.T) {
	m := mustMap(t, geom.R(0, 0, MinSplitExtent*1.5, MinSplitExtent*1.5), 1)
	if _, _, err := m.Split(1, 2, nil); !errors.Is(err, ErrTooSmall) {
		t.Errorf("want ErrTooSmall, got %v", err)
	}
}

// ownersOf lists every server whose partition contains p: the half-open
// tiling must make that exactly one for any point of the world.
func ownersOf(m *Map, p geom.Point) []id.ServerID {
	var owners []id.ServerID
	for _, part := range m.Partitions() {
		if part.Bounds.Contains(p) {
			owners = append(owners, part.Owner)
		}
	}
	return owners
}

func TestOwnerLookup(t *testing.T) {
	m := mustMap(t, geom.R(0, 0, 100, 100), 1)
	if _, _, err := m.Split(1, 2, SplitToLeft{}); err != nil {
		t.Fatal(err)
	}
	// Server 2 has [0,50), server 1 has [50,100).
	tests := []struct {
		p    geom.Point
		want id.ServerID
	}{
		{geom.Pt(10, 10), 2},
		{geom.Pt(75, 10), 1},
		{geom.Pt(50, 50), 1},    // boundary belongs to the right (half-open)
		{geom.Pt(49.999, 0), 2}, // just left of the cut
	}
	for _, tt := range tests {
		if got := ownersOf(m, tt.p); !slices.Equal(got, []id.ServerID{tt.want}) {
			t.Errorf("owners of %v = %v, want only %v", tt.p, got, tt.want)
		}
	}
}

func TestReclaimRestoresParent(t *testing.T) {
	m := mustMap(t, geom.R(0, 0, 100, 100), 1)
	world := m.State().World
	if _, _, err := m.Split(1, 2, SplitToLeft{}); err != nil {
		t.Fatal(err)
	}
	parent, merged, err := m.Reclaim(2)
	if err != nil {
		t.Fatalf("Reclaim: %v", err)
	}
	if parent != 1 {
		t.Errorf("parent = %v, want 1", parent)
	}
	if !merged.Eq(world) {
		t.Errorf("merged = %v, want whole world", merged)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
	if err := m.Validate(); err != nil {
		t.Errorf("after reclaim: %v", err)
	}
}

func TestReclaimErrors(t *testing.T) {
	m := mustMap(t, geom.R(0, 0, 100, 100), 1)
	if _, _, err := m.Reclaim(1); !errors.Is(err, ErrRootReclaim) {
		t.Errorf("root reclaim: %v", err)
	}
	if _, _, err := m.Reclaim(42); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("unknown server: %v", err)
	}
	// Build a chain 1 -> 2 -> 3 where 2 has a child; reclaiming 2 must fail.
	if _, _, err := m.Split(1, 2, SplitToLeft{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Split(2, 3, SplitToLeft{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Reclaim(2); !errors.Is(err, ErrNotLeaf) {
		t.Errorf("non-leaf reclaim: %v", err)
	}
	// Reclaiming the leaf then the middle works.
	if _, _, err := m.Reclaim(3); err != nil {
		t.Fatalf("reclaim leaf: %v", err)
	}
	if _, _, err := m.Reclaim(2); err != nil {
		t.Fatalf("reclaim middle: %v", err)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

func TestReclaimableChildren(t *testing.T) {
	m := mustMap(t, geom.R(0, 0, 100, 100), 1)
	if _, _, err := m.Split(1, 2, SplitToLeft{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Split(1, 3, SplitToLeft{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Split(2, 4, SplitToLeft{}); err != nil {
		t.Fatal(err)
	}
	// Only a leaf whose rectangle still merges with its parent's can go:
	// 3 (child of 1) and 4 (child of 2) are leaves, 2 has a child.
	for child, want := range map[id.ServerID]bool{1: false, 2: false, 3: true, 4: true} {
		if got := m.CanReclaim(child); got != want {
			t.Errorf("CanReclaim(%v) = %v, want %v", child, got, want)
		}
	}
}

func TestVersionAdvances(t *testing.T) {
	m := mustMap(t, geom.R(0, 0, 100, 100), 1)
	v0 := m.Version()
	if _, _, err := m.Split(1, 2, nil); err != nil {
		t.Fatal(err)
	}
	v1 := m.Version()
	if v1 <= v0 {
		t.Errorf("version did not advance on split: %d -> %d", v0, v1)
	}
	if _, _, err := m.Reclaim(2); err != nil {
		t.Fatal(err)
	}
	if m.Version() <= v1 {
		t.Error("version did not advance on reclaim")
	}
}

type badPolicy struct{}

func (badPolicy) Split(b geom.Rect) (geom.Rect, geom.Rect) { return b, b }
func (badPolicy) Name() string                             { return "bad" }

func TestSplitPolicyInvariantEnforced(t *testing.T) {
	m := mustMap(t, geom.R(0, 0, 100, 100), 1)
	if _, _, err := m.Split(1, 2, badPolicy{}); err == nil {
		t.Error("overlapping policy output must be rejected")
	}
	if m.Len() != 1 {
		t.Error("failed split must not mutate the map")
	}
}

// TestRandomSplitReclaimFuzz drives a random sequence of splits and
// reclamations and checks the tiling + tree invariants after every step.
// This is the core safety property of the whole middleware: no point of the
// world is ever owned by zero or two servers.
func TestRandomSplitReclaimFuzz(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	m := mustMap(t, geom.R(0, 0, 1024, 1024), 1)
	var gen id.Generator
	gen.NextServer() // consume 1, used by root
	live := []id.ServerID{1}
	for step := 0; step < 400; step++ {
		if rnd.Intn(2) == 0 || len(live) == 1 {
			victim := live[rnd.Intn(len(live))]
			child := gen.NextServer()
			if _, _, err := m.Split(victim, child, SplitToLeft{}); err != nil {
				if errors.Is(err, ErrTooSmall) {
					continue
				}
				t.Fatalf("step %d: split %v: %v", step, victim, err)
			}
			live = append(live, child)
		} else {
			victim := live[rnd.Intn(len(live))]
			if !m.CanReclaim(victim) {
				continue
			}
			if _, _, err := m.Reclaim(victim); err != nil {
				t.Fatalf("step %d: reclaim %v: %v", step, victim, err)
			}
			for i, s := range live {
				if s == victim {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("step %d: invariant broken: %v", step, err)
		}
		// Every sampled point must lie in exactly one partition.
		for i := 0; i < 8; i++ {
			p := geom.Pt(rnd.Float64()*1024, rnd.Float64()*1024)
			if owners := ownersOf(m, p); len(owners) != 1 {
				t.Fatalf("step %d: %v is owned by %v, want exactly one server", step, p, owners)
			}
		}
	}
}

func TestPartitionsSnapshotIsolated(t *testing.T) {
	m := mustMap(t, geom.R(0, 0, 100, 100), 1)
	parts := m.Partitions()
	parts[0].Bounds = geom.R(0, 0, 1, 1) // mutate the copy
	b, _ := m.Bounds(1)
	if !b.Eq(geom.R(0, 0, 100, 100)) {
		t.Error("Partitions must return a copy")
	}
}

func TestBoundsUnknown(t *testing.T) {
	m := mustMap(t, geom.R(0, 0, 100, 100), 1)
	if _, err := m.Bounds(77); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("want ErrUnknownServer, got %v", err)
	}
	if _, err := m.Parent(77); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("want ErrUnknownServer, got %v", err)
	}
}

func TestReplaceOwnerRoot(t *testing.T) {
	m := mustMap(t, geom.R(0, 0, 10, 10), 1)
	bounds, err := m.ReplaceOwner(1, 2)
	if err != nil {
		t.Fatalf("ReplaceOwner: %v", err)
	}
	if !bounds.Eq(geom.R(0, 0, 10, 10)) {
		t.Errorf("transferred bounds = %v", bounds)
	}
	if root := m.State().Root; root != 2 {
		t.Errorf("Root = %v, want 2", root)
	}
	if got := ownersOf(m, geom.Pt(5, 5)); !slices.Equal(got, []id.ServerID{2}) {
		t.Errorf("owners = %v, want only 2", got)
	}
	if _, err := m.Bounds(1); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("old owner still known: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestReplaceOwnerMidTreeRewiresEdges(t *testing.T) {
	// Build 1 -> 2 -> 3 by splitting twice, then replace the middle node.
	m := mustMap(t, geom.R(0, 0, 100, 100), 1)
	if _, _, err := m.Split(1, 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Split(2, 3, nil); err != nil {
		t.Fatal(err)
	}
	oldBounds, _ := m.Bounds(2)
	v := m.Version()
	bounds, err := m.ReplaceOwner(2, 9)
	if err != nil {
		t.Fatalf("ReplaceOwner: %v", err)
	}
	if !bounds.Eq(oldBounds) {
		t.Errorf("bounds = %v, want %v", bounds, oldBounds)
	}
	if m.Version() != v+1 {
		t.Errorf("version = %d, want %d", m.Version(), v+1)
	}
	if p, _ := m.Parent(9); p != 1 {
		t.Errorf("Parent(9) = %v, want 1", p)
	}
	if p, _ := m.Parent(3); p != 9 {
		t.Errorf("Parent(3) = %v, want 9", p)
	}
	if kids := m.Children(9); len(kids) != 1 || kids[0] != 3 {
		t.Errorf("Children(9) = %v", kids)
	}
	if kids := m.Children(1); len(kids) != 1 || kids[0] != 9 {
		t.Errorf("Children(1) = %v", kids)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// The replacement slots into the reclaim chain exactly where the old
	// owner was: reclaiming 3 into 9 must still work.
	if !m.CanReclaim(3) {
		t.Error("CanReclaim(3) = false after replacement")
	}
	if _, _, err := m.Reclaim(3); err != nil {
		t.Errorf("Reclaim(3): %v", err)
	}
}

func TestReplaceOwnerErrors(t *testing.T) {
	m := mustMap(t, geom.R(0, 0, 100, 100), 1)
	if _, _, err := m.Split(1, 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReplaceOwner(42, 9); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("unknown old: %v", err)
	}
	if _, err := m.ReplaceOwner(1, 2); !errors.Is(err, ErrDuplicateOwner) {
		t.Errorf("duplicate next: %v", err)
	}
	if _, err := m.ReplaceOwner(1, id.None); err == nil {
		t.Error("invalid next must be rejected")
	}
	if err := m.Validate(); err != nil {
		t.Errorf("failed replaces must not corrupt the map: %v", err)
	}
}
