package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	tests := []struct {
		name string
		got  Point
		want Point
	}{
		{"add", Pt(1, 2).Add(Pt(3, 4)), Pt(4, 6)},
		{"sub", Pt(1, 2).Sub(Pt(3, 4)), Pt(-2, -2)},
		{"scale", Pt(1, -2).Scale(2.5), Pt(2.5, -5)},
		{"add-zero", Pt(7, 9).Add(Pt(0, 0)), Pt(7, 9)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got != tt.want {
				t.Fatalf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestPointNorm(t *testing.T) {
	if got := Pt(3, 4).Norm(); got != 5 {
		t.Fatalf("Norm() = %v, want 5", got)
	}
	if got := Pt(0, 0).Norm(); got != 0 {
		t.Fatalf("Norm() = %v, want 0", got)
	}
}

func TestRectEmpty(t *testing.T) {
	tests := []struct {
		name string
		r    Rect
		want bool
	}{
		{"zero", Rect{}, true},
		{"inverted-x", R(5, 0, 4, 10), true},
		{"inverted-y", R(0, 5, 10, 4), true},
		{"line-x", R(0, 0, 0, 10), true},
		{"normal", R(0, 0, 10, 10), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.Empty(); got != tt.want {
				t.Fatalf("Empty() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRectDims(t *testing.T) {
	r := R(1, 2, 4, 10)
	if got := r.Width(); got != 3 {
		t.Errorf("Width = %v, want 3", got)
	}
	if got := r.Height(); got != 8 {
		t.Errorf("Height = %v, want 8", got)
	}
	if got := r.Area(); got != 24 {
		t.Errorf("Area = %v, want 24", got)
	}
	if got := r.Center(); got != Pt(2.5, 6) {
		t.Errorf("Center = %v, want (2.5,6)", got)
	}
	var empty Rect
	if empty.Width() != 0 || empty.Height() != 0 || empty.Area() != 0 {
		t.Errorf("empty rect dims should be zero")
	}
}

func TestRectContainsHalfOpen(t *testing.T) {
	r := R(0, 0, 10, 10)
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(0, 0), true},    // min corner included
		{Pt(10, 10), false}, // max corner excluded
		{Pt(10, 5), false},  // max-x edge excluded
		{Pt(5, 10), false},  // max-y edge excluded
		{Pt(0, 9.999), true},
		{Pt(5, 5), true},
		{Pt(-0.001, 5), false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !r.ContainsClosed(Pt(10, 10)) {
		t.Errorf("ContainsClosed should include max corner")
	}
}

func TestRectTilingAssignsEveryPointOnce(t *testing.T) {
	// Half-open semantics must assign boundary points to exactly one tile.
	tiles := []Rect{R(0, 0, 5, 5), R(5, 0, 10, 5), R(0, 5, 5, 10), R(5, 5, 10, 10)}
	pts := []Point{Pt(5, 5), Pt(5, 0), Pt(0, 5), Pt(2.5, 5), Pt(5, 7), Pt(0, 0)}
	for _, p := range pts {
		n := 0
		for _, tile := range tiles {
			if tile.Contains(p) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("point %v contained in %d tiles, want exactly 1", p, n)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	tests := []struct {
		name string
		a, b Rect
		want Rect
	}{
		{"overlap", R(0, 0, 10, 10), R(5, 5, 15, 15), R(5, 5, 10, 10)},
		{"disjoint", R(0, 0, 5, 5), R(6, 6, 10, 10), Rect{}},
		{"touching-edge", R(0, 0, 5, 5), R(5, 0, 10, 5), Rect{}},
		{"nested", R(0, 0, 10, 10), R(2, 2, 4, 4), R(2, 2, 4, 4)},
		{"self", R(1, 1, 2, 2), R(1, 1, 2, 2), R(1, 1, 2, 2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.a.Intersect(tt.b)
			if !got.Eq(tt.want) {
				t.Fatalf("Intersect = %v, want %v", got, tt.want)
			}
			if tt.a.Intersects(tt.b) != !tt.want.Empty() {
				t.Fatalf("Intersects disagrees with Intersect emptiness")
			}
		})
	}
}

func TestRectIntersectCommutative(t *testing.T) {
	f := func(a, b Rect) bool {
		ab, ba := a.Intersect(b), b.Intersect(a)
		return ab.Eq(ba) && a.Intersects(b) == b.Intersects(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectUnionContainsBoth(t *testing.T) {
	f := func(a, b Rect) bool {
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	u := R(0, 0, 1, 1).Union(R(5, 5, 6, 6))
	if !u.Eq(R(0, 0, 6, 6)) {
		t.Errorf("Union = %v, want [0,6)x[0,6)", u)
	}
}

func TestRectExpand(t *testing.T) {
	r := R(5, 5, 10, 10)
	if got := r.Expand(2); !got.Eq(R(3, 3, 12, 12)) {
		t.Errorf("Expand(2) = %v", got)
	}
	if got := r.Expand(-3); !got.Empty() {
		t.Errorf("Expand(-3) should be empty, got %v", got)
	}
	var empty Rect
	if got := empty.Expand(5); !got.Empty() {
		t.Errorf("expanding empty rect should remain empty, got %v", got)
	}
}

func TestRectDistanceTo(t *testing.T) {
	r := R(0, 0, 10, 10)
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 5), 0},
		{Pt(0, 0), 0},
		{Pt(13, 5), 3},
		{Pt(5, -4), 4},
		{Pt(13, 14), 5}, // corner: 3-4-5 triangle
		{Pt(-3, -4), 5},
	}
	for _, tt := range tests {
		if got := r.DistanceTo(tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("DistanceTo(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestIntersectsCircle(t *testing.T) {
	r := R(0, 0, 10, 10)
	tests := []struct {
		name string
		c    Point
		rad  float64
		want bool
	}{
		{"inside", Pt(5, 5), 0, true},
		{"outside-near", Pt(12, 5), 2, true},
		{"outside-far", Pt(12, 5), 1.9, false},
		{"corner-hit", Pt(13, 14), 5, true},
		{"corner-miss", Pt(13, 14), 4.99, false},
		{"negative-radius", Pt(5, 5), -1, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.IntersectsCircle(tt.c, tt.rad); got != tt.want {
				t.Fatalf("IntersectsCircle = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIntersectsCircleMatchesExpandApprox(t *testing.T) {
	// The circle test must be at least as strict as the expanded-rect test:
	// expand(R).Contains(p) is a superset of circle intersection.
	f := func(px, py int16, rad uint8) bool {
		r := R(0, 0, 100, 100)
		p := Pt(float64(px)/10, float64(py)/10)
		d := float64(rad)
		if r.IntersectsCircle(p, d) && !r.Expand(d).ContainsClosed(p) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	r := R(0, 0, 10, 10)
	tests := []struct {
		p, want Point
	}{
		{Pt(5, 5), Pt(5, 5)},
		{Pt(-3, 5), Pt(0, 5)},
		{Pt(15, 22), Pt(10, 10)},
	}
	for _, tt := range tests {
		if got := r.Clamp(tt.p); got != tt.want {
			t.Errorf("Clamp(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestSplitAt(t *testing.T) {
	r := R(0, 0, 10, 4)
	lo, hi := r.SplitAt(AxisX, 6)
	if !lo.Eq(R(0, 0, 6, 4)) || !hi.Eq(R(6, 0, 10, 4)) {
		t.Fatalf("SplitAt(X,6) = %v, %v", lo, hi)
	}
	lo, hi = r.SplitAt(AxisY, 1)
	if !lo.Eq(R(0, 0, 10, 1)) || !hi.Eq(R(0, 1, 10, 4)) {
		t.Fatalf("SplitAt(Y,1) = %v, %v", lo, hi)
	}
	// Out-of-range cut clamps: one side empty.
	lo, hi = r.SplitAt(AxisX, -5)
	if !lo.Empty() || !hi.Eq(r) {
		t.Fatalf("SplitAt(X,-5) = %v, %v", lo, hi)
	}
}

func TestSplitHalf(t *testing.T) {
	// Wider than tall: splits on X.
	lo, hi := R(0, 0, 10, 4).SplitHalf()
	if !lo.Eq(R(0, 0, 5, 4)) || !hi.Eq(R(5, 0, 10, 4)) {
		t.Fatalf("SplitHalf wide = %v, %v", lo, hi)
	}
	// Taller than wide: splits on Y.
	lo, hi = R(0, 0, 4, 10).SplitHalf()
	if !lo.Eq(R(0, 0, 4, 5)) || !hi.Eq(R(0, 5, 4, 10)) {
		t.Fatalf("SplitHalf tall = %v, %v", lo, hi)
	}
	// Square prefers X.
	lo, _ = R(0, 0, 6, 6).SplitHalf()
	if !lo.Eq(R(0, 0, 3, 6)) {
		t.Fatalf("SplitHalf square lo = %v", lo)
	}
}

func TestSplitHalfPartitionsExactly(t *testing.T) {
	f := func(x, y int16, w, h uint8) bool {
		r := R(float64(x), float64(y), float64(x)+float64(w)+1, float64(y)+float64(h)+1)
		lo, hi := r.SplitHalf()
		// Halves must not overlap, must tile r, and areas must sum.
		if lo.Intersects(hi) {
			return false
		}
		if !lo.Union(hi).Eq(r) {
			return false
		}
		return math.Abs(lo.Area()+hi.Area()-r.Area()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLongerAxis(t *testing.T) {
	if R(0, 0, 10, 5).LongerAxis() != AxisX {
		t.Error("wide rect should prefer X")
	}
	if R(0, 0, 5, 10).LongerAxis() != AxisY {
		t.Error("tall rect should prefer Y")
	}
	if R(0, 0, 5, 5).LongerAxis() != AxisX {
		t.Error("square should prefer X")
	}
}

func TestAxisString(t *testing.T) {
	if AxisX.String() != "x" || AxisY.String() != "y" {
		t.Error("axis names wrong")
	}
	if Axis(0).String() != "axis(0)" {
		t.Errorf("invalid axis String = %q", Axis(0).String())
	}
}

func TestRectString(t *testing.T) {
	got := R(0, 0, 1, 2).String()
	if got == "" {
		t.Error("String should be non-empty")
	}
}

// Generate lets testing/quick build well-formed (occasionally empty)
// rectangles with coordinates small enough that float rounding cannot
// invalidate geometric identities.
func (Rect) Generate(rnd *rand.Rand, size int) reflect.Value {
	coord := func() float64 { return float64(rnd.Intn(2001)-1000) / 4 }
	r := Rect{MinX: coord(), MinY: coord(), MaxX: coord(), MaxY: coord()}
	if rnd.Intn(10) > 0 { // mostly well-formed
		if r.MaxX < r.MinX {
			r.MinX, r.MaxX = r.MaxX, r.MinX
		}
		if r.MaxY < r.MinY {
			r.MinY, r.MaxY = r.MaxY, r.MinY
		}
	}
	return reflect.ValueOf(r)
}
