// Package geom provides the two-dimensional geometry substrate used by the
// Matrix middleware: points, axis-aligned rectangles, distance metrics, and
// the circle/rectangle intersection predicates that define consistency sets.
//
// All coordinates are float64 in the game world's own units. The package is
// deliberately free of any Matrix-specific concepts so it can be reused by
// game workload models and by the partitioning engine alike.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the 2-D game world.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns the vector sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector difference p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Norm returns the Euclidean length of the vector p.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f,%.3f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, closed on the min edge and open on the
// max edge ([MinX,MaxX) × [MinY,MaxY)) so that a tiling of rectangles assigns
// every point to exactly one tile. A Rect with MaxX<=MinX or MaxY<=MinY is
// empty.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// R is shorthand for constructing a Rect.
func R(minX, minY, maxX, maxY float64) Rect {
	return Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

// Empty reports whether the rectangle contains no points.
func (r Rect) Empty() bool { return r.MaxX <= r.MinX || r.MaxY <= r.MinY }

// Width returns the X extent (zero for empty rects).
func (r Rect) Width() float64 {
	if r.Empty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the Y extent (zero for empty rects).
func (r Rect) Height() float64 {
	if r.Empty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the area of the rectangle (zero for empty rects).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Point { return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// Contains reports whether p lies inside r (min-closed, max-open).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// ContainsClosed reports whether p lies inside the closure of r. Use it for
// boundary-insensitive checks such as "could this point possibly interact
// with this partition".
func (r Rect) ContainsClosed(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Intersects reports whether r and s share any interior point.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX < s.MaxX && s.MinX < r.MaxX && r.MinY < s.MaxY && s.MinY < r.MaxY
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Expand returns the rectangle grown by d on every side (the Minkowski sum
// with an axis-aligned square of half-width d). Expanding an empty rect
// yields an empty rect. A negative d shrinks the rectangle and may empty it.
func (r Rect) Expand(d float64) Rect {
	if r.Empty() {
		return Rect{}
	}
	out := Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Clamp returns p moved to the nearest point inside the closure of r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}

// DistanceTo returns the Euclidean distance from p to the closure of r
// (zero when p is inside).
func (r Rect) DistanceTo(p Point) float64 {
	dx := math.Max(math.Max(r.MinX-p.X, 0), p.X-r.MaxX)
	dy := math.Max(math.Max(r.MinY-p.Y, 0), p.Y-r.MaxY)
	return math.Hypot(dx, dy)
}

// IntersectsCircle reports whether the circle of radius rad centered at c
// intersects the closure of r. This is the predicate behind Equation 1 of
// the paper: a partition belongs to C(σ) iff the visibility circle at σ
// touches it.
func (r Rect) IntersectsCircle(c Point, rad float64) bool {
	if r.Empty() || rad < 0 {
		return false
	}
	return r.DistanceTo(c) <= rad
}

// Eq reports exact equality of two rectangles.
func (r Rect) Eq(s Rect) bool {
	return r.MinX == s.MinX && r.MinY == s.MinY && r.MaxX == s.MaxX && r.MaxY == s.MaxY
}

// ContainsRect reports whether s is entirely inside the closure of r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.MinX >= r.MinX && s.MinY >= r.MinY && s.MaxX <= r.MaxX && s.MaxY <= r.MaxY
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.3f,%.3f)x[%.3f,%.3f)", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Axis identifies a coordinate axis.
type Axis int

// Axis values. They start at 1 so the zero value is detectably invalid.
const (
	AxisX Axis = iota + 1
	AxisY
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	switch a {
	case AxisX:
		return "x"
	case AxisY:
		return "y"
	default:
		return fmt.Sprintf("axis(%d)", int(a))
	}
}

// LongerAxis returns the axis along which r is longer, preferring X on ties.
func (r Rect) LongerAxis() Axis {
	if r.Height() > r.Width() {
		return AxisY
	}
	return AxisX
}

// SplitAt cuts r along the given axis at coordinate v, returning the
// lower/left half and the upper/right half. If v lies outside r, one half is
// empty and the other equals r.
func (r Rect) SplitAt(axis Axis, v float64) (lo, hi Rect) {
	if r.Empty() {
		return Rect{}, Rect{}
	}
	switch axis {
	case AxisY:
		v = math.Min(math.Max(v, r.MinY), r.MaxY)
		lo = Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: v}
		hi = Rect{MinX: r.MinX, MinY: v, MaxX: r.MaxX, MaxY: r.MaxY}
	default:
		v = math.Min(math.Max(v, r.MinX), r.MaxX)
		lo = Rect{MinX: r.MinX, MinY: r.MinY, MaxX: v, MaxY: r.MaxY}
		hi = Rect{MinX: v, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
	}
	if lo.Empty() {
		lo = Rect{}
	}
	if hi.Empty() {
		hi = Rect{}
	}
	return lo, hi
}

// SplitHalf cuts r into two equal pieces across its longer axis, the paper's
// "split into two equal pieces" policy. The first return value is the
// lower/left piece (the one Matrix hands to the new child server).
func (r Rect) SplitHalf() (lo, hi Rect) {
	axis := r.LongerAxis()
	if axis == AxisY {
		return r.SplitAt(AxisY, (r.MinY+r.MaxY)/2)
	}
	return r.SplitAt(AxisX, (r.MinX+r.MaxX)/2)
}
