// Package overlap implements the paper's localized-consistency machinery:
// consistency sets (Equation 1), overlap regions, and the per-server lookup
// tables the Matrix Coordinator distributes so that Matrix servers can
// resolve "which peers must see this update" with an O(1) table lookup on
// the packet fast path.
package overlap

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"matrix/internal/id"
)

// Set is a sorted, duplicate-free collection of server IDs — the value of a
// consistency set C(σ). The zero value is the empty set.
type Set []id.ServerID

// NewSet builds a normalized Set from arbitrary IDs.
func NewSet(ids ...id.ServerID) Set {
	if len(ids) == 0 {
		return nil
	}
	out := make(Set, len(ids))
	copy(out, ids)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Compact duplicates in place.
	w := 1
	for r := 1; r < len(out); r++ {
		if out[r] != out[r-1] {
			out[w] = out[r]
			w++
		}
	}
	return out[:w]
}

// Union returns the union of s and o as a new Set (nil when both are empty).
func (s Set) Union(o Set) Set { return s.AppendUnion(nil, o) }

// AppendUnion appends the union of s and o to dst, which must share no storage
// with either; reusing dst (`buf = s.AppendUnion(buf[:0], o)`) avoids allocating.
func (s Set) AppendUnion(dst, o Set) Set {
	dst = slices.Grow(dst, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			dst = append(dst, s[i])
			i++
		case s[i] > o[j]:
			dst = append(dst, o[j])
			j++
		default:
			dst = append(dst, s[i])
			i++
			j++
		}
	}
	dst = append(dst, s[i:]...)
	return append(dst, o[j:]...)
}

// Clone returns a copy of s.
func (s Set) Clone() Set {
	if len(s) == 0 {
		return nil
	}
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Key returns a canonical string usable as a map key for grouping points by
// identical consistency sets (how overlap regions are defined).
func (s Set) Key() string {
	if len(s) == 0 {
		return ""
	}
	var b strings.Builder
	for i, e := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(e), 10))
	}
	return b.String()
}

// String implements fmt.Stringer.
func (s Set) String() string {
	if len(s) == 0 {
		return "{}"
	}
	return "{" + s.Key() + "}"
}
