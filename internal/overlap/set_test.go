package overlap

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"matrix/internal/id"
)

func TestNewSetNormalizes(t *testing.T) {
	tests := []struct {
		name string
		in   []id.ServerID
		want Set
	}{
		{"empty", nil, nil},
		{"single", []id.ServerID{3}, Set{3}},
		{"sorted", []id.ServerID{3, 1, 2}, Set{1, 2, 3}},
		{"dedup", []id.ServerID{2, 2, 1, 1}, Set{1, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NewSet(tt.in...)
			if !slices.Equal(got, tt.want) {
				t.Fatalf("NewSet(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestSetUnion(t *testing.T) {
	tests := []struct {
		a, b, want Set
	}{
		{NewSet(1, 2), NewSet(2, 3), NewSet(1, 2, 3)},
		{nil, NewSet(1), NewSet(1)},
		{NewSet(1), nil, NewSet(1)},
		{nil, nil, nil},
		{NewSet(5, 7), NewSet(1, 9), NewSet(1, 5, 7, 9)},
	}
	buf := Set{99} // AppendUnion keeps what dst held and reuses its storage
	for _, tt := range tests {
		got := tt.a.Union(tt.b)
		if !slices.Equal(got, tt.want) || (got == nil) != (tt.want == nil) {
			t.Errorf("%v.Union(%v) = %#v, want %#v", tt.a, tt.b, got, tt.want)
		}
		if buf = tt.a.AppendUnion(buf[:1], tt.b); !slices.Equal(buf[1:], tt.want) || buf[0] != 99 {
			t.Errorf("%v.AppendUnion(%v) = %v, want {99} then %v", tt.a, tt.b, buf, tt.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = tests[0].a.AppendUnion(buf[:0], tests[0].b) }); allocs != 0 {
		t.Errorf("AppendUnion into a reused slice allocates %.1f/op, budget is 0", allocs)
	}
}

func TestSetKeyCanonical(t *testing.T) {
	if NewSet(3, 1).Key() != NewSet(1, 3).Key() {
		t.Error("Key must be order-insensitive")
	}
	if NewSet(1, 3).Key() == NewSet(1, 2).Key() {
		t.Error("different sets must have different keys")
	}
	if NewSet().Key() != "" {
		t.Error("empty set key must be empty")
	}
	if NewSet(12).Key() == NewSet(1, 2).Key() {
		t.Error("key must be unambiguous between {12} and {1,2}")
	}
}

func TestSetString(t *testing.T) {
	if got := NewSet(2, 1).String(); got != "{1,2}" {
		t.Errorf("String = %q", got)
	}
	var empty Set
	if empty.String() != "{}" {
		t.Errorf("empty String = %q", empty.String())
	}
}

func TestSetClone(t *testing.T) {
	s := NewSet(1, 2)
	c := s.Clone()
	c[0] = 9
	if s[0] != 1 {
		t.Error("Clone shares storage")
	}
	if Set(nil).Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
}

// subsetOf reports whether every element of s is in o.
func subsetOf(s, o Set) bool {
	for _, v := range s {
		if !slices.Contains(o, v) {
			return false
		}
	}
	return true
}

func genSet(rnd *rand.Rand) Set {
	n := rnd.Intn(6)
	ids := make([]id.ServerID, n)
	for i := range ids {
		ids[i] = id.ServerID(rnd.Intn(10) + 1)
	}
	return NewSet(ids...)
}

// Generate implements quick.Generator for Set.
func (Set) Generate(rnd *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(genSet(rnd))
}

func TestSetUnionProperties(t *testing.T) {
	comm := func(a, b Set) bool { return slices.Equal(a.Union(b), b.Union(a)) }
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("union not commutative: %v", err)
	}
	subset := func(a, b Set) bool {
		u := a.Union(b)
		return subsetOf(a, u) && subsetOf(b, u)
	}
	if err := quick.Check(subset, nil); err != nil {
		t.Errorf("operands not subsets of union: %v", err)
	}
	idem := func(a Set) bool { return slices.Equal(a.Union(a), a) }
	if err := quick.Check(idem, nil); err != nil {
		t.Errorf("union not idempotent: %v", err)
	}
}
