package scratch

import "testing"

func TestTakeDoneReusesAndClears(t *testing.T) {
	var b Buf[*int]
	v := 7
	s := b.Take()
	if len(s) != 0 {
		t.Fatalf("Take returned len %d", len(s))
	}
	s = append(s, &v, &v, &v)
	b.Done(s)
	if s[0] != nil || s[1] != nil || s[2] != nil {
		t.Error("Done must clear the consumed elements")
	}
	s2 := b.Take()
	if cap(s2) < 3 {
		t.Errorf("capacity not retained: %d", cap(s2))
	}
	if len(s2) != 0 {
		t.Errorf("Take after Done returned len %d", len(s2))
	}
}

func TestDoneKeepsLargerArray(t *testing.T) {
	var b Buf[int]
	small := append(b.Take(), 1)
	b.Done(small)
	grown := append(b.Take(), make([]int, 100)...)
	b.Done(grown)
	if got := cap(b.Take()); got < 100 {
		t.Errorf("grown capacity lost: %d", got)
	}
	// A smaller use must not shrink the retained array.
	tiny := append(b.Take(), 1)
	b.Done(tiny)
	if got := cap(b.Take()); got < 100 {
		t.Errorf("capacity shrank after small use: %d", got)
	}
}

func TestZeroAllocSteadyState(t *testing.T) {
	var b Buf[int]
	warm := append(b.Take(), make([]int, 64)...)
	b.Done(warm)
	allocs := testing.AllocsPerRun(100, func() {
		s := b.Take()
		for i := 0; i < 64; i++ {
			s = append(s, i)
		}
		b.Done(s)
	})
	if allocs != 0 {
		t.Errorf("steady state allocates %.1f/op", allocs)
	}
}
