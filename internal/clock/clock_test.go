package clock

import (
	"sync"
	"testing"
	"time"
)

func TestWallAdvances(t *testing.T) {
	var c Wall
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Error("wall clock went backwards")
	}
	if c.Since(a) < 0 {
		t.Error("Since negative")
	}
}

func TestVirtualAdvance(t *testing.T) {
	origin := time.Unix(1000, 0)
	v := NewVirtual(origin)
	if !v.Now().Equal(origin) {
		t.Fatalf("Now = %v, want origin", v.Now())
	}
	v.Advance(5 * time.Second)
	if got := v.Now(); !got.Equal(origin.Add(5 * time.Second)) {
		t.Fatalf("Now = %v", got)
	}
	if got := v.Since(origin); got != 5*time.Second {
		t.Fatalf("Since = %v", got)
	}
}

func TestVirtualNegativeAdvanceIgnored(t *testing.T) {
	v := NewVirtual(time.Unix(1000, 0))
	before := v.Now()
	v.Advance(-time.Second)
	if !v.Now().Equal(before) {
		t.Error("negative advance must be a no-op")
	}
}

func TestVirtualConcurrent(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				v.Advance(time.Millisecond)
				_ = v.Now()
			}
		}()
	}
	wg.Wait()
	if got := v.Now(); !got.Equal(time.Unix(4, 0)) {
		t.Fatalf("Now = %v, want 4s total", got)
	}
}
