// Package clock abstracts time so the same middleware code runs against the
// wall clock in production mode and against a deterministic virtual clock in
// the simulation harness that regenerates the paper's experiments.
package clock

import (
	"sync"
	"time"
)

// Clock supplies the current time. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
}

// Wall is the real system clock.
type Wall struct{}

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Wall) Since(t time.Time) time.Duration { return time.Since(t) }

// Virtual is a manually advanced clock for deterministic simulation. The
// zero value starts at the Unix epoch; use NewVirtual to pick an origin.
type Virtual struct {
	mu  sync.RWMutex
	now time.Time
}

// NewVirtual returns a virtual clock starting at origin.
func NewVirtual(origin time.Time) *Virtual {
	return &Virtual{now: origin}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.now
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration {
	return v.Now().Sub(t)
}

// Advance moves the clock forward by d (negative d is ignored).
func (v *Virtual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now = v.now.Add(d)
}

var (
	_ Clock = Wall{}
	_ Clock = (*Virtual)(nil)
)
