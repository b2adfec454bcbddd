package snapshot

import (
	"strings"
	"testing"

	"matrix/internal/game"
	"matrix/internal/sim"
)

// TestRestoreWithValidation rejects tails that rewrite executed history or
// end before the snapshot point.
func TestRestoreWithValidation(t *testing.T) {
	t.Parallel()
	snap := tiny.ref(t).snap
	bad := append(game.Script{}, tiny.cfg.Script...)
	bad[0].Count = 999 // rewrites an event already executed at t=4
	if _, err := RestoreWith(snap, sim.RestoreOptions{Script: bad}); err == nil {
		t.Error("rewriting an executed event should fail")
	}
	if _, err := RestoreWith(snap, sim.RestoreOptions{DurationSeconds: 5}); err == nil {
		t.Error("duration before the snapshot point should fail")
	}
	if _, err := RestoreWith(snap, sim.RestoreOptions{DurationSeconds: 90}); err != nil {
		t.Errorf("extending the duration should work: %v", err)
	}
}

// TestVersionRejected pins the version gate.
func TestVersionRejected(t *testing.T) {
	t.Parallel()
	data := []byte(`{"Version":99,"Sim":{}}`)
	if _, err := Unmarshal(data); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("unknown version should be rejected, got %v", err)
	}
}
