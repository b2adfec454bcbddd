package load

import (
	"strings"
	"testing"
	"time"

	"matrix/internal/clock"
	"matrix/internal/id"
	"matrix/internal/policy"
)

func newTestTracker(cfg Config) (*Tracker, *clock.Virtual) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	tr, err := NewTracker(cfg, clk, nil)
	if err != nil {
		panic(err)
	}
	return tr, clk
}

// childLoad reads child's recorded client count back out of the tracker's
// snapshot, the only place it is visible.
func childLoad(tr *Tracker, child id.ServerID) (int, bool) {
	for _, cs := range tr.State().Children {
		if cs.Child == child {
			return cs.Clients, true
		}
	}
	return 0, false
}

func TestDefaultsMatchPaper(t *testing.T) {
	cfg := policy.DefaultThresholds()
	if cfg.OverloadClients != 300 {
		t.Errorf("OverloadClients = %d, want 300 (paper Fig.2 caption)", cfg.OverloadClients)
	}
	if cfg.UnderloadClients != 150 {
		t.Errorf("UnderloadClients = %d, want 150 (paper Fig.2 caption)", cfg.UnderloadClients)
	}
}

func TestSanitizeZeroConfig(t *testing.T) {
	tr, err := NewTracker(Config{}, nil, nil)
	if err != nil {
		t.Fatalf("NewTracker(zero config) = %v", err)
	}
	cfg := tr.Config()
	if cfg.OverloadClients != 300 || cfg.UnderloadClients != 150 {
		t.Errorf("zero config not defaulted: %+v", cfg)
	}
	if cfg.SplitCooldown <= 0 || cfg.ReclaimHeadroom <= 0 {
		t.Errorf("timings not defaulted: %+v", cfg)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr string // substring of the error, "" = valid
	}{
		{"zero defaults", Config{}, ""},
		{"paper defaults", policy.DefaultThresholds(), ""},
		{"equal thresholds", Config{OverloadClients: 200, UnderloadClients: 200}, ""},
		{"queue trigger off", Config{OverloadQueue: 0}, ""},
		{"queue trigger on", Config{OverloadQueue: 1500}, ""},
		{
			"inverted thresholds",
			Config{OverloadClients: 100, UnderloadClients: 500},
			"UnderloadClients (500) exceeds OverloadClients (100)",
		},
		{
			// Only the explicit overload threshold is given: the underload
			// default (150) must be checked against it, not silently folded.
			"default underload above explicit overload",
			Config{OverloadClients: 100},
			"UnderloadClients (150) exceeds OverloadClients (100)",
		},
		{
			"negative overload queue",
			Config{OverloadQueue: -1},
			"OverloadQueue must be zero (queue trigger off) or positive",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				if _, trErr := NewTracker(tt.cfg, nil, nil); trErr != nil {
					t.Fatalf("NewTracker() = %v, want nil", trErr)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tt.wantErr)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Validate() = %q, want it to contain %q", err, tt.wantErr)
			}
			// The constructor must refuse the same configs Validate refuses.
			if _, trErr := NewTracker(tt.cfg, nil, nil); trErr == nil {
				t.Fatal("NewTracker() accepted a config Validate rejects")
			}
		})
	}
}

func TestShouldSplitCooldown(t *testing.T) {
	cfg := policy.DefaultThresholds()
	tr, clk := newTestTracker(cfg)
	tr.SetLoad(400, 0)
	if !tr.ShouldSplit() {
		t.Fatal("overloaded fresh tracker must split")
	}
	tr.NoteSplit()
	if tr.ShouldSplit() {
		t.Fatal("must not split again inside cooldown")
	}
	clk.Advance(cfg.SplitCooldown)
	if !tr.ShouldSplit() {
		t.Fatal("must split again after cooldown")
	}
	// Not overloaded => never split, even past cooldown.
	tr.SetLoad(100, 0)
	if tr.ShouldSplit() {
		t.Fatal("non-overloaded server must not split")
	}
}

func TestReclaimRequiresDwell(t *testing.T) {
	cfg := policy.DefaultThresholds()
	tr, clk := newTestTracker(cfg)
	tr.SetLoad(50, 0)
	tr.SetChildLoad(2, 40, 0)
	if tr.ReclaimCandidate(2) {
		t.Fatal("reclaim before dwell must be denied")
	}
	clk.Advance(cfg.ReclaimDwell)
	// Dwell is measured from the SetChildLoad that first went low; the
	// condition is re-evaluated on the next report.
	tr.SetChildLoad(2, 40, 0)
	if !tr.ReclaimCandidate(2) {
		t.Fatal("reclaim after dwell must be allowed")
	}
}

func TestReclaimDwellResetsOnSpike(t *testing.T) {
	cfg := policy.DefaultThresholds()
	tr, clk := newTestTracker(cfg)
	tr.SetLoad(50, 0)
	tr.SetChildLoad(2, 40, 0)
	clk.Advance(cfg.ReclaimDwell / 2)
	tr.SetChildLoad(2, 200, 0) // child spikes above underload threshold
	clk.Advance(cfg.ReclaimDwell)
	tr.SetChildLoad(2, 40, 0) // low again, but dwell restarted
	if tr.ReclaimCandidate(2) {
		t.Fatal("dwell must restart after a spike")
	}
	clk.Advance(cfg.ReclaimDwell)
	if !tr.ReclaimCandidate(2) {
		t.Fatal("reclaim after fresh dwell must be allowed")
	}
}

func TestReclaimHeadroomCeiling(t *testing.T) {
	cfg := policy.DefaultThresholds() // ceiling = 0.8*300 = 240
	tr, clk := newTestTracker(cfg)
	// Child individually underloaded but merge would overload the parent.
	tr.SetLoad(220, 0)
	tr.SetChildLoad(2, 100, 0)
	clk.Advance(cfg.ReclaimDwell * 2)
	tr.SetChildLoad(2, 100, 0)
	if tr.ReclaimCandidate(2) {
		t.Fatal("merge exceeding headroom ceiling must be denied")
	}
	// Parent sheds load; now merge is safe after dwell.
	tr.SetLoad(100, 0)
	tr.SetChildLoad(2, 100, 0)
	clk.Advance(cfg.ReclaimDwell)
	tr.SetChildLoad(2, 100, 0)
	if !tr.ReclaimCandidate(2) {
		t.Fatal("safe merge must be allowed")
	}
}

func TestReclaimUnknownChild(t *testing.T) {
	tr, _ := newTestTracker(policy.DefaultThresholds())
	if tr.ReclaimCandidate(9) {
		t.Fatal("unknown child must not be reclaimable")
	}
}

func TestForgetChild(t *testing.T) {
	cfg := policy.DefaultThresholds()
	tr, clk := newTestTracker(cfg)
	tr.SetLoad(10, 0)
	tr.SetChildLoad(2, 10, 0)
	clk.Advance(cfg.ReclaimDwell)
	tr.SetChildLoad(2, 10, 0)
	if !tr.ReclaimCandidate(2) {
		t.Fatal("setup: child should be reclaimable")
	}
	tr.ForgetChild(2)
	if tr.ReclaimCandidate(2) {
		t.Fatal("forgotten child must not be reclaimable")
	}
	if _, ok := childLoad(tr, 2); ok {
		t.Fatal("forgotten child load must be gone")
	}
}

func TestChildLoadReadback(t *testing.T) {
	tr, _ := newTestTracker(policy.DefaultThresholds())
	tr.SetChildLoad(3, 123, 0)
	got, ok := childLoad(tr, 3)
	if !ok || got != 123 {
		t.Fatalf("child load in State = %d,%v", got, ok)
	}
}

func TestQueueLenTracking(t *testing.T) {
	tr, _ := newTestTracker(policy.DefaultThresholds())
	tr.SetLoad(10, 55)
	if st := tr.State(); st.QueueLen != 55 || st.Clients != 10 {
		t.Errorf("State after SetLoad(10, 55): Clients = %d, QueueLen = %d", st.Clients, st.QueueLen)
	}
}

// TestReclaimUnderloadBoundary pins the paper's "< 150 clients" edge on the
// path that uses it: a child one client under the threshold is reclaimable
// after the dwell, a child exactly at it never is.
func TestReclaimUnderloadBoundary(t *testing.T) {
	cfg := policy.DefaultThresholds()
	for load, want := range map[int]bool{cfg.UnderloadClients - 1: true, cfg.UnderloadClients: false} {
		tr, clk := newTestTracker(cfg)
		tr.SetLoad(10, 0)
		tr.SetChildLoad(2, load, 0)
		clk.Advance(cfg.ReclaimDwell)
		if got := tr.ReclaimCandidate(2); got != want {
			t.Errorf("child with %d clients: ReclaimCandidate = %v, want %v", load, got, want)
		}
	}
}

// TestNoOscillation simulates the boundary case the hysteresis exists for:
// load hovering exactly at the underload threshold must not produce
// alternating split/reclaim decisions.
func TestNoOscillation(t *testing.T) {
	cfg := policy.DefaultThresholds()
	tr, clk := newTestTracker(cfg)
	flips := 0
	last := false
	for i := 0; i < 100; i++ {
		// Child load oscillates right around the threshold every tick.
		childLoad := cfg.UnderloadClients - 1
		if i%2 == 0 {
			childLoad = cfg.UnderloadClients + 1
		}
		tr.SetLoad(50, 0)
		tr.SetChildLoad(2, childLoad, 0)
		clk.Advance(time.Second)
		cur := tr.ReclaimCandidate(2)
		if cur != last {
			flips++
		}
		last = cur
	}
	if flips > 0 {
		t.Errorf("reclaim decision flapped %d times; dwell must suppress oscillation", flips)
	}
}

func TestForgetChildMidDwellClearsTimer(t *testing.T) {
	// A child forgotten halfway through its dwell (e.g. it crashed and the
	// topology moved on) must not leave a stale dwell timer behind: if the
	// same child ID reappears, its dwell starts from scratch.
	cfg := policy.DefaultThresholds()
	tr, clk := newTestTracker(cfg)
	tr.SetLoad(50, 0)
	tr.SetChildLoad(2, 40, 0)
	clk.Advance(cfg.ReclaimDwell / 2)
	tr.ForgetChild(2)

	// The child re-registers (a crash-recovered server re-adopting the
	// same ID) and reports low load again after more than the remaining
	// dwell has passed on the clock.
	clk.Advance(cfg.ReclaimDwell / 2)
	tr.SetChildLoad(2, 40, 0)
	if tr.ReclaimCandidate(2) {
		t.Fatal("re-learned child must dwell from scratch, not inherit the pre-forget timer")
	}
	clk.Advance(cfg.ReclaimDwell)
	tr.SetChildLoad(2, 40, 0)
	if !tr.ReclaimCandidate(2) {
		t.Fatal("re-learned child must become reclaimable after a full fresh dwell")
	}
}

func TestReSetChildLoadAfterForgetHighLoad(t *testing.T) {
	// Forget, then the child comes back hot: it must not be reclaimable,
	// and the old (low) load must not linger anywhere.
	cfg := policy.DefaultThresholds()
	tr, clk := newTestTracker(cfg)
	tr.SetLoad(50, 0)
	tr.SetChildLoad(2, 40, 0)
	clk.Advance(cfg.ReclaimDwell * 2)
	tr.SetChildLoad(2, 40, 0)
	if !tr.ReclaimCandidate(2) {
		t.Fatal("setup: child should be reclaimable")
	}
	tr.ForgetChild(2)
	tr.SetChildLoad(2, 280, 0)
	if got, ok := childLoad(tr, 2); !ok || got != 280 {
		t.Fatalf("ChildLoad = %d,%v; want 280,true", got, ok)
	}
	clk.Advance(cfg.ReclaimDwell * 3)
	tr.SetChildLoad(2, 280, 0)
	if tr.ReclaimCandidate(2) {
		t.Fatal("hot re-learned child must not be reclaimable however long it dwells")
	}
}

func TestForgetChildDoesNotDisturbSiblings(t *testing.T) {
	// Forgetting one child (crash scenarios forget mid-run) must leave a
	// sibling's dwell progress intact.
	cfg := policy.DefaultThresholds()
	tr, clk := newTestTracker(cfg)
	tr.SetLoad(50, 0)
	tr.SetChildLoad(2, 40, 0)
	tr.SetChildLoad(3, 40, 0)
	clk.Advance(cfg.ReclaimDwell)
	tr.ForgetChild(2)
	tr.SetChildLoad(3, 40, 0)
	if !tr.ReclaimCandidate(3) {
		t.Fatal("sibling's completed dwell lost when another child was forgotten")
	}
}

func TestSetLoadKeepsForgottenChildForgotten(t *testing.T) {
	// SetLoad re-evaluates every known child's dwell; it must not
	// resurrect a forgotten child.
	cfg := policy.DefaultThresholds()
	tr, clk := newTestTracker(cfg)
	tr.SetLoad(50, 0)
	tr.SetChildLoad(2, 40, 0)
	tr.ForgetChild(2)
	tr.SetLoad(40, 0)
	clk.Advance(cfg.ReclaimDwell * 2)
	tr.SetLoad(40, 0)
	if tr.ReclaimCandidate(2) {
		t.Fatal("SetLoad resurrected a forgotten child")
	}
	if _, ok := childLoad(tr, 2); ok {
		t.Fatal("forgotten child's load reappeared")
	}
}
