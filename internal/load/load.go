// Package load implements Matrix's load-management *mechanism*: the
// Tracker holds one server's view of its own and its children's load and
// maintains the anti-oscillation bookkeeping (split cooldown anchor,
// per-child combined-under dwell timers). The *decisions* — should this
// server split now, may this child be reclaimed — are delegated to an
// internal/policy.Policy; the default "paper" policy reproduces the
// paper's experiment thresholds ("a server is overloaded when it has
// 300+ clients", reclaimed children are "underloaded (< 150 clients)")
// and its "simple heuristics (not described) to prevent oscillations".
package load

import (
	"sort"
	"time"

	"matrix/internal/clock"
	"matrix/internal/id"
	"matrix/internal/policy"
)

// Config is the paper's tunables; the one definition, with its defaults
// and validation, is policy.Thresholds.
type Config = policy.Thresholds

// Tracker holds one Matrix server's view of its own and its children's load
// and routes the two topology questions — ShouldSplit and ReclaimCandidate
// — through its policy. It is not safe for concurrent use: its one owner, a
// core.Server, is called from one goroutine.
type Tracker struct {
	cfg        Config
	clk        clock.Clock
	pol        policy.Policy
	clients    int
	queueLen   int
	lastSplit  time.Time
	haveSplit  bool
	childLoad  map[id.ServerID]int
	childQueue map[id.ServerID]int
	belowSince map[id.ServerID]time.Time
	// Verdict caches for the decision audit: the flight recorder reads
	// them when the coordinator's reply lands (same tick), so the audit
	// reports exactly the inputs the policy read. Not serialized.
	splitVerdict    policy.Verdict
	reclaimVerdicts map[id.ServerID]policy.Verdict
}

// NewTracker creates a Tracker with the given thresholds; a nil clk uses
// the wall clock, a nil pol the default paper policy. The config is
// validated (see policy.Thresholds.Validate) and defaults are filled in.
func NewTracker(cfg Config, clk clock.Clock, pol policy.Policy) (*Tracker, error) {
	sc, err := cfg.Sanitized()
	if err != nil {
		return nil, err
	}
	if clk == nil {
		clk = clock.Wall{}
	}
	if pol == nil {
		if pol, err = policy.New(""); err != nil {
			return nil, err
		}
	}
	return &Tracker{
		cfg:             sc,
		clk:             clk,
		pol:             pol,
		childLoad:       make(map[id.ServerID]int),
		childQueue:      make(map[id.ServerID]int),
		belowSince:      make(map[id.ServerID]time.Time),
		reclaimVerdicts: make(map[id.ServerID]policy.Verdict),
	}, nil
}

// Config returns the sanitized policy in effect.
func (t *Tracker) Config() Config {
	return t.cfg
}

// SetLoad records this server's current client count and receive-queue
// length (from the game server's periodic load report). Because the reclaim
// condition depends on the *combined* parent+child load, the dwell timers of
// all children are re-evaluated here too.
func (t *Tracker) SetLoad(clients, queueLen int) {
	t.clients = clients
	t.queueLen = queueLen
	for child := range t.childLoad {
		t.refreshDwell(child)
	}
}

// refreshDwell starts or resets child's dwell timer according to the
// current combined-load condition.
func (t *Tracker) refreshDwell(child id.ServerID) {
	if t.combinedUnder(child) {
		if _, ok := t.belowSince[child]; !ok {
			t.belowSince[child] = t.clk.Now()
		}
	} else {
		delete(t.belowSince, child)
	}
}

// SetChildLoad records a child's reported client count and queue length
// (the coordinator relays children's load reports to parents so reclaim
// decisions stay local).
func (t *Tracker) SetChildLoad(child id.ServerID, clients, queueLen int) {
	t.childLoad[child] = clients
	t.childQueue[child] = queueLen
	// Maintain the dwell timer: reset it whenever the combined load pops
	// back over the reclaim ceiling.
	t.refreshDwell(child)
}

// ForgetChild drops all state about child (after a reclaim or child death).
func (t *Tracker) ForgetChild(child id.ServerID) {
	delete(t.childLoad, child)
	delete(t.childQueue, child)
	delete(t.belowSince, child)
	delete(t.reclaimVerdicts, child)
}

// ShouldSplit asks the policy whether the server should request a split
// now, given the latest load report and the split history. The verdict
// (with the inputs the policy read) is cached for the decision audit.
func (t *Tracker) ShouldSplit() bool {
	v := t.pol.ShouldSplit(policy.LoadView{
		Now:       t.clk.Now(),
		Clients:   t.clients,
		QueueLen:  t.queueLen,
		HaveSplit: t.haveSplit,
		LastSplit: t.lastSplit,
		Cfg:       t.cfg,
	})
	t.splitVerdict = v
	return v.Act
}

// SplitVerdict returns the policy's verdict from the most recent
// ShouldSplit call (for the decision audit).
func (t *Tracker) SplitVerdict() policy.Verdict {
	return t.splitVerdict
}

// NoteSplit records that a split happened, starting the cooldown and
// feeding the churn event back to the policy.
func (t *Tracker) NoteSplit() {
	t.lastSplit = t.clk.Now()
	t.haveSplit = true
	t.pol.NoteEvent(policy.Event{Now: t.lastSplit, Kind: "split"})
}

// NoteReclaim records that child was reclaimed (churn feedback for
// cost-aware policies).
func (t *Tracker) NoteReclaim(child id.ServerID) {
	t.pol.NoteEvent(policy.Event{Now: t.clk.Now(), Kind: "reclaim", Child: child})
}

// combinedUnder reports whether parent+child load is under the
// reclaim ceiling and the child is individually underloaded. When the
// queue-based overload trigger is enabled, both queues must also be well
// under it: a merge that reassembles an overloaded queue would immediately
// re-split (oscillation).
func (t *Tracker) combinedUnder(child id.ServerID) bool {
	cl, ok := t.childLoad[child]
	if !ok {
		return false
	}
	if cl >= t.cfg.UnderloadClients {
		return false
	}
	if t.cfg.OverloadQueue > 0 {
		quiet := t.cfg.OverloadQueue / 4
		if t.queueLen > quiet || t.childQueue[child] > quiet {
			return false
		}
	}
	ceiling := int(float64(t.cfg.OverloadClients) * t.cfg.ReclaimHeadroom)
	return t.clients+cl < ceiling
}

// ReclaimCandidate asks the policy whether child can be reclaimed now.
// The tracker supplies the mechanism's combined-under condition and the
// child's quiet-streak anchor; the verdict is cached for the audit.
func (t *Tracker) ReclaimCandidate(child id.ServerID) bool {
	cv := policy.ChildView{ID: child, Below: t.combinedUnder(child)}
	if cl, ok := t.childLoad[child]; ok {
		cv.Known = true
		cv.Clients = cl
		cv.QueueLen = t.childQueue[child]
	}
	if since, ok := t.belowSince[child]; ok {
		cv.BelowSince = since
	}
	v := t.pol.ShouldReclaim(policy.FamilyView{
		Now:      t.clk.Now(),
		Clients:  t.clients,
		QueueLen: t.queueLen,
		Child:    cv,
		Cfg:      t.cfg,
	})
	t.reclaimVerdicts[child] = v
	return v.Act
}

// ReclaimVerdict returns the policy's verdict from the most recent
// ReclaimCandidate call for child (for the decision audit).
func (t *Tracker) ReclaimVerdict(child id.ServerID) policy.Verdict {
	return t.reclaimVerdicts[child]
}

// Policy returns the tracker's policy name.
func (t *Tracker) Policy() string {
	return t.pol.Name()
}

// PolicyState snapshots the policy's internal state (nil for stateless
// policies such as paper).
func (t *Tracker) PolicyState() []byte {
	return t.pol.State()
}

// RestorePolicyState rebuilds the policy's internal state from a
// PolicyState snapshot.
func (t *Tracker) RestorePolicyState(b []byte) error {
	return t.pol.RestoreState(b)
}

// ChildState is one child's snapshot inside TrackerState.
type ChildState struct {
	Child    id.ServerID
	Clients  int
	QueueLen int
	// Below reports whether the dwell timer is running; BelowSinceNs is its
	// start, nanoseconds since the Unix epoch on the tracker's clock.
	Below        bool
	BelowSinceNs int64
}

// TrackerState is a Tracker's serializable snapshot (policy config and clock
// excluded — they are construction inputs). Children are sorted by ID.
type TrackerState struct {
	Clients     int
	QueueLen    int
	HaveSplit   bool
	LastSplitNs int64
	Children    []ChildState
}

// State snapshots the tracker's mutable state.
func (t *Tracker) State() TrackerState {
	st := TrackerState{
		Clients:   t.clients,
		QueueLen:  t.queueLen,
		HaveSplit: t.haveSplit,
	}
	if t.haveSplit {
		st.LastSplitNs = t.lastSplit.UnixNano()
	}
	kids := make([]id.ServerID, 0, len(t.childLoad))
	for c := range t.childLoad {
		kids = append(kids, c)
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
	for _, c := range kids {
		cs := ChildState{Child: c, Clients: t.childLoad[c], QueueLen: t.childQueue[c]}
		if since, ok := t.belowSince[c]; ok {
			cs.Below = true
			cs.BelowSinceNs = since.UnixNano()
		}
		st.Children = append(st.Children, cs)
	}
	return st
}

// RestoreState overwrites the tracker's mutable state from a snapshot,
// keeping its policy config and clock. Dwell timers resume exactly where
// they were.
func (t *Tracker) RestoreState(st TrackerState) {
	t.clients = st.Clients
	t.queueLen = st.QueueLen
	t.haveSplit = st.HaveSplit
	t.lastSplit = time.Time{}
	if st.HaveSplit {
		t.lastSplit = time.Unix(0, st.LastSplitNs)
	}
	t.childLoad = make(map[id.ServerID]int, len(st.Children))
	t.childQueue = make(map[id.ServerID]int, len(st.Children))
	t.belowSince = make(map[id.ServerID]time.Time, len(st.Children))
	t.splitVerdict = policy.Verdict{}
	t.reclaimVerdicts = make(map[id.ServerID]policy.Verdict, len(st.Children))
	for _, cs := range st.Children {
		t.childLoad[cs.Child] = cs.Clients
		t.childQueue[cs.Child] = cs.QueueLen
		if cs.Below {
			t.belowSince[cs.Child] = time.Unix(0, cs.BelowSinceNs)
		}
	}
}
