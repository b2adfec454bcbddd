// /fleetz: a JSON snapshot of the fleet for operators — the region tree,
// per-server load and lease state, and the recent decision ring — served by
// the coordinator host next to /metrics.
package coordinator

import (
	"sort"

	"matrix/internal/geom"
	"matrix/internal/id"
)

// FleetRegion is one partition in the split tree.
type FleetRegion struct {
	Owner    id.ServerID   `json:"owner"`
	Bounds   geom.Rect     `json:"bounds"`
	Parent   id.ServerID   `json:"parent,omitempty"`
	Children []id.ServerID `json:"children,omitempty"`
	// Depth is the partition's distance from the root of the split tree.
	Depth int `json:"depth"`
}

// FleetServer is one registered server's load and lease state.
type FleetServer struct {
	ID       id.ServerID `json:"id"`
	Addr     string      `json:"addr"`
	Active   bool        `json:"active"`
	Clients  int         `json:"clients"`
	Draining bool        `json:"draining,omitempty"`
	Retired  bool        `json:"retired,omitempty"`
	Dead     bool        `json:"dead,omitempty"`
	Beats    uint64      `json:"beats,omitempty"`
	// LastBeatAgoMs is how stale the lease is at snapshot time.
	LastBeatAgoMs   int64  `json:"last_beat_ago_ms,omitempty"`
	CheckpointTick  uint64 `json:"checkpoint_tick,omitempty"`
	CheckpointBytes int    `json:"checkpoint_bytes,omitempty"`
}

// FleetSnapshot is the /fleetz document.
type FleetSnapshot struct {
	World     geom.Rect     `json:"world"`
	Static    bool          `json:"static,omitempty"`
	Regions   []FleetRegion `json:"regions"`
	Servers   []FleetServer `json:"servers"`
	Spares    []id.ServerID `json:"spares,omitempty"`
	Parked    []id.ServerID `json:"parked,omitempty"`
	Splits    int           `json:"splits"`
	Reclaims  int           `json:"reclaims"`
	Deaths    int           `json:"deaths,omitempty"`
	Adoptions int           `json:"adoptions,omitempty"`
	Drains    int           `json:"drains,omitempty"`
	// CheckpointOverflows counts checkpoint uploads dropped for outgrowing
	// protocol.MaxBlobSize.
	CheckpointOverflows int `json:"checkpoint_overflows,omitempty"`
	// Decisions is the recent decision ring, oldest first.
	Decisions []Decision `json:"decisions,omitempty"`
}

// Fleet snapshots the coordinator for /fleetz.
func (c *Coordinator) Fleet() FleetSnapshot {
	snap := FleetSnapshot{
		World:     c.cfg.World,
		Static:    len(c.cfg.Static) > 0,
		Spares:    append([]id.ServerID(nil), c.spares...),
		Parked:    append([]id.ServerID(nil), c.parked...),
		Splits:    c.splits,
		Reclaims:  c.reclaim,
		Deaths:    c.deaths,
		Adoptions: c.adoptions,
		Drains:    c.drains,
		Decisions: append([]Decision(nil), c.decisions...),
		Regions:   []FleetRegion{},
		Servers:   []FleetServer{},
	}
	snap.CheckpointOverflows = c.cpOverflows
	if c.m != nil {
		for _, part := range c.m.Partitions() {
			r := FleetRegion{Owner: part.Owner, Bounds: part.Bounds}
			if p, err := c.m.Parent(part.Owner); err == nil && p.Valid() {
				r.Parent = p
			}
			r.Children = c.m.Children(part.Owner)
			for at := part.Owner; ; {
				p, err := c.m.Parent(at)
				if err != nil || !p.Valid() {
					break
				}
				r.Depth++
				at = p
			}
			snap.Regions = append(snap.Regions, r)
		}
		sort.Slice(snap.Regions, func(i, j int) bool { return snap.Regions[i].Owner < snap.Regions[j].Owner })
	}
	now := c.now()
	ids := make([]id.ServerID, 0, len(c.servers))
	for sid := range c.servers {
		ids = append(ids, sid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, sid := range ids {
		st := c.servers[sid]
		fs := FleetServer{
			ID: sid, Addr: st.addr, Active: st.active, Clients: st.clients,
			Draining: st.draining, Retired: st.retired, Dead: st.dead,
			Beats: st.beats, CheckpointTick: st.cpTick,
			CheckpointBytes: len(c.checkpoints[sid]),
		}
		if c.healthEnabled() && !st.lastBeat.IsZero() {
			fs.LastBeatAgoMs = now.Sub(st.lastBeat).Milliseconds()
		}
		snap.Servers = append(snap.Servers, fs)
	}
	return snap
}
