// Package netem is a deterministic, seedable network-condition model: it
// decides, packet by packet, whether a message crossing a link is dropped,
// delayed, or blackholed. The same model serves two deployments:
//
//   - the simulation harness consults Model for every client↔server and
//     server↔server hop, turning the simulator's instant lossless delivery
//     into emulated degraded networking (latency + jitter, i.i.d. and
//     Gilbert–Elliott burst loss, backbone partitions, server crashes) while
//     staying byte-identical for a fixed (seed, config) pair;
//   - the live stack wraps any transport.Conn in a netem Conn (see conn.go)
//     so the cmd/ binaries can run real TCP clusters under impairment.
//
// The zero value of every config type is an exact pass-through: no loss, no
// delay, no state — the gate the simulator's determinism contract relies on.
//
// Loss applies to the data plane only (GameUpdate and Forward packets, see
// DataPlane): session control — hellos, welcomes, redirects, state
// transfers, range updates — models a reliable channel and is delayed but
// never randomly lost, mirroring a TCP deployment where congestion loss
// manifests as latency. Partitions and crashes blackhole everything; a
// sustained outage stalls reliable channels too.
package netem

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"matrix/internal/id"
	"matrix/internal/protocol"
)

// LinkConfig describes the impairment applied to one direction of one
// link. The zero value is a perfect link.
type LinkConfig struct {
	// DelayMs is the base one-way delay in milliseconds.
	DelayMs float64
	// JitterMs adds a per-packet uniform random delay in [0, JitterMs).
	// Jitter larger than the consumer's delivery quantum causes
	// reordering: a later packet can draw a shorter delay and overtake an
	// earlier one (bandwidth-free reordering via delayed delivery).
	JitterMs float64
	// Loss is the i.i.d. per-packet loss probability in [0, 1].
	Loss float64
	// BurstLoss is the loss probability while the link's Gilbert–Elliott
	// chain is in the Bad state. Bursts are entered with probability
	// BurstEnter per packet and left with probability BurstExit per
	// packet; BurstEnter == 0 disables the chain entirely.
	BurstLoss float64
	// BurstEnter is the per-packet Good→Bad transition probability.
	BurstEnter float64
	// BurstExit is the per-packet Bad→Good transition probability.
	BurstExit float64
}

// Zero reports whether the link is a perfect pass-through.
func (l LinkConfig) Zero() bool { return l == LinkConfig{} }

// Validate checks field ranges.
func (l LinkConfig) Validate() error {
	if l.DelayMs < 0 || l.JitterMs < 0 {
		return errors.New("netem: negative delay or jitter")
	}
	for _, p := range []float64{l.Loss, l.BurstLoss, l.BurstEnter, l.BurstExit} {
		if p < 0 || p > 1 {
			return fmt.Errorf("netem: probability %v outside [0,1]", p)
		}
	}
	if l.BurstEnter > 0 && l.BurstExit == 0 {
		return errors.New("netem: BurstEnter without BurstExit never leaves the bad state")
	}
	return nil
}

// String renders the non-zero fields in the ParseSpec syntax.
func (l LinkConfig) String() string {
	if l.Zero() {
		return "off"
	}
	s := ""
	add := func(format string, args ...any) {
		if s != "" {
			s += ","
		}
		s += fmt.Sprintf(format, args...)
	}
	if l.DelayMs > 0 {
		add("delay=%gms", l.DelayMs)
	}
	if l.JitterMs > 0 {
		add("jitter=%gms", l.JitterMs)
	}
	if l.Loss > 0 {
		add("loss=%g", l.Loss)
	}
	if l.BurstEnter > 0 {
		add("burst=%g,burst-enter=%g,burst-exit=%g", l.BurstLoss, l.BurstEnter, l.BurstExit)
	}
	return s
}

// Config parameterizes a Model. The zero value disables emulation.
type Config struct {
	// Seed feeds every link's PRNG stream. Zero lets the consumer derive
	// one (the simulator uses its own run seed), so varying the run seed
	// varies the impairment draws too.
	Seed int64
	// Link is the impairment applied to every link. Timed changes
	// (impair/partition/crash script events) mutate the live model.
	Link LinkConfig
}

// Enabled reports whether the config asks for any emulation at all.
func (c Config) Enabled() bool { return !c.Link.Zero() }

// Validate checks the config.
func (c Config) Validate() error { return c.Link.Validate() }

// Endpoint names one end of a link: a server or a client.
type Endpoint struct {
	Server id.ServerID
	Client id.ClientID
}

// ServerEndpoint returns the endpoint for a Matrix/game server pair.
func ServerEndpoint(s id.ServerID) Endpoint { return Endpoint{Server: s} }

// ClientEndpoint returns the endpoint for a game client.
func ClientEndpoint(c id.ClientID) Endpoint { return Endpoint{Client: c} }

// isServer reports whether the endpoint is a server.
func (e Endpoint) isServer() bool { return e.Server != id.None }

// key folds the endpoint into a stable 64-bit identity for link hashing.
func (e Endpoint) key() uint64 {
	if e.isServer() {
		return uint64(e.Server)
	}
	return 1<<63 | uint64(e.Client)
}

// Verdict is the model's decision for one packet.
type Verdict struct {
	// Drop means the packet was lost to the random-loss models.
	Drop bool
	// Severed means the packet hit a blackhole (partition or crash).
	// Severed packets are always dropped.
	Severed bool
	// DelaySec is the one-way latency the packet must experience.
	DelaySec float64
}

// Model is the deterministic network-condition engine. It is not safe for
// concurrent use: the simulator drives it from its single-threaded tick
// loop (each Sim owns its own Model, so worker pools stay race-free).
type Model struct {
	seed    int64
	link    LinkConfig
	links   map[linkKey]*linkState
	crashed map[id.ServerID]bool
	cut     map[id.ServerID]bool
}

type linkKey struct{ from, to uint64 }

// linkState is one directed link's mutable state: its PRNG stream and its
// Gilbert–Elliott loss-chain position.
type linkState struct {
	rng Rand
	bad bool
}

// NewModel builds a model from cfg. The zero config yields a model that
// passes every packet untouched (consumers usually skip the model entirely
// in that case).
func NewModel(cfg Config) *Model {
	return &Model{
		seed:    cfg.Seed,
		link:    cfg.Link,
		links:   make(map[linkKey]*linkState),
		crashed: make(map[id.ServerID]bool),
		cut:     make(map[id.ServerID]bool),
	}
}

// SetLink replaces the impairment applied to every link from now on
// (timed impair script events). Link PRNG streams and burst states carry
// over — only the parameters change.
func (m *Model) SetLink(l LinkConfig) { m.link = l }

// Cut partitions the given servers off the server backbone: every
// server↔server link with exactly one end inside the cut set blackholes.
// Client links are unaffected (the partition severs the inter-server
// network, not the last mile).
func (m *Model) Cut(servers []id.ServerID) {
	for _, s := range servers {
		m.cut[s] = true
	}
}

// Heal reconnects the given servers; an empty list heals every partition.
func (m *Model) Heal(servers []id.ServerID) {
	if len(servers) == 0 {
		clear(m.cut)
		return
	}
	for _, s := range servers {
		delete(m.cut, s)
	}
}

// Crash fail-stops the given servers: they stop processing and every link
// touching them blackholes until Recover. State is retained (the pause
// model of a crashed-then-restarted process whose peers kept their view).
func (m *Model) Crash(servers []id.ServerID) {
	for _, s := range servers {
		m.crashed[s] = true
	}
}

// Recover resumes the given servers; an empty list recovers all.
func (m *Model) Recover(servers []id.ServerID) {
	if len(servers) == 0 {
		clear(m.crashed)
		return
	}
	for _, s := range servers {
		delete(m.crashed, s)
	}
}

// Crashed reports whether a server is currently fail-stopped.
func (m *Model) Crashed(s id.ServerID) bool { return m.crashed[s] }

// Severed reports whether the from→to link is currently blackholed by a
// partition or crash. Consumers holding messages in flight re-check it at
// delivery time: a packet in the pipe when the link went down is lost.
func (m *Model) Severed(from, to Endpoint) bool {
	if from.isServer() && m.crashed[from.Server] {
		return true
	}
	if to.isServer() && m.crashed[to.Server] {
		return true
	}
	if from.isServer() && to.isServer() && m.cut[from.Server] != m.cut[to.Server] {
		return true
	}
	return false
}

// Judge decides one packet's fate on the from→to link. lossEligible says
// whether the packet rides the lossy data plane (see DataPlane); control
// packets are delayed but never randomly dropped. Severed packets consume
// no PRNG draws, so topology events do not shift other links' streams.
func (m *Model) Judge(from, to Endpoint, lossEligible bool) Verdict {
	if m.Severed(from, to) {
		return Verdict{Drop: true, Severed: true}
	}
	needLoss := lossEligible && (m.link.Loss > 0 || m.link.BurstEnter > 0)
	var v Verdict
	v.DelaySec = m.link.DelayMs / 1000
	if !needLoss && m.link.JitterMs == 0 {
		return v // no draws needed: keep the link map lean on delay-only configs
	}
	st := m.state(from, to)
	if needLoss && st.judgeLoss(m.link) {
		return Verdict{Drop: true}
	}
	if m.link.JitterMs > 0 {
		v.DelaySec += st.rng.Float() * m.link.JitterMs / 1000
	}
	return v
}

// state returns (creating on first use) the directed link's state. Each
// link's PRNG stream depends only on the model seed and the endpoints, so
// per-link decision sequences are independent of which other links exist.
func (m *Model) state(from, to Endpoint) *linkState {
	k := linkKey{from.key(), to.key()}
	st, ok := m.links[k]
	if !ok {
		st = &linkState{rng: Rand{State: mix64(mix64(uint64(m.seed)^k.from) ^ k.to)}}
		m.links[k] = st
	}
	return st
}

// judgeLoss runs the loss models: the Gilbert–Elliott chain steps once per
// data packet, and the effective loss probability is the i.i.d. rate in the
// Good state or BurstLoss in the Bad state (whichever is higher, so an
// i.i.d. floor survives bursts).
func (st *linkState) judgeLoss(l LinkConfig) bool {
	if l.BurstEnter > 0 {
		if st.bad {
			if st.rng.Float() < l.BurstExit {
				st.bad = false
			}
		} else if st.rng.Float() < l.BurstEnter {
			st.bad = true
		}
	}
	p := l.Loss
	if st.bad && l.BurstLoss > p {
		p = l.BurstLoss
	}
	return p > 0 && st.rng.Float() < p
}

// CrashedServers returns the currently fail-stopped servers, sorted.
func (m *Model) CrashedServers() []id.ServerID {
	return slices.Sorted(maps.Keys(m.crashed))
}

// LinkState is one directed link's snapshot inside ModelState: the opaque
// endpoint keys, the PRNG position and the Gilbert–Elliott chain state.
type LinkState struct {
	From uint64
	To   uint64
	RNG  uint64
	Bad  bool
}

// ModelState is a Model's serializable snapshot. Links are sorted by
// (From, To) so encoding the same model twice is byte-identical.
type ModelState struct {
	Seed    int64
	Link    LinkConfig
	Links   []LinkState
	Crashed []id.ServerID
	Cut     []id.ServerID
}

// State snapshots the model: current link impairment, every link stream's
// PRNG position and burst state, and the partition/crash sets.
func (m *Model) State() ModelState {
	st := ModelState{
		Seed:    m.seed,
		Link:    m.link,
		Crashed: slices.Sorted(maps.Keys(m.crashed)),
		Cut:     slices.Sorted(maps.Keys(m.cut)),
	}
	keys := make([]linkKey, 0, len(m.links))
	for k := range m.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		ls := m.links[k]
		st.Links = append(st.Links, LinkState{From: k.from, To: k.to, RNG: ls.rng.State, Bad: ls.bad})
	}
	return st
}

// NewModelFromState rebuilds a model mid-run: every link stream resumes at
// its exact PRNG position, so the continued decision sequence is
// byte-identical to an uninterrupted run.
func NewModelFromState(st ModelState) *Model {
	m := NewModel(Config{Seed: st.Seed, Link: st.Link})
	for _, ls := range st.Links {
		m.links[linkKey{ls.From, ls.To}] = &linkState{rng: Rand{State: ls.RNG}, bad: ls.Bad}
	}
	for _, s := range st.Crashed {
		m.crashed[s] = true
	}
	for _, s := range st.Cut {
		m.cut[s] = true
	}
	return m
}

// DataPlane reports whether a message rides the lossy data plane. Game
// updates and their peer forwards are fair game; everything else is
// session or topology control that a real deployment carries reliably.
func DataPlane(m protocol.Message) bool {
	switch m.(type) {
	case *protocol.GameUpdate, *protocol.Forward:
		return true
	}
	return false
}

// Rand is a splitmix64 PRNG: tiny, seedable, and allocation-free, so every
// link affords its own independent stream. It is the repo's one splitmix64:
// the simulator draws its placement decisions from one too. State is the
// whole generator, so a snapshot stores it and a restore resumes the stream.
type Rand struct{ State uint64 }

// Float returns a uniform float64 in [0, 1).
func (r *Rand) Float() float64 {
	r.State += 0x9E3779B97F4A7C15
	return float64(mix64(r.State)>>11) / float64(1<<53)
}

// mix64 is the splitmix64 finalizer, also used to hash link identities
// into seeds.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
