package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"matrix/internal/gameclient"
	"matrix/internal/geom"
	"matrix/internal/host"
	"matrix/internal/id"
	"matrix/internal/protocol"
)

const (
	radius       = 40.0 // visibility radius on every workload
	warmup       = 2 * time.Second
	joinGap      = 10 * time.Millisecond // live-hotspot: one crowd join per gap
	setupRepeats = 3                     // setup_s is the median of this many fleet boots + joins

	// A run is invalid when the generator, not the fleet, shaped the numbers:
	// one update in twenty left a whole server tick late (the 95th
	// percentile, so that a single machine stall cannot void a run any more
	// than it can own a reported percentile), or the generator is starved
	// of CPU on the two cores it shares with the fleet.
	maxLateP95Ms  = 10.0
	maxLoadgenCPU = 0.75
)

// liveSpec is one loopback-TCP workload: a fleet shape and a traffic shape.
type liveSpec struct {
	name    string
	fleet   fleetConfig
	clients int     // joined during set-up, playing for the whole run
	crowd   int     // live-hotspot: extra clients per flash-crowd cycle
	rateHz  float64 // updates per client per second
	payload int     // GameUpdate.Payload bytes
	jitter  float64 // clients move inside this disc around home
	roam    bool    // base clients walk random waypoints instead
	// layout places the base clients' homes.
	layout func(r *rng, n int) []geom.Point
}

var liveSpecs = map[string]liveSpec{
	"live-crowd": {
		name:    "live-crowd",
		fleet:   fleetConfig{Servers: 1, Radius: radius, TickMs: 10, ServiceRate: 100000, ReportMs: 1000},
		clients: 64, rateHz: 10, payload: 0, jitter: 2,
		layout: func(r *rng, n int) []geom.Point {
			homes := make([]geom.Point, n)
			for i := range homes {
				homes[i] = r.disc(geom.Pt(500, 500), 12)
			}
			return homes
		},
	},
	"live-border": {
		name: "live-border",
		fleet: fleetConfig{Servers: 4, Static2x2: true, Middleware: true, Radius: radius, TickMs: 10,
			ServiceRate: 100000, ReportMs: 1000},
		clients: 96, rateHz: 30, payload: 128, jitter: 1.5,
		layout: borderLayout,
	},
	"live-hotspot": {
		name: "live-hotspot",
		fleet: fleetConfig{Servers: 3, Middleware: true, Radius: radius, TickMs: 10, ServiceRate: 100000,
			Overload: 64, Underload: 24, SplitCoolMs: 500, ReclaimDwell: 1000, ReportMs: 100,
			HeartbeatMs: 250, LeaseMisses: 8, CheckpointMs: 1000},
		clients: 32, crowd: 64, rateHz: 10, payload: 0, jitter: 2, roam: true,
		layout: func(r *rng, n int) []geom.Point {
			homes := make([]geom.Point, n)
			for i := range homes {
				homes[i] = geom.Pt(20+r.f64()*960, 20+r.f64()*960)
			}
			return homes
		},
	},
}

// borderLayout scatters homes along the two interior borders of the 2×2
// tiling, 4–30 units off the line they follow and never closer than 4 to
// the other one, so jitter cannot carry anyone across. No two homes are
// placed at a distance where jitter could flip visibility, which makes the
// fan-out of every update an exact function of the homes (see
// expectedFanout).
func borderLayout(r *rng, n int) []geom.Point {
	const jitter = 1.5
	lo, hi := radius-2*jitter-0.5, radius+2*jitter+0.5
	homes := make([]geom.Point, 0, n)
	for len(homes) < n {
		along := 30 + r.f64()*940
		off := 4 + r.f64()*26
		if r.next()&1 == 0 {
			off = -off
		}
		p := geom.Pt(500+off, along)
		if r.next()&1 == 0 {
			p = geom.Pt(along, 500+off)
		}
		if math.Abs(p.X-500) < 4 || math.Abs(p.Y-500) < 4 {
			continue
		}
		ok := true
		for _, q := range homes {
			if d := p.Sub(q).Norm(); d > lo && d < hi {
				ok = false
				break
			}
		}
		if ok {
			homes = append(homes, p)
		}
	}
	// Quadrant by quadrant, so that set-up joins each server's clients in a
	// row and every join waits one full tick of the same server: setup_s
	// then does not depend on how the seed interleaves the quadrants.
	quadrant := func(p geom.Point) int {
		for i, q := range quadrants(world) {
			if q.Contains(p) {
				return i
			}
		}
		return 0
	}
	sort.SliceStable(homes, func(i, j int) bool { return quadrant(homes[i]) < quadrant(homes[j]) })
	return homes
}

// expectedFanout counts, per home, the homes within the visibility radius
// (itself included): the deliveries one update from there must produce.
func expectedFanout(homes []geom.Point) []int {
	out := make([]int, len(homes))
	for i, p := range homes {
		for _, q := range homes {
			if p.Sub(q).Norm() <= radius {
				out[i]++
			}
		}
	}
	return out
}

// runOpts are the knobs of one benchmark run.
type runOpts struct {
	seed    int64
	seconds float64
	inproc  bool   // run the fleet in this process (tests)
	lenient bool   // report the numbers even when a check or validity gate fails (toy scale, debugging)
	scale   int    // >0 overrides the client count (toy scale)
	outDir  string // trace files
}

// passResult is what one measured pass of a workload yields.
type passResult struct {
	attempted, failed uint64
	e2e, layer        values
	probe             probeInput
}

// pass is one boot-join-measure-teardown of a live workload.
type pass struct {
	spec   liveSpec
	o      runOpts
	rng    *rng
	homes  []geom.Point
	fanout []int

	fh    fleetHandle
	rec   *recorder
	gen   *loadgen
	hosts []*host.ClientHost // every client ever dialled, for teardown

	joins, joinFails uint64
	crowdHomes       []geom.Point // first cycle's crowd, for the probes
	settleMs         []float64    // per cycle: crowd joined → second split granted
}

func (r *recorder) sleepUntil(t int64) {
	if d := t - r.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// ownerAddr is where a client at p must join: its quadrant's server on the
// static tiling (the i-th registered server owns the i-th rectangle),
// otherwise the root server.
func (p *pass) ownerAddr(pt geom.Point) string {
	servers := p.fh.Info().Servers
	if p.spec.fleet.Static2x2 {
		for i, q := range quadrants(world) {
			if q.Contains(pt) {
				return servers[i]
			}
		}
	}
	return servers[0]
}

// join dials one client into slot s at pos and activates the slot.
func (p *pass) join(s *slot, pos geom.Point, generation int) error {
	cid := id.ClientID(1 + s.tap.slot + 1000*generation)
	s.tap.mu.Lock()
	s.tap.cid, s.tap.home = cid, pos
	s.tap.redirectAt = 0 // a previous occupant may have left mid-handoff
	s.tap.mu.Unlock()
	p.joins++
	h, err := host.DialClient(host.ClientConfig{
		Network:        s.tap,
		ServerAddr:     p.ownerAddr(pos),
		Client:         gameclient.Config{ID: cid, Pos: pos},
		WelcomeTimeout: time.Second,
		RedialEvery:    -1, // nothing crashes here; a dead connection is a failure, not a retry
	})
	if err != nil {
		p.joinFails++
		return fmt.Errorf("join %v at %v: %w", cid, pos, err)
	}
	p.hosts = append(p.hosts, h)
	s.home, s.pos, s.target = pos, pos, pos
	s.host.Store(h)
	s.active.Store(true)
	return nil
}

// setup boots the fleet and joins the base clients one after the other:
// the part of a run setup_s times.
func (p *pass) setup(wins int, winNs int64) error {
	var err error
	if p.o.inproc {
		p.fh, err = startFleet(p.spec.fleet)
	} else {
		p.fh, err = startProcFleet(p.spec.fleet)
	}
	if err != nil {
		return err
	}
	nslots := p.spec.clients + p.spec.crowd
	p.rec = &recorder{clock: newClock(), winNs: winNs, wins: wins, serverOf: make([]atomic.Uint32, nslots)}
	p.gen = &loadgen{
		rec:      p.rec,
		interval: time.Duration(float64(time.Second) / p.spec.rateHz / float64(nslots)),
		jitter:   p.spec.jitter,
		stride:   20 / p.spec.rateHz, // roaming speed: 20 units/s
		payload:  make([]byte, p.spec.payload),
	}
	farDist := 0.0
	if p.spec.fleet.Static2x2 {
		farDist = radius + 2*p.spec.jitter
	}
	for i := 0; i < nslots; i++ {
		s := &slot{rng: rng{s: p.rng.next()}, roam: p.spec.roam && i < p.spec.clients}
		s.tap = newTap(p.rec, i, farDist)
		p.gen.slots = append(p.gen.slots, s)
	}
	for i, home := range p.homes {
		if err := p.join(p.gen.slots[i], home, 0); err != nil {
			return err
		}
	}
	return nil
}

// teardown disconnects every client and stops the fleet.
func (p *pass) teardown() {
	for _, h := range p.hosts {
		_ = h.Close()
	}
	p.hosts = nil
	if p.fh != nil {
		_ = p.fh.Close()
		p.fh = nil
	}
}

// crowdCycles plays live-hotspot's flash crowds, one per cycle: the crowd
// joins at (250,500)±30 one client per joinGap, plays, despawns and
// disconnects, and the fleet is left quiet for the rest of the cycle so
// both children are reclaimed before the next crowd lands.
func (p *pass) crowdCycles(t0, cycleNs int64, cycles int) {
	quiet := int64(math.Min(4e9, 0.4*float64(cycleNs)))
	crowd := p.gen.slots[p.spec.clients:]
	for c := 0; c < cycles; c++ {
		begin := t0 + int64(c)*cycleNs
		for j, s := range crowd {
			p.rec.sleepUntil(begin + int64(j)*int64(joinGap))
			pos := p.rng.disc(geom.Pt(250, 500), 30)
			if c == 0 {
				p.crowdHomes = append(p.crowdHomes, pos)
			}
			_ = p.join(s, pos, c+1) // a failed join is counted in joinFails
		}
		joined, playEnd := p.rec.now(), begin+cycleNs-quiet
		for p.rec.now() < playEnd {
			if splits, _, err := p.fh.Topo(); err == nil && splits >= 2*(c+1) {
				p.settleMs = append(p.settleMs, float64(p.rec.now()-joined)/1e6)
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		p.rec.sleepUntil(playEnd)
		// Leave: every crowd client sends its despawn, lingers, then
		// disconnects. Closing at once would reset the connection under the
		// deliveries still in flight to it, and a reset can overtake the
		// despawn frame — the server would keep the avatar for ever.
		var leaving []*host.ClientHost
		for _, s := range crowd {
			s.active.Store(false)
			if h := s.host.Swap(nil); h != nil {
				// Mid-handoff the leave would reach the server the avatar has
				// just left: wait for the welcome.
				for wait := 0; !h.Client().Connected() && wait < 20; wait++ {
					time.Sleep(5 * time.Millisecond)
				}
				_ = h.Send(h.Client().MakeAction(protocol.KindDespawn, h.Client().Pos()))
				leaving = append(leaving, h)
			}
		}
		time.Sleep(100 * time.Millisecond)
		for _, h := range leaving {
			_ = h.Close()
		}
	}
}

// collect merges a per-window sample set across every tap.
func (p *pass) collect(pick func(t *tap) []int32) []int32 {
	var out []int32
	for _, s := range p.gen.slots {
		s.tap.mu.Lock()
		out = append(out, pick(s.tap)...)
		s.tap.mu.Unlock()
	}
	return out
}

// tapTotal sums one counter across every tap.
func (p *pass) tapTotal(pick func(t *tap) uint64) (n uint64) {
	for _, s := range p.gen.slots {
		s.tap.mu.Lock()
		n += pick(s.tap)
		s.tap.mu.Unlock()
	}
	return n
}

// observed is everything one measured pass saw, before it is turned into
// metrics and checked.
type observed struct {
	seconds float64
	wins    int
	setupS  []float64
	marks   []fleetMark // one per window edge: wins+1
	final   fleetMark   // after the drain
	phases  tickPhases  // traced passes only
	selfCPU [2]int64    // generator process CPU at the first and last mark (µs)
}

// livePass boots a fleet, joins the clients, warms up, measures for
// seconds and tears everything down. A traced pass attaches a tracer to
// every server and reads the tick phases back. setups is how many times
// the boot+join is repeated for setup_s (the earlier fleets are discarded).
func livePass(spec liveSpec, o runOpts, seconds float64, traced bool, setups int) (*passResult, error) {
	warm := warmup
	if o.scale > 0 {
		warm /= 10
		spec.clients = o.scale
		if spec.crowd > 0 {
			spec.clients, spec.crowd = o.scale/2, o.scale
			spec.fleet.Overload, spec.fleet.Underload = o.scale, o.scale/2
		}
	}
	spec.fleet.Trace = traced
	r := &rng{s: uint64(o.seed)*0x9E3779B97F4A7C15 + 0xB5}
	p := &pass{spec: spec, o: o, rng: r, homes: spec.layout(r, spec.clients)}
	p.fanout = expectedFanout(p.homes)

	// Time-valued metrics are the median of four per-window values, so one
	// machine stall cannot own a tail percentile. live-hotspot plays one
	// flash-crowd cycle per ten seconds (two windows).
	ob := observed{seconds: seconds, wins: 4}
	if seconds < 8 {
		ob.wins = 1
	}
	winNs := int64(seconds * 1e9 / float64(ob.wins))
	cycles := max(1, int(seconds/10))

	defer p.teardown()
	for i := 0; i < setups; i++ {
		p.teardown()
		began := time.Now()
		if err := p.setup(ob.wins, winNs); err != nil {
			return nil, err
		}
		ob.setupS = append(ob.setupS, time.Since(began).Seconds())
	}
	rec, gen := p.rec, p.gen

	// Open loop: the schedule starts now, its first `warm` is discarded, and
	// a mark is taken at every window edge.
	start := rec.now() + int64(20*time.Millisecond)
	t0 := start + int64(warm)
	rec.t0.Store(t0)
	stop, sent, crowdDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() { gen.run(start, stop); close(sent) }()
	go func() {
		if spec.crowd > 0 {
			p.crowdCycles(t0, int64(seconds*1e9)/int64(cycles), cycles)
		}
		close(crowdDone)
	}()
	var markErr error
	for w := 0; w <= ob.wins && markErr == nil; w++ {
		rec.sleepUntil(t0 + int64(w)*winNs)
		var m fleetMark
		m, markErr = p.fh.Mark()
		ob.marks = append(ob.marks, m)
		if w == 0 {
			ob.selfCPU[0] = selfCPUUs()
		}
	}
	ob.selfCPU[1] = selfCPUUs()
	close(stop)
	<-sent
	<-crowdDone
	if markErr != nil {
		return nil, markErr
	}

	// Drain: give in-flight echoes up to their one-second limit.
	for deadline := time.Now().Add(1200 * time.Millisecond); p.echoed() < gen.sent && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	var err error
	if ob.final, err = p.fh.Mark(); err != nil {
		return nil, err
	}
	if traced {
		path := ""
		if o.outDir != "" {
			path = filepath.Join(o.outDir, "trace-"+spec.name+"-fleet.json")
		}
		if ob.phases, err = p.fh.TraceDump(path, int64(seconds*1000)); err != nil {
			return nil, err
		}
	}

	res := p.result(ob)
	wrong, disturbed := p.check(ob, res)
	switch {
	case len(wrong) > 0:
		err = errors.New(spec.name + ": " + strings.Join(append(wrong, disturbed...), "; "))
	case len(disturbed) > 0:
		err = fmt.Errorf("%w: %s: %s", errDisturbed, spec.name, strings.Join(disturbed, "; "))
	}
	if err != nil && o.lenient {
		fmt.Fprintln(os.Stderr, "benchmark: (lenient)", err)
		err = nil
	}
	return res, err
}

// errDisturbed marks a pass whose generator, not the fleet, shaped the
// numbers (see maxLateP95Ms). The machine stalled under it; the pass is
// repeated once before the run is given up.
var errDisturbed = errors.New("measurement disturbed")

// undisturbed runs pass, once more if the first attempt was disturbed.
func undisturbed(pass func() (*passResult, error)) (*passResult, error) {
	res, err := pass()
	if errors.Is(err, errDisturbed) {
		fmt.Fprintln(os.Stderr, "benchmark:", err, "— repeating the pass once")
		res, err = pass()
	}
	return res, err
}

func (p *pass) echoed() uint64 { return p.tapTotal(func(t *tap) uint64 { return t.echoOK }) }

// fleetSum adds one counter over every server of a mark.
func fleetSum(m fleetMark, pick func(s serverMark) uint64) (n float64) {
	for _, s := range m.Servers {
		n += float64(pick(s))
	}
	return n
}

// result turns what the taps and the fleet saw into metrics and records
// the world for the probes.
func (p *pass) result(ob observed) *passResult {
	spec, gen, wins, seconds := p.spec, p.gen, ob.wins, ob.seconds
	perWin := make([][]float64, wins) // sorted ms
	var all []float64
	for w := range perWin {
		perWin[w] = nsToMs(p.collect(func(t *tap) []int32 { return t.win[w] }))
		all = append(all, perWin[w]...)
	}
	sort.Float64s(all)
	measured := float64(len(all))     // deliveries inside the windows
	updates := float64(len(gen.late)) // updates due inside the windows
	var wireBytes float64
	for _, s := range gen.slots {
		wireBytes += float64(s.tap.bytesReceived())
	}
	handoffs := nsToMs(p.collect(func(t *tap) []int32 {
		var h []int32
		for _, w := range t.handoffs {
			h = append(h, w...)
		}
		return h
	}))

	// Fleet counters between the first and the last mark.
	first, last := ob.marks[0], ob.marks[wins]
	delta := func(pick func(s serverMark) uint64) float64 { return fleetSum(last, pick) - fleetSum(first, pick) }
	var p50s, p95s, cpuPer, handoffP50s []float64
	for w := 0; w < wins; w++ {
		p50s = append(p50s, quantile(perWin[w], 0.5))
		p95s = append(p95s, quantile(perWin[w], 0.95))
		cpuPer = append(cpuPer, ratio(float64(ob.marks[w+1].CPUUs-ob.marks[w].CPUUs), float64(len(perWin[w]))))
		if h := nsToMs(p.collect(func(t *tap) []int32 { return t.handoffs[w] })); len(h) > 0 {
			handoffP50s = append(handoffP50s, quantile(h, 0.5))
		}
	}
	var queueMax, ticks float64
	for w := 1; w <= wins; w++ {
		for i, s := range ob.marks[w].Servers {
			queueMax = math.Max(queueMax, float64(s.QueueMax))
			ticks = math.Max(ticks, float64(s.Ticks-first.Servers[i].Ticks))
		}
	}
	late := nsToMs(gen.late)
	echo := nsToMs(p.collect(func(t *tap) []int32 { return t.echo }))
	xsrv := nsToMs(p.collect(func(t *tap) []int32 { return t.xsrv }))
	deliveries := float64(p.tapTotal(func(t *tap) uint64 { return t.deliveries }))
	peerBytes := func(s serverMark) uint64 { return s.Core.PeerBytesOut }

	res := &passResult{
		e2e: values{
			"setup_s":             median(ob.setupS),
			"latency_ms":          median(p50s),
			"latency_p95_ms":      median(p95s),
			"deliveries_per_s":    measured / seconds,
			"allocs_per_delivery": ratio(float64(last.Mallocs-first.Mallocs), measured),
		},
		layer: values{
			"loadgen.late_p95_ms":               quantile(late, 0.95),
			"loadgen.late_p99_ms":               quantile(late, 0.99),
			"loadgen.cpu_frac":                  float64(ob.selfCPU[1]-ob.selfCPU[0]) / (seconds * 1e6),
			"c2c.p99_ms":                        quantile(all, 0.99),
			"c2c.p999_ms":                       quantile(all, 0.999),
			"c2c.max_ms":                        quantile(all, 1),
			"c2c.echo_p50_ms":                   quantile(echo, 0.5),
			"c2c.xserver_p50_ms":                quantile(xsrv, 0.5),
			"host.tick_total_ms_p50":            ob.phases.TotalP50,
			"host.tick_total_ms_p99":            ob.phases.TotalP99,
			"host.tick_drain_ms_p50":            ob.phases.DrainP50,
			"host.tick_process_ms_p50":          ob.phases.ProcessP50,
			"host.tick_route_ms_p50":            ob.phases.RouteP50,
			"host.tick_budget_util":             ob.phases.BusyMs / (seconds * 1000),
			"host.ticks_per_s":                  ticks / seconds,
			"host.cpu_us_per_delivery":          median(cpuPer),
			"host.fleet_cpu_frac":               float64(last.CPUUs-first.CPUUs) / (seconds * 1e6),
			"host.heap_mb":                      float64(last.HeapAlloc) / (1 << 20),
			"transport.syscw_per_delivery":      ratio(float64(last.Syscw-first.Syscw), measured),
			"transport.syscr_per_update":        ratio(float64(last.Syscr-first.Syscr), updates),
			"transport.wire_bytes_per_delivery": ratio(wireBytes+fleetSum(ob.final, peerBytes), deliveries), // whole run, joins included
			"middleware.rate_limited":           fleetSum(ob.final, func(s serverMark) uint64 { return s.RateLimited }),
			"middleware.shed":                   fleetSum(ob.final, func(s serverMark) uint64 { return s.Shed }),
			"gameserver.deliveries_per_update":  ratio(delta(func(s serverMark) uint64 { return s.Game.Delivered }), updates),
			"gameserver.queue_len_max":          queueMax,
			"gameserver.dropped":                fleetSum(ob.final, func(s serverMark) uint64 { return s.Game.Dropped }),
			"core.forwards_per_update":          ratio(delta(func(s serverMark) uint64 { return s.Core.PeerPacketsOut }), updates),
			"core.peer_bytes_per_update":        ratio(delta(peerBytes), updates),
			"core.range_rejected":               fleetSum(ob.final, func(s serverMark) uint64 { return s.Core.RangeRejected }),
			"coordinator.splits":                float64(ob.final.Splits),
			"coordinator.reclaims":              float64(ob.final.Reclaims),
			"coordinator.checkpoint_bytes":      float64(ob.final.CheckpointBytes),
			"handoff.p50_ms":                    median(handoffP50s),
			"handoff.p95_ms":                    quantile(handoffs, 0.95),
			"handoff.max_ms":                    quantile(handoffs, 1),
			"handoff.count":                     float64(p.tapTotal(func(t *tap) uint64 { return t.redirects })),
			"handoff.lost_update_frac":          ratio(float64(gen.sent)-float64(p.echoed()), float64(gen.sent)),
			"handoff.settle_ms":                 median(p.settleMs),
		},
		probe: probeInput{workload: spec.name, updates: gen.sample, interval: gen.interval.Seconds(),
			wire: true, mw: spec.fleet.Middleware, snapshot: spec.fleet.CheckpointMs > 0},
	}
	for i, home := range p.homes {
		res.probe.clients = append(res.probe.clients, probeClient{ID: id.ClientID(1 + i), Pos: home})
	}
	for j, home := range p.crowdHomes { // the first cycle's crowd (generation 1)
		res.probe.clients = append(res.probe.clients, probeClient{ID: id.ClientID(1 + spec.clients + j + 1000), Pos: home})
	}
	return res
}

// check counts the pass's operations into res (attempted, failed) and
// returns what makes its numbers not worth reading: wrong outputs of the
// system, and signs that the generator rather than the fleet shaped the
// measurement.
func (p *pass) check(ob observed, res *passResult) (wrong, disturbed []string) {
	spec, gen, final := p.spec, p.gen, ob.final
	fail := func(format string, a ...any) { wrong = append(wrong, fmt.Sprintf(format, a...)) }
	if spec.crowd > 0 {
		// An operation is a join or a handoff; it fails when no welcome
		// follows within a second. Updates in flight across a handoff are
		// reported (handoff.lost_update_frac), not failed. A redirect still
		// unanswered at the end counts only for the base clients: a crowd
		// client that despawns mid-handoff has left the game.
		slow := p.tapTotal(func(t *tap) uint64 { return t.slowHandoffs })
		pending := p.tapTotal(func(t *tap) uint64 {
			if t.redirectAt != 0 && t.slot < spec.clients {
				return 1
			}
			return 0
		})
		res.attempted = p.joins + uint64(res.layer["handoff.count"])
		res.failed = p.joinFails + slow + pending
		if final.Splits != final.Reclaims || final.ActiveServers != 1 {
			var clients []int
			for _, s := range final.Servers {
				clients = append(clients, s.Game.ClientsCurrent)
			}
			fail("fleet did not fold back: %d splits, %d reclaims, %d active servers holding %v clients",
				final.Splits, final.Reclaims, final.ActiveServers, clients)
		}
		if cycles := max(1, int(ob.seconds/10)); final.Splits < cycles {
			fail("expected at least one split per flash crowd (%d), saw %d", cycles, final.Splits)
		}
		if final.ValidateErr != "" {
			fail("coordinator map invalid: %s", final.ValidateErr)
		}
		if final.Deaths != 0 {
			fail("%d servers declared dead", final.Deaths)
		}
		for _, s := range gen.slots[:spec.clients] {
			if h := s.host.Load(); h == nil || !h.Client().Connected() {
				fail("base client in slot %d is not connected at the end", s.tap.slot)
			}
		}
	} else {
		// An operation is an update; it fails when sending errors or its
		// echo does not arrive within a second of its due time.
		res.attempted, res.failed = gen.sent, gen.sent-min(p.echoed(), gen.sent)
		deliveries := p.tapTotal(func(t *tap) uint64 { return t.deliveries })
		want := uint64(0)
		for i, s := range gen.slots {
			want += s.sent * uint64(p.fanout[i])
		}
		if spec.fleet.Static2x2 {
			if d := math.Abs(float64(deliveries) - float64(want)); d > 0.02*float64(want) {
				fail("deliveries %d differ from the brute-force count %d by more than 2%%", deliveries, want)
			}
			if far := p.tapTotal(func(t *tap) uint64 { return t.far }); far > 0 {
				fail("%d deliveries reached a client farther than R+2·jitter from origin and dest", far)
			}
		} else if deliveries != want {
			fail("deliveries %d != clients × updates = %d", deliveries, want)
		}
		if gen.sendErrs > 0 {
			fail("%d send errors", gen.sendErrs)
		}
	}
	if v := res.layer["middleware.rate_limited"] + res.layer["middleware.shed"]; v > 0 {
		fail("middleware dropped %v frames (limits must not bind)", v)
	}
	if v := res.layer["gameserver.dropped"]; v > 0 {
		fail("game servers dropped %v packets", v)
	}

	if v := res.layer["loadgen.late_p95_ms"]; v > maxLateP95Ms {
		disturbed = append(disturbed, fmt.Sprintf("generator ran late: late_p95 %.2f ms > %v ms", v, maxLateP95Ms))
	}
	if v := res.layer["loadgen.cpu_frac"]; v > maxLoadgenCPU {
		disturbed = append(disturbed, fmt.Sprintf("generator used %.2f cores > %v", v, maxLoadgenCPU))
	}
	if ob.wins > 1 {
		var firstQ, lastQ int64
		for i := range ob.marks[1].Servers {
			firstQ = max(firstQ, ob.marks[1].Servers[i].QueueMax)
			lastQ = max(lastQ, ob.marks[ob.wins].Servers[i].QueueMax)
		}
		if lastQ > 2*firstQ+500 {
			fail("receive queue still growing: %d in the first window, %d in the last", firstQ, lastQ)
		}
	}
	return wrong, disturbed
}

// selfCPUUs is this process's user+sys CPU time in microseconds.
func selfCPUUs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Sec*1e6 + int64(ru.Utime.Usec) + ru.Stime.Sec*1e6 + int64(ru.Stime.Usec)
}
