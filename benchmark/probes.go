package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"matrix/internal/coordinator"
	"matrix/internal/core"
	"matrix/internal/game"
	"matrix/internal/gameclient"
	"matrix/internal/gameserver"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/middleware"
	"matrix/internal/overlap"
	"matrix/internal/protocol"
	"matrix/internal/snapshot"
	"matrix/internal/space"
	"matrix/internal/spatial"
	"matrix/internal/trace"
	"matrix/internal/transport"
)

// probeClient is one avatar in the recorded world.
type probeClient struct {
	ID  id.ClientID
	Pos geom.Point
}

// probeInput is a workload's own traffic, recorded during the run: the
// topology it ran on, where its clients stood and a sample of the updates
// they sent. The probes replay it through one layer at a time.
type probeInput struct {
	workload string
	parts    []space.Partition
	clients  []probeClient
	updates  []*protocol.GameUpdate
	interval float64 // seconds between consecutive sample updates (the middleware's clock)
	// Which layers the workload's packets cross. A bypassed layer is not
	// probed and reports 0.
	wire      bool // protocol, transport, middleware (not the simulator)
	mw        bool // middleware chain configured
	snapshot  bool // checkpoints on
	generator bool // gameclient/game traffic generation inside the program
}

// sink keeps the compiler from discarding a probed call whose result
// nothing else needs.
var sink int

// bench times n calls of fn on this goroutine and returns ns and heap
// allocations per call.
func bench(n int, fn func(i int)) (ns, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	began := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(began)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// probeNode is the busiest server of the recorded topology, rebuilt from
// public constructors: a game server holding the recorded avatars and a
// Matrix server holding the overlap table the coordinator would push.
type probeNode struct {
	owner   id.ServerID
	bounds  geom.Rect
	gs      *gameserver.Server
	core    *core.Server
	table   *overlap.Table
	grid    *spatial.Grid[id.ClientID]
	updates []*protocol.GameUpdate // sample updates sent by this node's clients
}

func buildProbeNode(in probeInput) (*probeNode, error) {
	// Busiest partition = most recorded avatars.
	best, bestN := 0, -1
	for i, part := range in.parts {
		n := 0
		for _, c := range in.clients {
			if part.Bounds.Contains(c.Pos) {
				n++
			}
		}
		if n > bestN {
			best, bestN = i, n
		}
	}
	part := in.parts[best]
	n := &probeNode{owner: part.Owner, bounds: part.Bounds, grid: spatial.NewGrid[id.ClientID](radius)}
	tables, err := overlap.BuildAll(in.parts, radius, 1)
	if err != nil {
		return nil, err
	}
	n.table = tables[part.Owner]
	if n.gs, err = gameserver.New(gameserver.Config{Server: part.Owner, Bounds: part.Bounds, Radius: radius}); err != nil {
		return nil, err
	}
	if n.core, err = core.NewServer(core.Config{}, &protocol.RegisterReply{Server: part.Owner, Bounds: part.Bounds, World: world}, radius); err != nil {
		return nil, err
	}
	// The table travels the way the coordinator pushes it, peers included
	// (addresses are never dialled here).
	msg := &protocol.OverlapTable{Server: part.Owner, Version: 1, Bounds: part.Bounds, Radius: radius,
		Regions: protocol.RegionsToWire(n.table.Regions())}
	for _, p := range in.parts {
		if p.Owner != part.Owner {
			msg.Peers = append(msg.Peers, protocol.PeerAddr{Server: p.Owner, Addr: fmt.Sprintf("probe:%d", p.Owner), Bounds: p.Bounds})
		}
	}
	if _, err := n.core.HandleMessage(id.None, msg); err != nil {
		return nil, err
	}
	local := make(map[id.ClientID]bool)
	for _, c := range in.clients {
		if part.Bounds.Contains(c.Pos) {
			local[c.ID] = true
			n.grid.Insert(c.ID, c.Pos)
			if err := n.gs.Enqueue(&protocol.ClientHello{Client: c.ID, Pos: c.Pos}); err != nil {
				return nil, err
			}
		}
	}
	if _, err := n.gs.Process(0); err != nil {
		return nil, err
	}
	for _, u := range in.updates {
		if local[u.Client] && part.Bounds.Contains(u.Dest) {
			n.updates = append(n.updates, u)
		}
	}
	if len(n.updates) == 0 {
		return nil, fmt.Errorf("probes: no sample update belongs to the busiest server %v", part.Owner)
	}
	return n, nil
}

// tcpPair is a connected loopback-TCP transport pair.
func tcpPair() (a, b transport.Conn, closeAll func(), err error) {
	nw := transport.TCPNetwork{}
	ln, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	acc := make(chan transport.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		acc <- c
	}()
	if a, err = nw.Dial(ln.Addr()); err != nil {
		_ = ln.Close()
		return nil, nil, nil, err
	}
	b = <-acc
	return a, b, func() { _ = a.Close(); _ = b.Close(); _ = ln.Close() }, nil
}

const batchSize = 32 // messages per SendBatch in the batch probes

// runProbes replays the recorded sample through each layer's public
// functions on this goroutine and returns the per-layer numbers. It also
// records, for the first spanTreeUpdates updates, one span tree per update
// (root "update", children one per layer boundary) into its own tracer and
// writes it to outDir/trace-<workload>.json.
func runProbes(in probeInput, outDir string) (values, error) {
	v := values{}
	node, err := buildProbeNode(in)
	if err != nil {
		return nil, err
	}
	// Every workload crosses spatial, gameserver, core, overlap and the
	// coordinator; the rest only where the workload does.
	stages := probeWorld(in, node, v)
	if err := probeCoordinator(in, v); err != nil {
		return nil, err
	}
	if in.wire {
		wire, last, done, err := probeWire(in, node, v)
		if err != nil {
			return nil, err
		}
		defer done()
		stages = append(append(wire, stages...), last)
	}
	if in.snapshot {
		var blob []byte
		ns, _ := bench(50, func(int) { blob, _ = snapshot.MarshalNode(node.core, node.gs) })
		v["snapshot.marshal_node_us"] = ns / 1000
		v["snapshot.node_bytes"] = float64(len(blob))
		ns, _ = bench(50, func(int) { _ = snapshot.RestoreNode(blob, node.core, node.gs) })
		v["snapshot.restore_node_us"] = ns / 1000
	}
	if in.generator {
		first, err := probeGenerator(node, v)
		if err != nil {
			return nil, err
		}
		stages = append([]spanStage{first}, stages...)
	}

	tr := newSpanTree()
	for i := 0; i < min(len(node.updates), spanTreeUpdates); i++ {
		tr.update(node.updates[i], stages, i)
	}
	tr.summary(in.workload)
	if outDir != "" {
		if err := writeTrace(tr.tr, filepath.Join(outDir, "trace-"+in.workload+".json")); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// probeWorld times the layers every workload crosses — spatial query and
// move, the game server's per-update processing, the Matrix server's
// routing, the overlap lookup and table build — on the probe node, and
// returns the two of them that are boundaries of the packet walk.
func probeWorld(in probeInput, node *probeNode, v values) []spanStage {
	ups, n := node.updates, len(node.updates)
	var buf []id.ClientID
	hits := 0
	v["spatial.query_ns"], _ = bench(n, func(i int) {
		buf = node.grid.QueryCircle(ups[i].Origin, radius, buf[:0])
		hits += len(buf)
	})
	v["spatial.hits_per_query"] = float64(hits) / float64(n)
	v["spatial.insert_ns"], _ = bench(n, func(i int) { node.grid.Insert(ups[i].Client, ups[i].Dest) })

	var envs []gameserver.Envelope
	delivered := 0
	process := func(i int) {
		_ = node.gs.Enqueue(ups[i])
		envs, _ = node.gs.ProcessAppend(envs[:0], 0)
		for _, e := range envs {
			if e.Dest == gameserver.DestClient {
				delivered++
			}
		}
	}
	v["gameserver.process_ns_per_update"], _ = bench(n, process)
	v["gameserver.deliveries_per_update"] = float64(delivered) / float64(n)

	var cenvs []core.Envelope
	forwards := 0
	route := func(i int) {
		cenvs, _ = node.core.AppendGameUpdate(cenvs[:0], ups[i])
		forwards += len(cenvs)
	}
	v["core.update_ns"], _ = bench(n, route)
	v["core.forwards_per_update"] = float64(forwards) / float64(n)
	v["core.peer_bytes_per_update"] = float64(node.core.Stats().PeerBytesOut) / float64(n)

	v["overlap.lookup_ns"], _ = bench(n, func(i int) { sink += len(node.table.Lookup(ups[i].Origin)) })
	ns, _ := bench(50, func(int) { _, _ = overlap.BuildAll(in.parts, radius, 1) })
	v["overlap.build_all_us"] = ns / 1000
	return []spanStage{{name: "gameserver.process", run: process}, {name: "core.update", run: route}}
}

// probeWire times what a packet pays for crossing a wire: the codec, a
// loopback-TCP transport pair (and the same Send on the in-memory network:
// the difference is the syscall) and, when the workload configures one, the
// middleware chain. It returns the stages that precede the game server in
// the packet walk, the batched peer send that ends it, and a clean-up.
func probeWire(in probeInput, node *probeNode, v values) (before []spanStage, last spanStage, done func(), err error) {
	ups, n := node.updates, len(node.updates)
	var enc []byte
	encode := func(i int) { enc, _ = protocol.AppendEncode(enc[:0], ups[i]) }
	v["protocol.encode_update_ns"], _ = bench(n, encode)
	frames := make([][]byte, n)
	total := 0
	for i, u := range ups {
		frames[i], _ = protocol.Marshal(u)
		total += len(frames[i])
	}
	v["protocol.update_frame_bytes"] = float64(total) / float64(n)
	decode := func(i int) { _, _ = protocol.Unmarshal(frames[i]) }
	v["protocol.decode_update_ns"], v["protocol.decode_update_allocs"] = bench(n, decode)

	// Forwards as core emits them, batchSize to a frame.
	fwds := make([]protocol.Message, batchSize)
	for i := range fwds {
		fwds[i] = &protocol.Forward{From: node.owner, Update: *ups[i%n]}
	}
	var ends []int
	ns, _ := bench(n/batchSize+1, func(int) { enc, ends, _ = protocol.AppendBatches(enc[:0], ends[:0], fwds) })
	v["protocol.encode_batch_ns_per_msg"] = ns / batchSize

	a, b, closeTCP, err := tcpPair()
	if err != nil {
		return nil, spanStage{}, nil, err
	}
	// One send then one receive, each timed on its own: the socket never
	// fills, and the receive never waits for the sender.
	var connErr error
	send := func(i int) { connErr = errors.Join(connErr, a.Send(ups[i])) }
	recv := func(int) {
		_, err := b.Recv()
		connErr = errors.Join(connErr, err)
	}
	sendBatch := func(int) { connErr = errors.Join(connErr, a.SendBatch(fwds)) }
	drainBatch := func(int) {
		for j := 0; j < batchSize && connErr == nil; j++ {
			recv(j)
		}
	}
	var sendNs, recvNs, batchNs time.Duration
	for i := 0; i < n && connErr == nil; i++ {
		t0 := time.Now()
		send(i)
		t1 := time.Now()
		recv(i)
		sendNs += t1.Sub(t0)
		recvNs += time.Since(t1)
	}
	batches := n/batchSize + 1
	for i := 0; i < batches && connErr == nil; i++ {
		t0 := time.Now()
		sendBatch(i)
		batchNs += time.Since(t0)
		drainBatch(i)
	}
	if connErr != nil {
		closeTCP()
		return nil, spanStage{}, nil, fmt.Errorf("probes: tcp pair: %w", connErr)
	}
	v["transport.tcp_send_ns"] = float64(sendNs.Nanoseconds()) / float64(n)
	v["transport.tcp_recv_ns"] = float64(recvNs.Nanoseconds()) / float64(n)
	v["transport.tcp_batch_ns_per_msg"] = float64(batchNs.Nanoseconds()) / float64(batches*batchSize)

	mem := transport.NewMemNetwork()
	mln, err := mem.Listen("")
	if err != nil {
		closeTCP()
		return nil, spanStage{}, nil, err
	}
	defer mln.Close()
	mc, err := mem.Dial(mln.Addr())
	if err != nil {
		closeTCP()
		return nil, spanStage{}, nil, err
	}
	defer mc.Close()
	ms, err := mln.Accept()
	if err != nil {
		closeTCP()
		return nil, spanStage{}, nil, err
	}
	var memNs time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		_ = mc.Send(ups[i])
		memNs += time.Since(t0)
		_, _ = ms.Recv()
	}
	v["transport.mem_send_ns"] = float64(memNs.Nanoseconds()) / float64(n)

	done = closeTCP
	before = []spanStage{{name: "protocol.encode", run: encode}, {name: "transport.send", run: send},
		{name: "transport.recv", run: recv}, {name: "protocol.decode", run: decode}}
	if in.mw {
		chain, err := middleware.New(middleware.Config{Stages: []string{
			middleware.StageRateLimit, middleware.StageAdmission, middleware.StageAudit}})
		if err != nil {
			closeTCP()
			return nil, spanStage{}, nil, err
		}
		done = func() { chain.Close(); closeTCP() }
		req := middleware.Request{Source: middleware.SourceClient}
		handle := func(i int) {
			req.Client, req.Msg, req.Now = ups[i].Client, ups[i], float64(i)*in.interval
			chain.Handle(&req)
		}
		v["middleware.handle_ns"], _ = bench(n, handle)
		before = append(before, spanStage{name: "middleware.handle", run: handle})
	}
	return before, spanStage{name: "transport.batch", run: sendBatch, after: drainBatch}, done, nil
}

// probeGenerator times the traffic generation the simulator does inside
// the program: one update built by a game client, a mover seeded, a mover
// stepped. It returns the stage that starts the simulator's packet walk.
func probeGenerator(node *probeNode, v values) (spanStage, error) {
	ups, n := node.updates, len(node.updates)
	cl, err := gameclient.New(gameclient.Config{ID: 1})
	if err != nil {
		return spanStage{}, err
	}
	makeMove := func(i int) { _ = cl.MakeMove(ups[i].Dest) }
	v["gameclient.make_ns"], v["gameclient.make_allocs"] = bench(n, makeMove)
	var mv *game.Mover
	ns, _ := bench(2000, func(i int) { mv = game.NewMover(game.Bzflag(), world, int64(i)) })
	v["game.mover_new_us"] = ns / 1000
	pos := world.Center()
	v["game.mover_step_ns"], _ = bench(n, func(int) { pos = mv.Step(pos, 0.1) })
	return spanStage{name: "gameclient.make", run: makeMove}, nil
}

// probeCoordinator times the coordinator's message handlers: the two
// periodic reports every server sends, and a split including the overlap
// table rebuild for the whole fleet.
func probeCoordinator(in probeInput, v values) error {
	boot := func() (*coordinator.Coordinator, error) {
		mc, err := coordinator.New(coordinator.Config{World: world, HeartbeatEvery: 250 * time.Millisecond})
		if err != nil {
			return nil, err
		}
		for i := 0; i < max(3, len(in.parts)); i++ {
			if _, _, err := mc.Register(fmt.Sprintf("probe:%d", i+1), radius); err != nil {
				return nil, err
			}
		}
		return mc, nil
	}
	mc, err := boot()
	if err != nil {
		return err
	}
	report := &protocol.LoadReport{Server: 1, Clients: 50}
	v["coordinator.load_report_ns"], _ = bench(10000, func(int) { _, _ = mc.HandleMessage(1, report) })
	beat := &protocol.Heartbeat{Server: 1, Clients: 50}
	v["coordinator.heartbeat_ns"], _ = bench(10000, func(int) { _, _ = mc.HandleMessage(1, beat) })
	var splitNs time.Duration
	const splits = 20
	for i := 0; i < splits; i++ {
		if mc, err = boot(); err != nil {
			return err
		}
		t0 := time.Now()
		envs, err := mc.HandleMessage(1, &protocol.SplitRequest{Server: 1, Clients: 100})
		splitNs += time.Since(t0)
		if err != nil || len(envs) == 0 {
			return fmt.Errorf("probes: split: %v", err)
		}
	}
	v["coordinator.split_us"] = float64(splitNs.Microseconds()) / splits
	return nil
}

// --- span tree ---

const spanTreeUpdates = 256

type spanStage struct {
	name  string
	run   func(i int)
	after func(i int) // untimed clean-up (nil = none)
}

// spanTree records one root span per replayed update with one child per
// layer boundary, into a tracer of its own. Its clock ticks in nanoseconds
// (a layer call is far shorter than the microsecond the trace format
// assumes), so a viewer's "µs" read as ns.
type spanTree struct {
	tr    *trace.Tracer
	began time.Time
}

func newSpanTree() *spanTree {
	t := &spanTree{tr: trace.New(1 << 13), began: time.Now()}
	t.tr.SetClock(func() int64 { return time.Since(t.began).Nanoseconds() })
	t.tr.NameProcess(1, "probe (timestamps in ns)")
	t.tr.NameThread(1, 0, "replay")
	return t
}

// update replays sample update i through every stage, one child slice per
// stage under a root slice keyed client<<24|seq — the packet id the repo's
// own traces use.
func (t *spanTree) update(u *protocol.GameUpdate, stages []spanStage, i int) {
	root := t.tr.Now()
	for _, s := range stages {
		t0 := t.tr.Now()
		s.run(i)
		t.tr.Slice(1, 0, s.name, t0, t.tr.Now()-t0)
		if s.after != nil {
			s.after(i)
		}
	}
	t.tr.SliceArg(1, 0, "update", root, t.tr.Now()-root, "id", int64(uint64(u.Client)<<24|uint64(u.Seq)&0xFFFFFF))
}

// summary prints each stage's share of the root span; the root's self time
// (span − children) is the tree's own bookkeeping.
func (t *spanTree) summary(workload string) {
	total := map[string]int64{}
	for _, e := range t.tr.Events() {
		if e.Ph == trace.PhaseSlice {
			total[e.Name] += e.Dur
		}
	}
	root := total["update"]
	if root == 0 {
		return
	}
	names := make([]string, 0, len(total))
	children := int64(0)
	for name, d := range total {
		if name != "update" {
			names = append(names, name)
			children += d
		}
	}
	sort.Slice(names, func(i, j int) bool { return total[names[i]] > total[names[j]] })
	fmt.Fprintf(os.Stderr, "# %s span tree (%d updates replayed one layer call at a time):\n", workload, spanTreeUpdates)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "#   %-20s %5.1f%%\n", name, 100*float64(total[name])/float64(root))
	}
	fmt.Fprintf(os.Stderr, "#   %-20s %5.1f%%\n", "update (self)", 100*float64(root-children)/float64(root))
}
