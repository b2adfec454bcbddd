package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"matrix/internal/coordinator"
	"matrix/internal/core"
	"matrix/internal/gameserver"
	"matrix/internal/geom"
	"matrix/internal/host"
	"matrix/internal/load"
	"matrix/internal/middleware"
	"matrix/internal/trace"
	"matrix/internal/transport"
)

// world is the game map every workload plays on (the experiments' map).
var world = geom.R(0, 0, 1000, 1000)

// fleetConfig is everything a fleet needs to boot: one coordinator plus
// Servers matrix-server hosts on loopback TCP. It travels to the fleet
// process as one JSON argument; the fleet never sees the workload seed.
type fleetConfig struct {
	Servers    int     `json:"servers"`
	Static2x2  bool    `json:"static_2x2"` // paper's static baseline: four fixed quadrants
	Middleware bool    `json:"middleware"` // ratelimit,admission,audit on client and peer frames
	Radius     float64 `json:"radius"`
	TickMs     int     `json:"tick_ms"`
	// ServiceRate is the per-tick packet budget; set far above the offered
	// load so CPU, not configuration, limits the run.
	ServiceRate int `json:"service_rate"`
	// Adaptive control plane (live-hotspot); zero values leave the
	// split/reclaim thresholds at paper defaults and health off.
	Overload     int  `json:"overload"`
	Underload    int  `json:"underload"`
	SplitCoolMs  int  `json:"split_cool_ms"`
	ReclaimDwell int  `json:"reclaim_dwell_ms"`
	ReportMs     int  `json:"report_ms"`
	HeartbeatMs  int  `json:"heartbeat_ms"` // 0 = health off
	LeaseMisses  int  `json:"lease_misses"`
	CheckpointMs int  `json:"checkpoint_ms"` // 0 = checkpoints off
	Trace        bool `json:"trace"`         // attach a trace.Tracer to every server
}

// fleetInfo is what the load generator needs to reach a booted fleet.
type fleetInfo struct {
	Coordinator string   `json:"coordinator"`
	Servers     []string `json:"servers"` // listen addresses, registration order
}

// serverMark is one server's counters at a mark.
type serverMark struct {
	Game     gameserver.Stats `json:"game"`
	Core     core.Stats       `json:"core"`
	QueueMax int64            `json:"queue_max"` // high-water since the previous mark (10 Hz poll)
	// Scraped from the server's own /metrics endpoint.
	Ticks       uint64 `json:"ticks"`
	RateLimited uint64 `json:"rate_limited"`
	Shed        uint64 `json:"shed"`
}

// fleetMark is the fleet's answer to "mark": process-level resource
// counters plus every layer's own counters, all read from outside the
// layers through their public accessors.
type fleetMark struct {
	CPUUs     int64        `json:"cpu_us"` // user+sys, getrusage(RUSAGE_SELF)
	Mallocs   uint64       `json:"mallocs"`
	HeapAlloc uint64       `json:"heap_alloc"`
	Syscw     uint64       `json:"syscw"` // /proc/self/io write syscalls (0 when unreadable)
	Syscr     uint64       `json:"syscr"`
	Servers   []serverMark `json:"servers"`
	// Coordinator state.
	Splits          int    `json:"splits"`
	Reclaims        int    `json:"reclaims"`
	Deaths          int    `json:"deaths"`
	ActiveServers   int    `json:"active_servers"`
	CheckpointBytes int    `json:"checkpoint_bytes"` // largest blob the MC holds
	ValidateErr     string `json:"validate_err"`
}

// tickPhases summarises the busiest server's tick-phase slices from the
// traced pass (milliseconds), read back through Tracer.Events().
type tickPhases struct {
	Ticks      int     `json:"ticks"`
	TotalP50   float64 `json:"total_p50"`
	TotalP99   float64 `json:"total_p99"`
	DrainP50   float64 `json:"drain_p50"`
	ProcessP50 float64 `json:"process_p50"`
	RouteP50   float64 `json:"route_p50"`
	BusyMs     float64 `json:"busy_ms"` // Σ tick slice durations
	Dropped    uint64  `json:"dropped"` // ring overwrites (0 = every tick seen)
}

// fleetHandle is a booted fleet as the load generator drives it: in this
// process (tests) or as a child process (every real run, so fleet CPU,
// allocations and syscalls are the fleet's alone).
type fleetHandle interface {
	Info() fleetInfo
	Mark() (fleetMark, error)
	// Topo is the cheap subset of Mark: granted splits and reclaims.
	Topo() (splits, reclaims int, err error)
	// TraceDump summarises the busiest traced server's tick phases over the
	// last lastMs milliseconds and writes its ring as Chrome trace JSON to
	// path.
	TraceDump(path string, lastMs int64) (tickPhases, error)
	Close() error
}

// fleet is the in-process implementation; the child process wraps one.
type fleet struct {
	mc      *host.CoordinatorHost
	servers []*host.ServerHost
	tracers []*trace.Tracer
	scrape  []string // metrics endpoints, one per server
	closers []io.Closer
	qmax    []atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

func quadrants(w geom.Rect) []geom.Rect {
	c := w.Center()
	return []geom.Rect{
		geom.R(w.MinX, w.MinY, c.X, c.Y), geom.R(c.X, w.MinY, w.MaxX, c.Y),
		geom.R(w.MinX, c.Y, c.X, w.MaxY), geom.R(c.X, c.Y, w.MaxX, w.MaxY),
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// startFleet boots the coordinator and servers with the same hosts the
// cmd/ binaries run, every listener on 127.0.0.1:0.
func startFleet(cfg fleetConfig) (*fleet, error) {
	nw := transport.TCPNetwork{}
	ccfg := coordinator.Config{World: world, HeartbeatEvery: ms(cfg.HeartbeatMs), LeaseMisses: cfg.LeaseMisses}
	if cfg.Static2x2 {
		ccfg.Static = quadrants(world)
	}
	mc, err := host.ServeCoordinator(nw, "127.0.0.1:0", ccfg, nil)
	if err != nil {
		return nil, fmt.Errorf("fleet: coordinator: %w", err)
	}
	f := &fleet{mc: mc, qmax: make([]atomic.Int64, cfg.Servers), stop: make(chan struct{})}
	scfg := host.ServerConfig{
		Network:     nw,
		Coordinator: mc.Addr(),
		ListenAddr:  "127.0.0.1:0",
		Radius:      cfg.Radius,
		Load: load.Config{
			OverloadClients:  cfg.Overload,
			UnderloadClients: cfg.Underload,
			SplitCooldown:    ms(cfg.SplitCoolMs),
			ReclaimDwell:     ms(cfg.ReclaimDwell),
		},
		TickInterval:    ms(cfg.TickMs),
		ServiceRate:     cfg.ServiceRate,
		ReportInterval:  ms(cfg.ReportMs),
		HeartbeatEvery:  -1,
		CheckpointEvery: -1,
	}
	if cfg.HeartbeatMs > 0 {
		scfg.HeartbeatEvery = ms(cfg.HeartbeatMs)
	}
	if cfg.CheckpointMs > 0 {
		scfg.CheckpointEvery = ms(cfg.CheckpointMs)
	}
	if cfg.Middleware {
		scfg.Middleware = middleware.Config{Stages: []string{
			middleware.StageRateLimit, middleware.StageAdmission, middleware.StageAudit,
		}}
	}
	for i := 0; i < cfg.Servers; i++ {
		sc := scfg
		if cfg.Trace {
			tr := trace.New(0)
			f.tracers = append(f.tracers, tr)
			sc.Tracer = tr
		}
		h, err := host.StartServer(sc)
		if err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("fleet: server %d: %w", i+1, err)
		}
		f.servers = append(f.servers, h)
		addr, closer, err := h.ServeMetrics("127.0.0.1:0")
		if err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("fleet: metrics endpoint %d: %w", i+1, err)
		}
		f.scrape = append(f.scrape, addr)
		f.closers = append(f.closers, closer)
	}
	f.wg.Add(1)
	go f.pollQueues()
	return f, nil
}

// pollQueues tracks each game server's receive-queue high-water mark at
// 10 Hz; Mark reads and resets it.
func (f *fleet) pollQueues() {
	defer f.wg.Done()
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			for i, h := range f.servers {
				if q := int64(h.Game().QueueLen()); q > f.qmax[i].Load() {
					f.qmax[i].Store(q)
				}
			}
		}
	}
}

func (f *fleet) Info() fleetInfo {
	info := fleetInfo{Coordinator: f.mc.Addr()}
	for _, h := range f.servers {
		info.Servers = append(info.Servers, h.Addr())
	}
	return info
}

// processCounters reads this process's CPU time, allocation count, heap
// size and I/O syscall counts.
func processCounters() (cpuUs int64, mallocs, heap, syscw, syscr uint64) {
	cpuUs = selfCPUUs()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if b, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(line, ": ")
			if !ok {
				continue
			}
			n, _ := strconv.ParseUint(v, 10, 64)
			switch k {
			case "syscw":
				syscw = n
			case "syscr":
				syscr = n
			}
		}
	}
	return cpuUs, m.Mallocs, m.HeapAlloc, syscw, syscr
}

// scrapeMetrics fetches a server's Prometheus endpoint and extracts the
// counters the hosts expose nowhere else (tick count, middleware drops).
func scrapeMetrics(addr string) (ticks, limited, shed uint64, err error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		n, _ := strconv.ParseUint(val, 10, 64)
		switch name {
		case "matrix_server_ticks":
			ticks = n
		case `matrix_mw_dropped_total{reason="rate-limited"}`:
			limited = n
		case `matrix_mw_dropped_total{reason="overload-shed"}`:
			shed = n
		}
	}
	return ticks, limited, shed, sc.Err()
}

func (f *fleet) Mark() (fleetMark, error) {
	var m fleetMark
	m.CPUUs, m.Mallocs, m.HeapAlloc, m.Syscw, m.Syscr = processCounters()
	for i, h := range f.servers {
		sm := serverMark{
			Game:     h.Game().Stats(),
			Core:     h.Core().Stats(),
			QueueMax: f.qmax[i].Swap(0),
		}
		var err error
		if sm.Ticks, sm.RateLimited, sm.Shed, err = scrapeMetrics(f.scrape[i]); err != nil {
			return m, fmt.Errorf("fleet: scrape %s: %w", f.scrape[i], err)
		}
		m.Servers = append(m.Servers, sm)
		if n := f.mc.MC().CheckpointSize(h.ID()); n > m.CheckpointBytes {
			m.CheckpointBytes = n
		}
	}
	mc := f.mc.MC()
	m.Splits, m.Reclaims, m.Deaths = mc.Splits(), mc.Reclaims(), mc.Deaths()
	m.ActiveServers = len(mc.ActiveServers())
	if err := mc.Validate(); err != nil {
		m.ValidateErr = err.Error()
	}
	return m, nil
}

// sliceDurations returns, per slice name, the sorted durations (ms) of the
// slices that started at or after since (tracer µs).
func sliceDurations(events []trace.Event, since int64) map[string][]float64 {
	d := map[string][]float64{}
	for _, e := range events {
		if e.Ph == trace.PhaseSlice && e.TS >= since {
			d[e.Name] = append(d[e.Name], float64(e.Dur)/1000)
		}
	}
	for _, v := range d {
		sort.Float64s(v)
	}
	return d
}

func (f *fleet) Topo() (splits, reclaims int, err error) {
	return f.mc.MC().Splits(), f.mc.MC().Reclaims(), nil
}

func (f *fleet) TraceDump(path string, lastMs int64) (tickPhases, error) {
	if len(f.tracers) == 0 {
		return tickPhases{}, errors.New("fleet: not tracing")
	}
	var best tickPhases
	bestIdx := -1
	for i, tr := range f.tracers {
		// Slice names are the live host's tick phases (host/trace.go).
		d := sliceDurations(tr.Events(), tr.Now()-lastMs*1000)
		p := tickPhases{
			Ticks:      len(d["tick"]),
			TotalP50:   quantile(d["tick"], 0.5),
			TotalP99:   quantile(d["tick"], 0.99),
			DrainP50:   quantile(d["drain-ingress"], 0.5),
			ProcessP50: quantile(d["process"], 0.5),
			RouteP50:   quantile(d["route-flush"], 0.5),
			BusyMs:     sum(d["tick"]),
			Dropped:    tr.Dropped(),
		}
		if bestIdx < 0 || p.BusyMs > best.BusyMs {
			best, bestIdx = p, i
		}
	}
	if path == "" {
		return best, nil
	}
	return best, writeTrace(f.tracers[bestIdx], path)
}

// writeTrace writes a tracer's ring as Chrome trace-event JSON.
func writeTrace(tr *trace.Tracer, path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(out); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}

func (f *fleet) Close() error {
	select {
	case <-f.stop:
		return nil
	default:
		close(f.stop)
	}
	f.wg.Wait()
	for _, c := range f.closers {
		_ = c.Close()
	}
	for _, h := range f.servers {
		_ = h.Close()
	}
	return f.mc.Close()
}

// --- child-process fleet ---

// fleetMain is the `benchmark fleet <json>` entry point: boot, print one
// ready line, then answer one JSON line per stdin command (mark, topo,
// trace <lastMs> <path>) until stdin closes — a crashed parent takes its fleet
// down with it.
func fleetMain(arg string) error {
	var cfg fleetConfig
	if err := json.Unmarshal([]byte(arg), &cfg); err != nil {
		return fmt.Errorf("fleet: config: %w", err)
	}
	f, err := startFleet(cfg)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(f.Info()); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd, arg, _ := strings.Cut(in.Text(), " ")
		var reply any
		switch cmd {
		case "mark":
			reply, err = f.Mark()
		case "topo":
			var t [2]int
			t[0], t[1], err = f.Topo()
			reply = t
		case "trace":
			lastMs, path, _ := strings.Cut(arg, " ")
			n, _ := strconv.ParseInt(lastMs, 10, 64)
			reply, err = f.TraceDump(path, n)
		default:
			err = fmt.Errorf("fleet: unknown command %q", cmd)
		}
		if err != nil {
			reply = map[string]string{"error": err.Error()}
		}
		if err := enc.Encode(reply); err != nil {
			return err
		}
	}
	return in.Err()
}

// procFleet drives a fleet child process over its stdin/stdout.
type procFleet struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	info fleetInfo
}

func startProcFleet(cfg fleetConfig) (*procFleet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "fleet", string(arg))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &procFleet{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<16)}
	if err := p.read(&p.info); err != nil {
		_ = p.Close()
		return nil, fmt.Errorf("fleet process did not come up: %w", err)
	}
	return p, nil
}

// read decodes one reply line, surfacing the child's {"error": ...}.
func (p *procFleet) read(dst any) error {
	line, err := p.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	var fail struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(line, &fail) == nil && fail.Error != "" {
		return errors.New(fail.Error)
	}
	return json.Unmarshal(line, dst)
}

func (p *procFleet) call(cmd string, dst any) error {
	if _, err := io.WriteString(p.in, cmd+"\n"); err != nil {
		return err
	}
	return p.read(dst)
}

func (p *procFleet) Info() fleetInfo { return p.info }

func (p *procFleet) Mark() (m fleetMark, err error) { return m, p.call("mark", &m) }

func (p *procFleet) Topo() (splits, reclaims int, err error) {
	var t [2]int
	err = p.call("topo", &t)
	return t[0], t[1], err
}

func (p *procFleet) TraceDump(path string, lastMs int64) (t tickPhases, err error) {
	return t, p.call(fmt.Sprintf("trace %d %s", lastMs, path), &t)
}

// Close ends the child by closing its stdin and waits for it; a child that
// does not exit within five seconds is killed.
func (p *procFleet) Close() error {
	_ = p.in.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
		return errors.New("fleet process killed after 5s")
	}
}
