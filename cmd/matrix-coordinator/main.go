// Command matrix-coordinator runs a standalone Matrix Coordinator (MC) over
// TCP. Matrix servers (cmd/matrix-server) dial it to register; the MC owns
// the world partitioning and pushes overlap tables after every split or
// reclamation.
//
// Usage:
//
//	matrix-coordinator -addr :7000 -world 1000x1000
//	matrix-coordinator -addr :7000 -world 1000x1000 -static 4   # baseline
//	matrix-coordinator -addr :7000 -heartbeat-every 1s          # self-healing
//	matrix-coordinator -addr :7000 -drain 3                     # admin: drain server 3
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"matrix"
	"matrix/internal/id"
	"matrix/internal/logging"
	"matrix/internal/protocol"
	"matrix/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "matrix-coordinator:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("matrix-coordinator", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7000", "listen address for server registrations")
	world := fs.String("world", "1000x1000", "game world size WxH")
	staticN := fs.Int("static", 0, "run the static-partitioning baseline with N fixed servers (0 = adaptive Matrix)")
	decPolicy := fs.String("policy", "", "spare-selection/placement decision policy: "+strings.Join(matrix.PolicyNames(), ", ")+" (empty = paper)")
	statusEvery := fs.Duration("status", 10*time.Second, "status print interval (0 = silent)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics plus /healthz, /readyz and the /fleetz JSON snapshot on this address (empty = off)")
	traceAddr := fs.String("trace-addr", "", "serve the control-plane trace ring (correlation instants for split/adopt/drain fan-out) as /trace.json on this address (empty = tracing off)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof profiling endpoints on this address (empty = off)")
	logLevel := fs.String("log-level", "info", "minimum log level: "+logging.LevelNames)
	logJSON := fs.Bool("log-json", false, "emit one JSON object per log line instead of text")
	heartbeatEvery := fs.Duration("heartbeat-every", 0, "enable fleet health tracking: expire a server's lease after -lease-misses missed heartbeats at this cadence and re-home its regions onto warm spares (0 = off)")
	leaseMisses := fs.Int("lease-misses", 0, "consecutive missed heartbeats that kill a lease (0 = default 3; requires -heartbeat-every)")
	drainTarget := fs.Int("drain", 0, "admin mode: ask the running coordinator at -addr to drain server N, print the verdict and exit")
	drainExit := fs.Bool("drain-exit", false, "with -drain: retire server N from the fleet instead of returning it to the spare pool")
	if err := fs.Parse(args); err != nil {
		return err
	}

	level, err := logging.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := logging.New(os.Stderr, level, *logJSON, slog.String("component", "mc"))

	// Health, drain and policy knobs fail at parse time, not mid-run.
	if err := matrix.ValidatePolicy(*decPolicy); err != nil {
		return err
	}
	if *heartbeatEvery < 0 {
		return fmt.Errorf("health: -heartbeat-every must not be negative (got %v)", *heartbeatEvery)
	}
	if *leaseMisses < 0 {
		return fmt.Errorf("health: -lease-misses must not be negative (got %d)", *leaseMisses)
	}
	if *leaseMisses > 0 && *heartbeatEvery == 0 {
		return fmt.Errorf("health: -lease-misses requires -heartbeat-every")
	}
	if *drainTarget < 0 {
		return fmt.Errorf("drain: -drain wants a server id (got %d)", *drainTarget)
	}
	if *drainExit && *drainTarget == 0 {
		return fmt.Errorf("drain: -drain-exit requires -drain")
	}
	if *drainTarget > 0 {
		return adminDrain(logger, *addr, id.ServerID(*drainTarget), *drainExit)
	}

	w, h, err := parseWorld(*world)
	if err != nil {
		return err
	}
	if bound, err := logging.ServePprof(*pprofAddr); err != nil {
		return err
	} else if bound != "" {
		logger.Info("pprof serving", "url", "http://"+bound+"/debug/pprof/")
	}
	opts := []matrix.Option{
		matrix.WithAddr(*addr),
		matrix.WithWorld(matrix.R(0, 0, w, h)),
		matrix.WithPolicy(*decPolicy),
		matrix.WithLogger(logging.Std(logger, slog.LevelInfo)),
	}
	if *staticN > 0 {
		tiles, err := matrix.StaticGrid(matrix.R(0, 0, w, h), *staticN)
		if err != nil {
			return err
		}
		opts = append(opts, matrix.WithStaticPartitions(tiles))
	}
	if *heartbeatEvery > 0 {
		opts = append(opts,
			matrix.WithHeartbeatEvery(*heartbeatEvery),
			matrix.WithLeaseMisses(*leaseMisses))
		logger.Info("health tracking leases", "every", *heartbeatEvery, "misses", *leaseMisses)
	}
	var tr *matrix.Tracer
	if *traceAddr != "" {
		tr = matrix.NewTracer(0)
		opts = append(opts, matrix.WithTracer(tr))
	}
	mc, err := matrix.ServeCoordinator(opts...)
	if err != nil {
		return err
	}
	defer mc.Close()
	logger.Info("coordinator listening", "addr", mc.Addr(),
		"world", fmt.Sprintf("%gx%g", w, h), "static", *staticN)
	if *metricsAddr != "" {
		bound, closer, err := mc.ServeMetrics(*metricsAddr)
		if err != nil {
			return err
		}
		defer closer.Close()
		logger.Info("metrics serving", "url", "http://"+bound+"/metrics")
		logger.Info("fleet snapshot serving", "url", "http://"+bound+"/fleetz")
	}
	if tr != nil {
		bound, closer, err := tr.Serve(*traceAddr)
		if err != nil {
			return err
		}
		defer closer.Close()
		logger.Info("trace ring serving", "url", "http://"+bound+"/trace.json")
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if *statusEvery <= 0 {
		<-stop
		return nil
	}
	ticker := time.NewTicker(*statusEvery)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-ticker.C:
			parts := mc.Partitions()
			logger.Info("status", "active", len(parts),
				"splits", mc.Splits(), "reclaims", mc.Reclaims())
			if *heartbeatEvery > 0 {
				logger.Info("health", "deaths", mc.Deaths(), "adoptions", mc.Adoptions(),
					"drains", mc.Drains(), "parked", len(mc.Parked()))
			}
			for sid, bounds := range parts {
				logger.Info("partition", "server", sid.String(), "region", bounds.String())
			}
		}
	}
}

// adminDrain dials a running coordinator, opens with a DrainRequest naming
// the target server (instead of registering) and reports the verdict.
func adminDrain(logger *slog.Logger, addr string, target id.ServerID, exit bool) error {
	conn, err := transport.TCPNetwork{}.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(&protocol.DrainRequest{Server: target, Exit: exit}); err != nil {
		return err
	}
	reply, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("receive drain verdict: %w", err)
	}
	dr, ok := reply.(*protocol.DrainReply)
	if !ok {
		return fmt.Errorf("unexpected reply %v", reply.MsgType())
	}
	if !dr.Granted {
		return fmt.Errorf("drain of %v denied: %s", target, dr.Reason)
	}
	logger.Info("drain granted", "server", target.String(), "exit", exit)
	return nil
}

// parseWorld parses "WxH".
func parseWorld(s string) (w, h float64, err error) {
	parts := strings.SplitN(s, "x", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("invalid -world %q (want WxH)", s)
	}
	if _, err := fmt.Sscanf(parts[0], "%g", &w); err != nil {
		return 0, 0, fmt.Errorf("invalid world width %q", parts[0])
	}
	if _, err := fmt.Sscanf(parts[1], "%g", &h); err != nil {
		return 0, 0, fmt.Errorf("invalid world height %q", parts[1])
	}
	if w <= 0 || h <= 0 {
		return 0, 0, fmt.Errorf("world dimensions must be positive")
	}
	return w, h, nil
}
