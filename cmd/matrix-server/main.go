// Command matrix-server runs one Matrix server with its co-located game
// server over TCP. It registers with the coordinator; the first registered
// server owns the whole world and later ones wait in the spare pool until a
// split assigns them a partition.
//
// Usage:
//
//	matrix-server -coordinator 127.0.0.1:7000 -addr :7101 -radius 40
//	matrix-server -coordinator 127.0.0.1:7000 -trace-addr :7171  # live trace ring
//	matrix-server -coordinator 127.0.0.1:7000 -log-json -log-level debug
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
	"matrix/internal/logging"
	"matrix/internal/middleware"
	"matrix/internal/netem"
	"matrix/internal/protocol"
	"matrix/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "matrix-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("matrix-server", flag.ContinueOnError)
	mcAddr := fs.String("coordinator", "127.0.0.1:7000", "coordinator address")
	addr := fs.String("addr", "127.0.0.1:0", "listen address for clients and peers")
	radius := fs.Float64("radius", 40, "game visibility radius")
	overload := fs.Int("overload", 300, "client count that triggers a split")
	underload := fs.Int("underload", 150, "client count below which a child may be reclaimed")
	overloadQ := fs.Int("overload-queue", 0, "queue length that also triggers a split (0 = off)")
	decPolicy := fs.String("policy", "", "split/reclaim decision policy: "+strings.Join(matrix.PolicyNames(), ", ")+" (empty = paper)")
	serviceRate := fs.Int("service-rate", 500, "packets served per -tick of wall time, at any tick cadence")
	tick := fs.Duration("tick", 10*time.Millisecond, "longest gap between game ticks (the server ticks as packets arrive) and the unit of -service-rate")
	statusEvery := fs.Duration("status", 10*time.Second, "status print interval (0 = silent)")
	netemSpec := fs.String("netem", "", "emulate a degraded network on every connection, e.g. delay=40ms,jitter=25ms,loss=2% (empty = off)")
	netemSeed := fs.Int64("netem-seed", 1, "seed for the netem impairment streams")
	mwSpec := fs.String("middleware", "", "wire-path interceptor stages in request order, e.g. auth,ratelimit,admission,audit (empty = off)")
	rateLimit := fs.Float64("rate-limit", 200, "per-client sustained updates/sec for the ratelimit stage (must be positive)")
	rateBurst := fs.Float64("rate-burst", 0, "token-bucket depth for the ratelimit stage (0 = 2x -rate-limit)")
	shedQueue := fs.Int("shed-queue", 5000, "queue length at which the admission stage sheds data-plane frames")
	authSecret := fs.String("auth-secret", "", "shared session token the auth stage requires on every hello")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics plus /healthz and /readyz on this address (empty = off)")
	traceAddr := fs.String("trace-addr", "", "serve the live packet-path trace ring on this address: /trace.json (Perfetto) and /trace.txt (empty = off)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof profiling endpoints on this address (empty = off)")
	logLevel := fs.String("log-level", "info", "minimum log level: "+logging.LevelNames)
	logJSON := fs.Bool("log-json", false, "emit one JSON object per log line instead of text")
	dumpAddr := fs.String("dump", "", "dump mode: fetch a running matrix-server's state from this address (via a protocol snapshot frame) and exit")
	outFile := fs.String("o", "", "with -dump: write the snapshot blob here (default stdout)")
	restoreFile := fs.String("restore", "", "restore this node's state from a snapshot blob at startup (file produced by -dump)")
	snapshotFile := fs.String("snapshot-file", "", "periodically checkpoint this node's state to this file (atomic rename)")
	snapshotEvery := fs.Duration("snapshot-every", 30*time.Second, "checkpoint period for -snapshot-file")
	heartbeatEvery := fs.Duration("heartbeat-every", time.Second, "heartbeat cadence to the coordinator (negative = off; ignored by coordinators without -heartbeat-every)")
	checkpointEvery := fs.Duration("checkpoint-every", 10*time.Second, "ship a state checkpoint to the coordinator this often while owning a partition (negative = off)")
	drain := fs.Bool("drain", false, "on SIGINT/SIGTERM, drain via the coordinator — migrate the partition, redirect clients — before exiting")
	drainExit := fs.Bool("drain-exit", false, "with -drain: retire from the fleet instead of returning to the spare pool")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "with -drain: give up on a stuck drain after this long")
	if err := fs.Parse(args); err != nil {
		return err
	}

	level, err := logging.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := logging.New(os.Stderr, level, *logJSON, slog.String("component", "server"))

	if *dumpAddr != "" {
		return dump(logger, *dumpAddr, *outFile)
	}

	// Drain knobs are validated at parse time too: a typo must not surface
	// only at the moment the operator tries to take the server down.
	if *drainExit && !*drain {
		return fmt.Errorf("drain: -drain-exit requires -drain")
	}
	if *drain && *drainTimeout <= 0 {
		return fmt.Errorf("drain: -drain-timeout must be positive (got %v)", *drainTimeout)
	}

	policy := matrix.DefaultLoadPolicy()
	policy.OverloadClients = *overload
	policy.UnderloadClients = *underload
	policy.OverloadQueue = *overloadQ
	// Like the netem and middleware specs, a mistyped -policy fails the
	// invocation at parse time instead of surfacing mid-run.
	if err := matrix.ValidatePolicy(*decPolicy); err != nil {
		return err
	}

	link, err := netem.ParseSpec(*netemSpec)
	if err != nil {
		return err
	}
	// Middleware knobs are validated here, at parse time, so a typo fails
	// the invocation instead of surfacing mid-run (netem.ParseSpec style).
	stages, err := matrix.ParseMiddlewareSpec(*mwSpec)
	if err != nil {
		return err
	}
	if err := middleware.ValidateRate(*rateLimit); err != nil {
		return err
	}
	if *shedQueue <= 0 {
		return fmt.Errorf("middleware: shed queue must be positive (got %d)", *shedQueue)
	}
	for _, s := range stages {
		if s == middleware.StageAuth && *authSecret == "" {
			return fmt.Errorf("middleware: stage %q requires -auth-secret", s)
		}
	}
	mw := matrix.HostMiddleware{
		Stages:          stages,
		AuthSecret:      *authSecret,
		RateLimitPerSec: *rateLimit,
		RateLimitBurst:  *rateBurst,
		ShedQueue:       *shedQueue,
	}
	network := netem.WrapNetwork(transport.TCPNetwork{}, link, *netemSeed)
	if !link.Zero() {
		logger.Info("netem impairing all connections", "spec", link.String(), "seed", *netemSeed)
	}

	if bound, err := logging.ServePprof(*pprofAddr); err != nil {
		return err
	} else if bound != "" {
		logger.Info("pprof serving", "url", "http://"+bound+"/debug/pprof/")
	}

	opts := []matrix.Option{
		matrix.WithNetwork(network),
		matrix.WithAddr(*addr),
		matrix.WithRadius(*radius),
		matrix.WithLoadPolicy(policy),
		matrix.WithPolicy(*decPolicy),
		matrix.WithServiceRate(*serviceRate),
		matrix.WithTickInterval(*tick),
		matrix.WithHeartbeatEvery(*heartbeatEvery),
		matrix.WithCheckpointEvery(*checkpointEvery),
		matrix.WithLogger(logging.Std(logger, slog.LevelInfo)),
	}
	var tr *matrix.Tracer
	if *traceAddr != "" {
		tr = matrix.NewTracer(0)
		opts = append(opts, matrix.WithTracer(tr))
	}
	if len(stages) > 0 {
		opts = append(opts, matrix.WithMiddleware(mw))
		logger.Info("middleware chain enabled", "stages", fmt.Sprint(stages),
			"rate_per_sec", *rateLimit, "burst", *rateBurst, "shed_queue", *shedQueue)
	}
	if *restoreFile != "" {
		blob, err := os.ReadFile(*restoreFile)
		if err != nil {
			return err
		}
		// Applied before the server serves: no join window a restore wipes.
		opts = append(opts, matrix.WithRestoreSnapshot(blob))
	}
	srv, err := matrix.StartServer(*mcAddr, opts...)
	if err != nil {
		return err
	}
	defer srv.Close()
	logger = logger.With("server", srv.ID().String())
	logger.Info("server listening", "addr", srv.Addr(), "region", srv.Bounds().String())
	if *metricsAddr != "" {
		bound, closer, err := srv.ServeMetrics(*metricsAddr)
		if err != nil {
			return err
		}
		defer closer.Close()
		logger.Info("metrics serving", "url", "http://"+bound+"/metrics")
	}
	if tr != nil {
		bound, closer, err := tr.Serve(*traceAddr)
		if err != nil {
			return err
		}
		defer closer.Close()
		logger.Info("trace ring serving", "url", "http://"+bound+"/trace.json")
	}
	if *restoreFile != "" {
		logger.Info("restored state", "file", *restoreFile,
			"active", srv.Active(), "region", srv.Bounds().String(), "clients", srv.ClientCount())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var statusC, snapC <-chan time.Time
	if *statusEvery > 0 {
		t := time.NewTicker(*statusEvery)
		defer t.Stop()
		statusC = t.C
	}
	if *snapshotFile != "" && *snapshotEvery > 0 {
		t := time.NewTicker(*snapshotEvery)
		defer t.Stop()
		snapC = t.C
	}
	for {
		select {
		case exit := <-srv.DrainEvents():
			// A drain this process did not ask for (matrix-coordinator
			// -drain). Retired from the fleet, nothing will ever reach this
			// server again: exit. Returned to the spare pool, it stands by.
			if exit {
				logger.Info("drained for exit by the coordinator, shutting down")
				return nil
			}
			logger.Info("drained to the spare pool, standing by")
		case <-stop:
			if !*drain {
				return nil
			}
			logger.Info("drain evacuating", "exit", *drainExit, "timeout", *drainTimeout)
			if err := srv.Drain(*drainExit, *drainTimeout); err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			logger.Info("drain complete, shutting down")
			return nil
		case <-statusC:
			logger.Info("status", "active", srv.Active(), "region", srv.Bounds().String(),
				"clients", srv.ClientCount(), "queue", srv.QueueLen())
		case <-snapC:
			if err := checkpoint(srv, *snapshotFile); err != nil {
				logger.Warn("checkpoint failed", "err", err)
			}
		}
	}
}

// checkpoint writes the node's state with an atomic rename, so a crash
// mid-write never corrupts the last good checkpoint.
func checkpoint(srv *matrix.Server, path string) error {
	blob, err := srv.Snapshot()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// dump connects to a running matrix-server, requests its state via a
// protocol snapshot frame, and writes the blob.
func dump(logger *slog.Logger, addr, out string) error {
	conn, err := transport.TCPNetwork{}.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(&protocol.SnapshotRequest{}); err != nil {
		return err
	}
	// The server streams the blob in chunks, the last one marked Final; the
	// reassembler refuses a stream that outgrows protocol.MaxBlobSize.
	var (
		re   protocol.Reassembler
		blob []byte
	)
	for done := false; !done; {
		reply, err := conn.Recv()
		if err != nil {
			return fmt.Errorf("receive snapshot: %w", err)
		}
		data, ok := reply.(*protocol.SnapshotData)
		if !ok {
			return fmt.Errorf("unexpected reply %v", reply.MsgType())
		}
		if blob, done, err = re.Add(data.Blob, data.Final); err != nil {
			return fmt.Errorf("receive snapshot: %w", err)
		}
	}
	if out == "" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	logger.Info("wrote snapshot", "bytes", len(blob), "from", addr, "to", out)
	return nil
}
