// Command matrix-loadgen drives synthetic game clients against a live
// Matrix deployment: N clients join near a point, move and act according to
// a bundled game profile, and the tool reports the response-latency
// distribution and how many server switches Matrix performed — a live
// version of the paper's hotspot experiment.
//
// Usage:
//
//	matrix-loadgen -server 127.0.0.1:7101 -clients 100 -x 750 -y 250 -spread 60 -duration 30s
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"matrix"
	"matrix/internal/game"
	"matrix/internal/gameclient"
	"matrix/internal/host"
	"matrix/internal/logging"
	"matrix/internal/netem"
	"matrix/internal/protocol"
	"matrix/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "matrix-loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("matrix-loadgen", flag.ContinueOnError)
	server := fs.String("server", "127.0.0.1:7101", "game server to join")
	clients := fs.Int("clients", 50, "number of clients")
	x := fs.Float64("x", 500, "join center X")
	y := fs.Float64("y", 500, "join center Y")
	spread := fs.Float64("spread", 100, "join spread radius")
	duration := fs.Duration("duration", 30*time.Second, "run duration")
	profileName := fs.String("profile", "bzflag", "workload profile: bzflag, daimonin, quake2")
	seed := fs.Int64("seed", 1, "random seed")
	worldFlag := fs.String("world", "1000x1000", "world size WxH (must match the coordinator)")
	netemSpec := fs.String("netem", "", "emulate a degraded network on every client connection, e.g. delay=40ms,jitter=25ms,loss=2% (empty = off)")
	netemSeed := fs.Int64("netem-seed", 0, "seed for the netem impairment streams (0 = derive from -seed)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof profiling endpoints on this address (empty = off)")
	logLevel := fs.String("log-level", "info", "minimum log level: "+logging.LevelNames)
	logJSON := fs.Bool("log-json", false, "emit one JSON object per log line instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}

	level, err := logging.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := logging.New(os.Stderr, level, *logJSON, slog.String("component", "loadgen"))

	if bound, err := logging.ServePprof(*pprofAddr); err != nil {
		return err
	} else if bound != "" {
		logger.Info("pprof serving", "url", "http://"+bound+"/debug/pprof/")
	}

	profile, ok := game.Profiles()[*profileName]
	if !ok {
		return fmt.Errorf("unknown profile %q", *profileName)
	}
	var w, h float64
	if _, err := fmt.Sscanf(*worldFlag, "%gx%g", &w, &h); err != nil {
		return fmt.Errorf("invalid -world %q", *worldFlag)
	}
	world := matrix.R(0, 0, w, h)

	link, err := netem.ParseSpec(*netemSpec)
	if err != nil {
		return err
	}
	if *netemSeed == 0 {
		*netemSeed = *seed
	}
	network := netem.WrapNetwork(transport.TCPNetwork{}, link, *netemSeed)
	if !link.Zero() {
		logger.Info("netem impairing client connections", "link", link.String())
	}

	rnd := rand.New(rand.NewSource(*seed))
	type agent struct {
		h     *host.ClientHost
		mover *game.Mover
	}
	agents := make([]agent, 0, *clients)
	for i := 0; i < *clients; i++ {
		ang := rnd.Float64() * 2 * math.Pi
		r := math.Sqrt(rnd.Float64()) * *spread
		pos := world.Clamp(matrix.Pt(*x+r*math.Cos(ang), *y+r*math.Sin(ang)))
		ch, err := host.DialClient(host.ClientConfig{
			Network:    network,
			ServerAddr: *server,
			Client:     gameclient.Config{ID: matrix.ClientID(i + 1), Pos: pos},
			Logger:     logging.Std(logger, slog.LevelDebug),
		})
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		defer ch.Close()
		mover := game.NewMover(profile, world, *seed+int64(i)*7919)
		mover.Attract(matrix.Pt(*x, *y), *spread)
		agents = append(agents, agent{h: ch, mover: mover})
	}
	logger.Info("clients joined", "clients", len(agents),
		"x", *x, "y", *y, "spread", *spread, "duration", *duration, "profile", profile.Name)

	interval := time.Duration(float64(time.Second) / profile.UpdatesPerSec)
	deadline := time.Now().Add(*duration)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for time.Now().Before(deadline) {
		<-ticker.C
		for _, a := range agents {
			cl := a.h.Client()
			if !cl.Connected() {
				continue
			}
			var u *protocol.GameUpdate
			switch a.mover.PickKind() {
			case protocol.KindMove:
				u = cl.MakeMove(a.mover.Step(cl.Pos(), interval.Seconds()))
			case protocol.KindAction:
				u = cl.MakeAction(protocol.KindAction, a.mover.ActionTarget(cl.Pos()))
			default:
				u = cl.MakeAction(protocol.KindChat, cl.Pos())
			}
			if err := a.h.Send(u); err != nil {
				continue // redirect in flight; the next tick retries
			}
		}
	}

	// Report.
	var lats []float64
	var switches, echoes uint64
	for _, a := range agents {
		st := a.h.Client().Stats()
		switches += st.Switches
		echoes += st.EchoCount
		for _, d := range a.h.Client().Latencies() {
			lats = append(lats, float64(d)/float64(time.Millisecond))
		}
	}
	sort.Float64s(lats)
	q := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p*float64(len(lats))) - 1
		if i < 0 {
			i = 0
		}
		return lats[i]
	}
	fmt.Printf("echoes=%d switches=%d latency ms: p50=%.1f p95=%.1f p99=%.1f max=%.1f\n",
		echoes, switches, q(0.50), q(0.95), q(0.99), q(1.0))
	return nil
}
