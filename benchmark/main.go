// Command benchmark measures the whole packet walk of this repository: the
// live loopback-TCP fleet (transport, protocol, host tick loop, middleware,
// gameserver, core, coordinator) and the deterministic simulator, on four
// named workloads, with end-to-end metrics from an untraced pass and
// per-layer metrics from a traced pass plus single-layer probes. See
// README.md next to this file; BENCHMARK.json at the repository root
// declares the metrics this program prints.
//
//	go run ./benchmark --workload live-crowd --seed 1 --seconds 20 --trace 0
//	go run ./benchmark                 # every workload, untraced then traced
//	go run ./benchmark -repeat 5       # noise tool
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"matrix/internal/coordinator"
	"matrix/internal/geom"
	"matrix/internal/protocol"
	"matrix/internal/space"
)

// workload names are stable: BENCHMARK.json and later PRs refer to them.
var workloads = []struct{ name, why string }{
	{"sim-flashcrowd", "deterministic engine under split/reclaim churn: spatial, gameserver, core, overlap, traffic generation; bypasses protocol, transport, host, middleware"},
	{"live-crowd", "1 server, 64 clients in one dense cell, smallest packet: fan-out 64, so transport writes, codec and host routing do the work; core/overlap idle"},
	{"live-border", "4 static servers, 96 clients on the borders, 128 B payload, middleware on: fan-out 3.5 but 1.1 peer forwards per update, so core, overlap, batching and the chain do the work"},
	{"live-hotspot", "adaptive fleet, 64-client flash crowds join and leave: connection churn, split/reclaim, state transfer before redirect, checkpoints in the tick loop"},
}

// environment is stamped on every result: numbers from another machine, Go
// version or core count are not comparable.
func environment() map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel":     strings.TrimSpace(string(kernel)),
		"network":    "loopback TCP (127.0.0.1), not a real link",
	}
}

// topology returns the partitions a live workload runs on, as the
// coordinator itself would lay them out: the recorded world the probes
// rebuild. For live-hotspot that is the fleet at the height of a crowd,
// after both splits.
func topology(spec liveSpec) ([]space.Partition, error) {
	cfg := coordinator.Config{World: world}
	if spec.fleet.Static2x2 {
		cfg.Static = quadrants(world)
	}
	mc, err := coordinator.New(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.fleet.Servers; i++ {
		if _, _, err := mc.Register(fmt.Sprintf("probe:%d", i+1), radius); err != nil {
			return nil, err
		}
	}
	for spec.crowd > 0 && mc.SpareCount() > 0 {
		// The server holding the crowd is the one that overloads.
		for _, part := range mc.Partitions() {
			if part.Bounds.Contains(geom.Pt(250, 500)) {
				if _, err := mc.HandleMessage(part.Owner, &protocol.SplitRequest{Server: part.Owner, Clients: int32(spec.clients + spec.crowd)}); err != nil {
					return nil, err
				}
				break
			}
		}
	}
	return mc.Partitions(), nil
}

// result is one run of one workload.
type result struct {
	workload          string
	traced            bool
	attempted, failed uint64
	metrics           values // end-to-end (untraced) or per-layer (traced)
}

// runWorkload runs one workload once. Untraced, it reports the end-to-end
// metrics. Traced, it reports the per-layer metrics: half the time on an
// untraced pass (the baseline for trace.overhead_frac), half on a traced
// one, then the layer probes on the traffic the traced pass recorded.
func runWorkload(name string, o runOpts, traced bool) (*result, error) {
	spec, live := liveSpecs[name]
	if !live && name != "sim-flashcrowd" {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	res := &result{workload: name, traced: traced}
	if !traced {
		var pass *passResult
		var err error
		if live {
			pass, err = undisturbed(func() (*passResult, error) { return livePass(spec, o, o.seconds, false, setupRepeats) })
		} else {
			pass, err = simPass(o, o.seconds, false)
		}
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed, res.metrics = pass.attempted, pass.failed, pass.e2e
		return res, nil
	}

	var pass *passResult
	var err error
	if live {
		half := func(traced bool) func() (*passResult, error) {
			return func() (*passResult, error) { return livePass(spec, o, o.seconds/2, traced, 1) }
		}
		base, err := undisturbed(half(false))
		if err != nil {
			return nil, err
		}
		if pass, err = undisturbed(half(true)); err != nil {
			return nil, err
		}
		pass.layer["trace.overhead_frac"] = ratio(pass.layer["host.cpu_us_per_delivery"], base.layer["host.cpu_us_per_delivery"]) - 1
		if pass.probe.parts, err = topology(spec); err != nil {
			return nil, err
		}
	} else if pass, err = simPass(o, o.seconds, true); err != nil {
		return nil, err
	}
	probed, err := runProbes(pass.probe, o.outDir)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed, res.metrics = pass.attempted, pass.failed, values{}
	for _, m := range perLayer {
		// Counters from the run itself win over the probe's view of one
		// node; a layer neither saw reports 0 (bypassed on this workload).
		if v, ok := pass.layer[m.name]; ok {
			res.metrics[m.name] = v
		} else {
			res.metrics[m.name] = probed[m.name]
		}
	}
	return res, nil
}

// print writes every metric by name and unit, then the machine-readable
// last line.
func (r *result) print() error {
	decl := endToEnd
	if r.traced {
		decl = perLayer
	}
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool               `json:"correct"`
		Attempted uint64             `json:"attempted"`
		Failed    uint64             `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]reading{}}
	fmt.Printf("# %s traced=%v ops=%d failed=%d\n", r.workload, r.traced, r.attempted, r.failed)
	for _, m := range decl {
		v := r.metrics[m.name]
		fmt.Printf("%-36s %14.4f %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = reading{v, m.unit}
	}
	if !r.metrics.finite() {
		return fmt.Errorf("%s: a metric is not a finite number", r.workload)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// save writes the result, stamped with the environment, next to the traces.
func (r *result) save(o runOpts) error {
	if o.outDir == "" {
		return nil
	}
	name := "result-" + r.workload
	if r.traced {
		name += "-traced"
	}
	blob, err := json.MarshalIndent(map[string]any{
		"workload": r.workload, "traced": r.traced, "seed": o.seed, "seconds": o.seconds,
		"attempted": r.attempted, "failed": r.failed, "metrics": r.metrics, "environment": environment(),
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, name+".json"), blob, 0o644)
}

func run() error {
	if len(os.Args) > 2 && os.Args[1] == "fleet" {
		return fleetMain(os.Args[2])
	}
	workload := flag.String("workload", "", "workload to run (empty = all four, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed for the generated inputs (positions, jitter, join order)")
	seconds := flag.Float64("seconds", 20, "seconds to measure for")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = per-layer metrics from a traced pass and the layer probes")
	repeat := flag.Int("repeat", 0, "noise tool: run every workload (or just -workload) this many times (seeds seed, seed+1, …) and print the spread of each end-to-end metric")
	outDir := flag.String("out", "benchmark/out", "directory for traces and result files")
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	o := runOpts{seed: *seed, seconds: *seconds, outDir: *outDir}
	env, _ := json.Marshal(environment())
	fmt.Printf("# env %s\n", env)
	if *repeat > 0 {
		return noise(o, *repeat, *workload)
	}
	if *workload != "" {
		res, err := runWorkload(*workload, o, *traced == 1)
		if err != nil {
			return err
		}
		if err := res.save(o); err != nil {
			return err
		}
		return res.print()
	}
	began := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w.name, o, traced)
			if err != nil {
				return err
			}
			if err := res.save(o); err != nil {
				return err
			}
			if err := res.print(); err != nil {
				return err
			}
		}
	}
	fmt.Printf("# all workloads passed their checks in %.0f s\n", time.Since(began).Seconds())
	return nil
}

func main() {
	if err := run(); err != nil {
		// An invalid run (late generator, growing queue, failed check)
		// prints no numbers and exits non-zero.
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
