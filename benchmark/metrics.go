package main

import (
	"math"
	"sort"
)

// metric declares one reported number. The end-to-end list and the
// per-layer list below are the single source of truth: BENCHMARK.json
// repeats them (bench_test.go holds the two equal) and every run prints
// exactly these names.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the numbers a player or an experimenter sees. Every
// workload reports every one of them; what the unit of work is on each
// workload is spelled out in README.md.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"latency_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"deliveries_per_s", "1/s", "higher", 0.25},
	{"allocs_per_delivery", "count", "lower", 0.15},
}

// perLayer are single-layer numbers, named <layer>.<name> after this
// repo's packages. A layer a workload bypasses reports 0 there: that zero
// is the bypass prediction ("no change") made visible.
var perLayer = []metric{
	// Validity of the generator itself.
	{"loadgen.late_p95_ms", "ms", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.cpu_frac", "cores", "lower", 0},
	// Diagnostic tails of the end-to-end latency (not gated).
	{"c2c.p99_ms", "ms", "lower", 0},
	{"c2c.p999_ms", "ms", "lower", 0},
	{"c2c.max_ms", "ms", "lower", 0},
	{"c2c.echo_p50_ms", "ms", "lower", 0},
	{"c2c.xserver_p50_ms", "ms", "lower", 0},
	// host: the live tick loop (traced pass + fleet counters).
	{"host.tick_total_ms_p50", "ms", "lower", 0},
	{"host.tick_total_ms_p99", "ms", "lower", 0},
	{"host.tick_drain_ms_p50", "ms", "lower", 0},
	{"host.tick_process_ms_p50", "ms", "lower", 0},
	{"host.tick_route_ms_p50", "ms", "lower", 0},
	{"host.tick_budget_util", "frac", "lower", 0},
	{"host.ticks_per_s", "1/s", "higher", 0},
	{"host.cpu_us_per_delivery", "us", "lower", 0},
	{"host.fleet_cpu_frac", "cores", "lower", 0},
	{"host.heap_mb", "MB", "lower", 0},
	// transport
	{"transport.tcp_send_ns", "ns", "lower", 0},
	{"transport.tcp_batch_ns_per_msg", "ns", "lower", 0},
	{"transport.tcp_recv_ns", "ns", "lower", 0},
	{"transport.mem_send_ns", "ns", "lower", 0},
	{"transport.syscw_per_delivery", "count", "lower", 0},
	{"transport.syscr_per_update", "count", "lower", 0},
	{"transport.wire_bytes_per_delivery", "B", "lower", 0},
	// protocol
	{"protocol.encode_update_ns", "ns", "lower", 0},
	{"protocol.decode_update_ns", "ns", "lower", 0},
	{"protocol.decode_update_allocs", "count", "lower", 0},
	{"protocol.encode_batch_ns_per_msg", "ns", "lower", 0},
	{"protocol.update_frame_bytes", "B", "lower", 0},
	// middleware
	{"middleware.handle_ns", "ns", "lower", 0},
	{"middleware.rate_limited", "count", "lower", 0},
	{"middleware.shed", "count", "lower", 0},
	// spatial
	{"spatial.query_ns", "ns", "lower", 0},
	{"spatial.hits_per_query", "count", "lower", 0},
	{"spatial.insert_ns", "ns", "lower", 0},
	// gameserver
	{"gameserver.process_ns_per_update", "ns", "lower", 0},
	{"gameserver.deliveries_per_update", "count", "lower", 0},
	{"gameserver.queue_len_max", "count", "lower", 0},
	{"gameserver.dropped", "count", "lower", 0},
	// core
	{"core.update_ns", "ns", "lower", 0},
	{"core.forwards_per_update", "count", "lower", 0},
	{"core.peer_bytes_per_update", "B", "lower", 0},
	{"core.range_rejected", "count", "lower", 0},
	// overlap
	{"overlap.lookup_ns", "ns", "lower", 0},
	{"overlap.build_all_us", "us", "lower", 0},
	// coordinator
	{"coordinator.load_report_ns", "ns", "lower", 0},
	{"coordinator.heartbeat_ns", "ns", "lower", 0},
	{"coordinator.split_us", "us", "lower", 0},
	{"coordinator.splits", "count", "lower", 0},
	{"coordinator.reclaims", "count", "lower", 0},
	{"coordinator.checkpoint_bytes", "B", "lower", 0},
	// snapshot (live-hotspot only: nothing else checkpoints)
	{"snapshot.marshal_node_us", "us", "lower", 0},
	{"snapshot.restore_node_us", "us", "lower", 0},
	{"snapshot.node_bytes", "B", "lower", 0},
	// handoff: the paper's switching latency (live-hotspot only)
	{"handoff.p50_ms", "ms", "lower", 0},
	{"handoff.p95_ms", "ms", "lower", 0},
	{"handoff.max_ms", "ms", "lower", 0},
	{"handoff.count", "count", "higher", 0},
	{"handoff.lost_update_frac", "frac", "lower", 0},
	{"handoff.settle_ms", "ms", "lower", 0},
	// traffic generation (sim-flashcrowd only: the live generator is ours)
	{"gameclient.make_ns", "ns", "lower", 0},
	{"gameclient.make_allocs", "count", "lower", 0},
	{"game.mover_new_us", "us", "lower", 0},
	{"game.mover_step_ns", "ns", "lower", 0},
	// sim: the deterministic engine's tick phases (traced pass)
	{"sim.ticks_per_s", "1/s", "higher", 0},
	{"sim.allocs_per_tick", "count", "lower", 0},
	{"sim.tick_ms_p50", "ms", "lower", 0},
	{"sim.tick_ms_p99", "ms", "lower", 0},
	{"sim.phase_a_ms_p50", "ms", "lower", 0},
	{"sim.phase_b_ms_p50", "ms", "lower", 0},
	{"sim.load_report_ms_p50", "ms", "lower", 0},
	{"sim.other_ms_p50", "ms", "lower", 0},
	{"sim.deliveries_per_tick", "count", "higher", 0},
	{"sim.forwards_per_tick", "count", "lower", 0},
	{"sim.peak_servers", "count", "lower", 0},
	// tracing cost: traced ÷ untraced host.cpu_us_per_delivery − 1
	{"trace.overhead_frac", "frac", "lower", 0},
}

// values maps metric names to measurements.
type values map[string]float64

// quantile returns the q-quantile of sorted (nearest rank on n-1).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

// median sorts a copy of v and returns its middle (mean of the middle two
// for an even count, so two windows average).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(v []float64) (s float64) {
	for _, x := range v {
		s += x
	}
	return s
}

// nsToMs converts int32 nanosecond samples to sorted milliseconds.
func nsToMs(ns []int32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite reports whether every value is a real number.
func (v values) finite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
