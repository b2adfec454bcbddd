package metrics

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// scrape renders reg once.
func scrape(reg *Registry) string {
	var buf bytes.Buffer
	WritePrometheus(&buf, reg)
	return buf.String()
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"server/queue-len": "matrix_server_queue_len",
		"latency":          "matrix_latency",
		"a.b c":            "matrix_a_b_c",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusSortedStable: instruments appear name-sorted, and two
// scrapes of the same registry are byte-identical regardless of the order
// instruments were registered in.
func TestWritePrometheusSortedStable(t *testing.T) {
	// Gauges only enter a registry through a restored snapshot.
	gauges := RegistryState{Gauges: []GaugeState{{Name: "mid/level", Value: 2.5}}}
	reg := NewRegistryFromState(gauges)
	reg.Counter("zeta/ops").Add(3)
	reg.Counter("alpha/ops").Add(1)
	reg.Histogram("beta/lat-ms").Observe(1)

	first := scrape(reg)
	second := scrape(reg)
	if first != second {
		t.Fatalf("scrapes differ:\n--- first\n%s--- second\n%s", first, second)
	}
	alpha := strings.Index(first, "matrix_alpha_ops_total")
	zeta := strings.Index(first, "matrix_zeta_ops_total")
	if alpha < 0 || zeta < 0 || alpha > zeta {
		t.Fatalf("counters not name-sorted:\n%s", first)
	}

	// Same instruments registered in the opposite order scrape identically.
	reg2 := NewRegistryFromState(gauges)
	reg2.Histogram("beta/lat-ms").Observe(1)
	reg2.Counter("alpha/ops").Add(1)
	reg2.Counter("zeta/ops").Add(3)
	if got := scrape(reg2); got != first {
		t.Fatalf("registration order changed output:\n--- want\n%s--- got\n%s", first, got)
	}
}

// TestWritePrometheusHistogramQuantiles checks the summary lines are
// well-formed and agree with Histogram.Quantile's nearest-rank rule.
func TestWritePrometheusHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("tick/phase-a-ms")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	out := scrape(reg)
	want := []string{
		"# TYPE matrix_tick_phase_a_ms summary\n",
		"matrix_tick_phase_a_ms{quantile=\"0.5\"} 50\n",
		"matrix_tick_phase_a_ms{quantile=\"0.95\"} 95\n",
		"matrix_tick_phase_a_ms{quantile=\"0.99\"} 99\n",
		"matrix_tick_phase_a_ms_count 100\n",
		"matrix_tick_phase_a_ms_sum 5050\n",
	}
	for _, line := range want {
		if !strings.Contains(out, line) {
			t.Errorf("scrape missing %q:\n%s", line, out)
		}
	}
	// The exported quantiles must match the in-process accessor.
	if got := h.Quantile(0.95); got != 95 {
		t.Fatalf("Histogram.Quantile(0.95) = %g, scrape said 95", got)
	}
}

// TestWritePrometheusEmpty: an empty registry scrapes to nothing, and an
// empty histogram emits count/sum zeros but no quantile lines — a NaN in
// the exposition would poison every downstream aggregation.
func TestWritePrometheusEmpty(t *testing.T) {
	if out := scrape(NewRegistry()); out != "" {
		t.Fatalf("empty registry scraped %q, want empty", out)
	}
	reg := NewRegistry()
	reg.Histogram("tick/empty-ms") // registered, never observed
	out := scrape(reg)
	if strings.Contains(out, "NaN") {
		t.Fatalf("empty histogram emitted NaN:\n%s", out)
	}
	if strings.Contains(out, "quantile") {
		t.Fatalf("empty histogram emitted quantile lines:\n%s", out)
	}
	for _, line := range []string{"matrix_tick_empty_ms_count 0\n", "matrix_tick_empty_ms_sum 0\n"} {
		if !strings.Contains(out, line) {
			t.Errorf("scrape missing %q:\n%s", line, out)
		}
	}
}

// TestWriteRuntime checks the runtime gauges render with sane values.
func TestWriteRuntime(t *testing.T) {
	var buf bytes.Buffer
	WriteRuntime(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE matrix_runtime_goroutines gauge\nmatrix_runtime_goroutines ",
		"# TYPE matrix_runtime_gc_pause_p99_seconds gauge\n",
		"# TYPE matrix_runtime_heap_inuse_bytes gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime scrape missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Fatalf("runtime scrape emitted NaN:\n%s", out)
	}
}

// TestServeWithHealth spins up the probe endpoints and flips readiness.
func TestServeWithHealth(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("probe/ops").Inc()
	var notReady atomic.Bool
	addr, closer, err := Serve(
		"127.0.0.1:0",
		func(w io.Writer) { WritePrometheus(w, reg) },
		func() error {
			if notReady.Load() {
				return io.ErrClosedPipe
			}
			return nil
		},
		nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer closer.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "matrix_probe_ops_total 1") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz = %d %q", code, body)
	}
	notReady.Store(true)
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while not ready = %d %q, want 503", code, body)
	}
	// Liveness is unaffected by readiness.
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz while not ready = %d, want 200", code)
	}
}
