package host

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"matrix/internal/coordinator"
	"matrix/internal/gameclient"
	"matrix/internal/geom"
	"matrix/internal/metrics"
	"matrix/internal/protocol"
	"matrix/internal/trace"
	"matrix/internal/transport"
)

// httpGet fetches one URL and returns status and body.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestServerHostTracing attaches a tracer to a live server host, pushes a
// client packet through it, and checks the ring holds tick-phase slices
// and a complete packet span, exporting as valid trace JSON.
func TestServerHostTracing(t *testing.T) {
	nw := transport.NewMemNetwork()
	mc, err := ServeCoordinator(nw, "", coordinator.Config{World: geom.R(0, 0, 1000, 1000)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	tr := trace.New(1 << 16)
	sh, err := StartServer(ServerConfig{
		Network:        nw,
		Coordinator:    mc.Addr(),
		Radius:         40,
		TickInterval:   2 * time.Millisecond,
		ReportInterval: 50 * time.Millisecond,
		Tracer:         tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	ch, err := DialClient(ClientConfig{
		Network:    nw,
		ServerAddr: sh.Addr(),
		Client:     gameclient.Config{ID: 7, Pos: geom.Pt(100, 100)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	if err := ch.Send(ch.Client().MakeAction(protocol.KindAction, geom.Pt(101, 100))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "echo", func() bool { return ch.Client().Stats().EchoCount >= 1 })

	// Stop the host before reading the ring so the snapshot holds the
	// complete run — a live Events() call is safe but would race the
	// arrival of the very spans this test asserts on.
	_ = ch.Close()
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	slices := map[string]bool{}
	spans := map[uint64]map[byte]bool{}
	for _, e := range tr.Events() {
		switch e.Ph {
		case trace.PhaseSlice:
			slices[e.Name] = true
		case trace.PhaseAsyncBegin, trace.PhaseAsyncEnd:
			m := spans[e.ID]
			if m == nil {
				m = map[byte]bool{}
				spans[e.ID] = m
			}
			m[e.Ph] = true
		}
	}
	for _, want := range []string{"drain-ingress", "process", "route-flush", "tick"} {
		if !slices[want] {
			t.Errorf("no %q slice in live trace", want)
		}
	}
	complete := 0
	for _, phs := range spans {
		if phs[trace.PhaseAsyncBegin] && phs[trace.PhaseAsyncEnd] {
			complete++
		}
	}
	if complete == 0 {
		t.Errorf("no complete packet span (begin+end); spans: %d", len(spans))
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateJSON(buf.Bytes()); err != nil {
		t.Errorf("live trace export invalid: %v", err)
	}
}

// TestServerHostMetricsAndHealth scrapes a traced server host's metrics
// endpoint: tick-phase summaries and runtime gauges must render, the
// phase histograms must reset between scrapes, and /healthz and /readyz
// must report the host's state (ready while serving, 503 once the MC
// connection dies).
func TestServerHostMetricsAndHealth(t *testing.T) {
	nw := transport.NewMemNetwork()
	mc, err := ServeCoordinator(nw, "", coordinator.Config{World: geom.R(0, 0, 1000, 1000)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	sh, err := StartServer(ServerConfig{
		Network:        nw,
		Coordinator:    mc.Addr(),
		Radius:         40,
		TickInterval:   2 * time.Millisecond,
		ReportInterval: 50 * time.Millisecond,
		Tracer:         trace.New(1 << 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	addr, closer, err := sh.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	waitFor(t, "ticks", func() bool { return sh.ticks.Load() > 10 })
	code, body := httpGet(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"matrix_server_clients",
		"matrix_server_ticks",
		"matrix_tick_total_ms_count",
		"matrix_tick_total_ms{quantile=\"0.5\"}",
		"matrix_runtime_goroutines",
		"matrix_runtime_heap_inuse_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Reset-on-scrape: an immediate second scrape must carry fewer
	// tick-phase samples than the ticks accumulated so far.
	_, body2 := httpGet(t, "http://"+addr+"/metrics")
	if !strings.Contains(body2, "matrix_tick_total_ms_count") {
		t.Fatalf("second scrape missing tick histogram")
	}
	var n int
	for _, line := range strings.Split(body2, "\n") {
		if strings.HasPrefix(line, "matrix_tick_total_ms_count ") {
			if _, err := fmt.Sscanf(line, "matrix_tick_total_ms_count %d", &n); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
		}
	}
	if n > int(sh.ticks.Load()) {
		t.Errorf("tick histogram not reset on scrape: count %d > total ticks %d", n, sh.ticks.Load())
	}

	if code, body := httpGet(t, "http://"+addr+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, _ := httpGet(t, "http://"+addr+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d while serving, want 200", code)
	}

	// Kill the MC connection: readiness must flip, liveness must not.
	mc.Close()
	waitFor(t, "readyz 503", func() bool {
		code, _ := httpGet(t, "http://"+addr+"/readyz")
		return code == http.StatusServiceUnavailable
	})
	if code, _ := httpGet(t, "http://"+addr+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d after MC loss, want 200 (process is alive)", code)
	}
}

// TestCoordinatorHostMetricsAndHealth covers the MC-side endpoint: the
// coordinator gauges and runtime metrics render, and readiness tracks the
// host's closed state.
func TestCoordinatorHostMetricsAndHealth(t *testing.T) {
	nw := transport.NewMemNetwork()
	mc, err := ServeCoordinator(nw, "", coordinator.Config{World: geom.R(0, 0, 1000, 1000)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	addr, closer, err := mc.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	code, body := httpGet(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{"matrix_mc_active_servers", "matrix_runtime_goroutines"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if code, _ := httpGet(t, "http://"+addr+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d while serving, want 200", code)
	}
	mc.Close()
	waitFor(t, "readyz 503 after close", func() bool {
		code, _ := httpGet(t, "http://"+addr+"/readyz")
		return code == http.StatusServiceUnavailable
	})
}

// TestTickHistogramsBoundedWithoutScraper feeds 70 000 traced ticks to a host
// nobody scrapes: every phase histogram must restart at maxPhaseSamples
// instead of keeping one raw sample per tick for the life of the process.
func TestTickHistogramsBoundedWithoutScraper(t *testing.T) {
	h := &ServerHost{tr: trace.New(64), treg: metrics.NewRegistry()}
	for i := int64(0); i < 70_000; i++ {
		h.traceTick(i, i+1, i+2, i+4)
	}
	for _, name := range hostPhaseHistograms {
		if n := h.treg.Histogram(name).Count(); n != 70_000-maxPhaseSamples {
			t.Errorf("%s holds %d samples after 70 000 unscraped ticks, want %d (one restart at %d)",
				name, n, 70_000-maxPhaseSamples, maxPhaseSamples)
		}
	}
}

// TestUntracedHostHasNoTickHistograms pins the off-by-default contract:
// without a Tracer the scrape carries no tick-phase summaries and the hot
// path never touches the histogram registry.
func TestUntracedHostHasNoTickHistograms(t *testing.T) {
	nw := transport.NewMemNetwork()
	mc, err := ServeCoordinator(nw, "", coordinator.Config{World: geom.R(0, 0, 1000, 1000)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	sh, err := StartServer(ServerConfig{
		Network:        nw,
		Coordinator:    mc.Addr(),
		Radius:         40,
		TickInterval:   2 * time.Millisecond,
		ReportInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	addr, closer, err := sh.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	waitFor(t, "ticks", func() bool { return sh.ticks.Load() > 5 })
	_, body := httpGet(t, "http://"+addr+"/metrics")
	if strings.Contains(body, "matrix_tick_") {
		t.Error("untraced host scrape carries tick-phase histograms")
	}
	if !strings.Contains(body, "matrix_runtime_goroutines") {
		t.Error("untraced host scrape missing runtime gauges")
	}
}
