package metrics

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestEmptyHistogramQuantiles pins the empty-histogram contract end to end:
// the accessor answers 0 (never NaN), and a histogram emptied by Reset
// scrapes exactly like one that never observed — count/sum zeros, no
// quantile lines.
func TestEmptyHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %g, want 0", q, got)
		}
	}

	reg := NewRegistry()
	reg.Histogram("edge/reset-ms").Observe(42)
	before := scrape(reg)
	if !strings.Contains(before, `matrix_edge_reset_ms{quantile="0.5"} 42`) {
		t.Fatalf("populated histogram missing quantile line:\n%s", before)
	}
	reg.Histogram("edge/reset-ms").Reset()
	after := scrape(reg)
	if strings.Contains(after, "quantile") || strings.Contains(after, "NaN") {
		t.Errorf("reset histogram still emits quantiles:\n%s", after)
	}
	for _, line := range []string{"matrix_edge_reset_ms_count 0\n", "matrix_edge_reset_ms_sum 0\n"} {
		if !strings.Contains(after, line) {
			t.Errorf("reset histogram scrape missing %q:\n%s", line, after)
		}
	}
}

// TestHistogramResetConcurrentWithScrape hammers one histogram with
// observers and resetters while a scraper renders the registry. Run under
// -race (CI does) it proves Reset, Observe and the scrape's State() copy
// share nothing hot; the assertions check every scrape stays well-formed
// (counts parse, never negative, no NaN) no matter where a Reset lands.
func TestHistogramResetConcurrentWithScrape(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("edge/churn-ms")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(1.5)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Reset()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		out := scrape(reg)
		if strings.Contains(out, "NaN") {
			t.Fatalf("scrape %d emitted NaN:\n%s", i, out)
		}
		idx := strings.Index(out, "matrix_edge_churn_ms_count ")
		if idx < 0 {
			t.Fatalf("scrape %d missing count line:\n%s", i, out)
		}
		rest := out[idx+len("matrix_edge_churn_ms_count "):]
		n, err := strconv.Atoi(rest[:strings.IndexByte(rest, '\n')])
		if err != nil || n < 0 {
			t.Fatalf("scrape %d count unparseable (%v): %q", i, err, rest)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWriteRuntimeShape pins the exact exposition shape: the three runtime
// gauges, each a TYPE line followed by a sample line whose value parses,
// goroutines >= 1 and heap bytes > 0 in any live process.
func TestWriteRuntimeShape(t *testing.T) {
	var buf bytes.Buffer
	WriteRuntime(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	want := []string{
		"matrix_runtime_goroutines",
		"matrix_runtime_gc_pause_p99_seconds",
		"matrix_runtime_heap_inuse_bytes",
	}
	if len(lines) != 2*len(want) {
		t.Fatalf("WriteRuntime emitted %d lines, want %d:\n%s", len(lines), 2*len(want), buf.String())
	}
	vals := map[string]float64{}
	for i, name := range want {
		if typeLine := "# TYPE " + name + " gauge"; lines[2*i] != typeLine {
			t.Errorf("line %d = %q, want %q", 2*i, lines[2*i], typeLine)
		}
		sample := lines[2*i+1]
		if !strings.HasPrefix(sample, name+" ") {
			t.Fatalf("line %d = %q, want a %s sample", 2*i+1, sample, name)
		}
		v, err := strconv.ParseFloat(sample[len(name)+1:], 64)
		if err != nil {
			t.Fatalf("%s value unparseable: %v", name, err)
		}
		vals[name] = v
	}
	if vals["matrix_runtime_goroutines"] < 1 {
		t.Errorf("goroutines = %g, want >= 1", vals["matrix_runtime_goroutines"])
	}
	if vals["matrix_runtime_heap_inuse_bytes"] <= 0 {
		t.Errorf("heap_inuse = %g, want > 0", vals["matrix_runtime_heap_inuse_bytes"])
	}
	if vals["matrix_runtime_gc_pause_p99_seconds"] < 0 {
		t.Errorf("gc_pause_p99 = %g, want >= 0", vals["matrix_runtime_gc_pause_p99_seconds"])
	}
}

// TestServeMuxExtraEndpoints serves a caller-supplied endpoint beside
// /metrics and the health probes (the coordinator's /fleetz pattern).
func TestServeMuxExtraEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mux/ops").Inc()
	addr, closer, err := Serve(
		"127.0.0.1:0",
		func(w io.Writer) { WritePrometheus(w, reg) },
		nil,
		map[string]http.HandlerFunc{
			"/fleetz": func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, `{"ok":true}`)
			},
		})
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
	if code, body := get("/fleetz"); code != 200 || body != `{"ok":true}` {
		t.Fatalf("/fleetz = %d %q", code, body)
	}
	// The built-in routes survive the extra registration.
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "matrix_mux_ops_total 1") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz = %d, want 200", code)
	}
}
