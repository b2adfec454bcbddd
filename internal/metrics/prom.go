package metrics

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
)

// PromName sanitizes an instrument name ("server/queue-len") into a
// Prometheus metric name ("matrix_server_queue_len"): a fixed matrix_
// prefix, with every rune outside [a-zA-Z0-9] mapped to '_'.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len("matrix_") + len(name))
	b.WriteString("matrix_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// summaryQuantiles are the quantile labels every histogram exports.
var summaryQuantiles = []float64{0.5, 0.95, 0.99}

// WritePrometheus renders every counter, gauge and histogram in reg in the
// Prometheus text exposition format. Counters get a _total suffix;
// histograms export as summaries: quantile-labelled sample lines (p50, p95,
// p99 by nearest rank) plus _count and _sum. Empty histograms export only
// _count 0 and _sum 0 — never a NaN quantile. Instruments appear in name
// order (Registry.State is name-sorted), so two scrapes of the same state
// are byte-identical. Series are a simulation artifact and are not scraped.
func WritePrometheus(w io.Writer, reg *Registry) {
	st := reg.State()
	for _, c := range st.Counters {
		n := PromName(c.Name) + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, c.Value)
	}
	for _, g := range st.Gauges {
		n := PromName(g.Name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", n, n, g.Value)
	}
	for _, h := range st.Histograms {
		n := PromName(h.Name)
		fmt.Fprintf(w, "# TYPE %s summary\n", n)
		var sum float64
		for _, s := range h.Samples {
			sum += s
		}
		if len(h.Samples) > 0 {
			sorted := append([]float64(nil), h.Samples...)
			sort.Float64s(sorted)
			for _, q := range summaryQuantiles {
				fmt.Fprintf(w, "%s{quantile=\"%g\"} %g\n", n, q, nearestRank(sorted, q))
			}
		}
		fmt.Fprintf(w, "%s_count %d\n%s_sum %g\n", n, len(h.Samples), n, sum)
	}
}

// nearestRank returns the q-quantile of sorted (non-empty) samples, the same
// nearest-rank rule Histogram.Quantile uses, so a scrape and a Summary()
// line never disagree.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// WriteRuntime appends Go runtime health gauges to a scrape: goroutine
// count, 99th-percentile GC pause over the runtime's recent-pause window,
// and heap bytes in use. Both hosts call this so every /metrics endpoint
// answers "is this process itself healthy" without attaching pprof.
func WriteRuntime(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# TYPE matrix_runtime_goroutines gauge\nmatrix_runtime_goroutines %d\n",
		runtime.NumGoroutine())
	fmt.Fprintf(w, "# TYPE matrix_runtime_gc_pause_p99_seconds gauge\nmatrix_runtime_gc_pause_p99_seconds %g\n",
		gcPauseP99(&ms))
	fmt.Fprintf(w, "# TYPE matrix_runtime_heap_inuse_bytes gauge\nmatrix_runtime_heap_inuse_bytes %d\n",
		ms.HeapInuse)
}

// gcPauseP99 computes the p99 GC pause in seconds from MemStats' circular
// pause buffer (up to the last 256 GCs); 0 before the first GC.
func gcPauseP99(ms *runtime.MemStats) float64 {
	n := int(ms.NumGC)
	if n == 0 {
		return 0
	}
	if n > len(ms.PauseNs) {
		n = len(ms.PauseNs)
	}
	pauses := make([]float64, n)
	for i := 0; i < n; i++ {
		pauses[i] = float64(ms.PauseNs[i])
	}
	sort.Float64s(pauses)
	return nearestRank(pauses, 0.99) / 1e9
}

// metricsServer ties an HTTP server to its listener for Close.
type metricsServer struct {
	srv *http.Server
}

// Close implements io.Closer.
func (m *metricsServer) Close() error { return m.srv.Close() }

// Serve starts an HTTP server on addr exposing GET /metrics, rendered by
// write on every scrape (write runs on the HTTP handler goroutine; callers
// typically refresh gauges there before rendering), beside the health
// probes: /healthz always answers 200 (the process is alive and serving),
// and /readyz answers 200 when ready() returns nil or 503 with the error
// text when it doesn't (nil ready = always ready). Orchestrators point
// liveness at /healthz and traffic-gating at /readyz; see
// docs/OPERATIONS.md. extra holds caller-supplied endpoints (e.g. the
// coordinator's /fleetz snapshot) for the same listener; patterns colliding
// with the built-in routes panic, as with any ServeMux double-registration.
// It returns the bound address — useful when addr requests an ephemeral
// port — and a closer that stops the server.
func Serve(addr string, write func(io.Writer), ready func() error, extra map[string]http.HandlerFunc) (string, io.Closer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	for pattern, h := range extra {
		mux.HandleFunc(pattern, h)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		write(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready != nil {
			if err := ready(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, err.Error())
				return
			}
		}
		fmt.Fprintln(w, "ready")
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), &metricsServer{srv: srv}, nil
}
