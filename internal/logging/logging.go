// Package logging standardizes the cmd binaries' structured logging: one
// slog.Logger per process (text or JSON, levelled), with a bridge into
// the stdlib *log.Logger the host configs accept, so the internal
// packages stay slog-free while every emitted line carries the process's
// component attributes.
package logging

import (
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers the profile handlers ServePprof serves
	"strings"
)

// Levels accepted by ParseLevel, in the order -log-level documents them.
const LevelNames = "debug, info, warn, error"

// ParseLevel maps a -log-level flag value onto a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (valid: %s)", s, LevelNames)
}

// New builds the process logger: text (human-oriented, the default) or
// JSON (machine-ingested) lines at or above level, with attrs stamped on
// every record (conventionally component=... plus server/region ids as
// they become known).
func New(w io.Writer, level slog.Level, json bool, attrs ...slog.Attr) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	if len(attrs) > 0 {
		h = h.WithAttrs(attrs)
	}
	return slog.New(h)
}

// Std bridges l into a stdlib *log.Logger emitting at level — the shim
// the host configs (which accept *log.Logger) plug into, so internal
// diagnostics land in the same structured stream as the binary's own
// lines.
func Std(l *slog.Logger, level slog.Level) *log.Logger {
	return slog.NewLogLogger(l.Handler(), level)
}

// ServePprof serves the net/http/pprof endpoints on their own listener — kept
// off the metrics address so profiling can be firewalled separately — and
// returns the address it bound. An empty addr means off: nothing is served
// and bound is empty. The handlers sit on http.DefaultServeMux by the blank
// import above; only the cmd mains import this package, so a program
// embedding the matrix facade never finds them on its own default mux.
func ServePprof(addr string) (bound string, err error) {
	if addr == "" {
		return "", nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("pprof: %w", err)
	}
	go func() { _ = http.Serve(ln, nil) }()
	return ln.Addr().String(), nil
}
