package main

import (
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"matrix/internal/protocol"
	"matrix/internal/transport"
)

// TestMiddlewareFlagValidation pins the parse-time guards: malformed
// -middleware specs and nonsense knob values must fail the invocation
// with a pointed error before anything dials the coordinator.
func TestMiddlewareFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown-stage", []string{"-middleware", "auth,teleport"}, `unknown stage "teleport"`},
		{"duplicate-stage", []string{"-middleware", "ratelimit,ratelimit"}, `duplicate stage "ratelimit"`},
		{"empty-element", []string{"-middleware", "auth,,audit"}, "bad spec element"},
		{"zero-rate", []string{"-middleware", "ratelimit", "-rate-limit", "0"}, "rate limit must be positive"},
		{"negative-rate", []string{"-middleware", "ratelimit", "-rate-limit", "-3"}, "rate limit must be positive"},
		{"nan-rate", []string{"-middleware", "ratelimit", "-rate-limit", "NaN"}, "rate limit must be positive"},
		{"zero-shed-queue", []string{"-middleware", "admission", "-shed-queue", "0"}, "shed queue must be positive"},
		{"negative-shed-queue", []string{"-middleware", "admission", "-shed-queue", "-1"}, "shed queue must be positive"},
		{"auth-without-secret", []string{"-middleware", "auth"}, "requires -auth-secret"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) accepted an invalid middleware config", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestDrainFlagValidation pins the parse-time guards on the graceful
// shutdown knobs.
func TestDrainFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"exit-without-drain", []string{"-drain-exit"}, "-drain-exit requires -drain"},
		{"zero-timeout", []string{"-drain", "-drain-timeout", "0s"}, "-drain-timeout must be positive"},
		{"negative-timeout", []string{"-drain", "-drain-timeout", "-5s"}, "-drain-timeout must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) accepted an invalid drain config", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestDrainFlagValidationBeforeDial proves the drain guards fire before the
// coordinator dial: with an unreachable coordinator the flag error wins.
func TestDrainFlagValidationBeforeDial(t *testing.T) {
	args := []string{"-coordinator", "127.0.0.1:1", "-drain-exit"}
	err := run(args)
	if err == nil || !strings.Contains(err.Error(), "-drain-exit requires -drain") {
		t.Errorf("run(%v) = %v, want the flag error (not a dial error)", args, err)
	}
}

// TestMiddlewareFlagValidationBeforeDial proves the guards fire at parse
// time: with an unreachable coordinator, a valid chain spec fails on the
// dial while an invalid one fails on the spec — the spec error wins.
func TestMiddlewareFlagValidationBeforeDial(t *testing.T) {
	args := []string{"-coordinator", "127.0.0.1:1", "-middleware", "nonsense"}
	err := run(args)
	if err == nil || !strings.Contains(err.Error(), `unknown stage "nonsense"`) {
		t.Errorf("run(%v) = %v, want the spec error (not a dial error)", args, err)
	}
}

// TestDumpBoundsNeverFinalStream points -dump at a listener that streams
// 17 × 1 MiB SnapshotData chunks and never sets Final: the dump must fail
// with ErrBlobTooLarge when the stream outgrows protocol.MaxBlobSize instead
// of buffering whatever a broken (or hostile) server keeps sending.
func TestDumpBoundsNeverFinalStream(t *testing.T) {
	ln, err := transport.TCPNetwork{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := conn.Recv(); err != nil { // the SnapshotRequest
			return
		}
		chunk := make([]byte, protocol.ChunkSize)
		for i := 0; i < 17; i++ {
			if conn.Send(&protocol.SnapshotData{Blob: chunk}) != nil {
				return
			}
		}
		_, _ = conn.Recv() // hold the stream open until dump hangs up
	}()
	out := filepath.Join(t.TempDir(), "dump.snap")
	err = dump(slog.New(slog.NewTextHandler(io.Discard, nil)), ln.Addr(), out)
	if !errors.Is(err, protocol.ErrBlobTooLarge) {
		t.Fatalf("dump of a never-final 17 MiB stream = %v, want ErrBlobTooLarge", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Error("dump wrote a file for a stream it refused")
	}
}
