package middleware

import (
	"fmt"
	"strings"
)

// Stage names accepted in a -middleware spec.
const (
	StageAuth      = "auth"
	StageRateLimit = "ratelimit"
	StageAdmission = "admission"
	StageAudit     = "audit"
)

// knownStages is the error-message rendering of the stage set.
const knownStages = "auth, ratelimit, admission, audit"

// Config assembles a standard chain from the CLI-facing knobs.
type Config struct {
	// Stages lists the built-in stages to install, in registration order
	// (= request order). Empty disables the chain.
	Stages []string
	// AuthSecret is the shared session token the auth stage requires on
	// every ClientHello. Mandatory when Stages includes "auth".
	AuthSecret string
	// RateLimitPerSec is the per-client sustained admission rate for the
	// ratelimit stage (0 = default 200 updates/sec; negative is an error).
	RateLimitPerSec float64
	// RateLimitBurst is the token-bucket depth (<=0 = 2x RateLimitPerSec).
	RateLimitBurst float64
	// ShedQueue is the receive-queue length at which the admission stage
	// starts shedding data-plane frames (0 = default 5000).
	ShedQueue int
	// AuditBuffer bounds the async audit queue (<=0 = 1024).
	AuditBuffer int
	// AuditSink receives audited events on the auditor's goroutine
	// (nil = overflow-counted only; a live host logs them).
	AuditSink func(Event)
}

// Enabled reports whether the config installs any stage at all.
func (c Config) Enabled() bool { return len(c.Stages) > 0 }

// withDefaults fills the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.RateLimitPerSec == 0 {
		c.RateLimitPerSec = 200
	}
	if c.RateLimitBurst <= 0 {
		c.RateLimitBurst = 2 * c.RateLimitPerSec
	}
	if c.ShedQueue == 0 {
		c.ShedQueue = 5000
	}
	if c.AuditBuffer <= 0 {
		c.AuditBuffer = 1024
	}
	return c
}

// ParseSpec parses a -middleware stage list such as
// "auth,ratelimit,admission,audit". Order is preserved — it becomes the
// chain's registration order. An empty spec yields a nil list (chain
// disabled). Errors follow netem.ParseSpec's shape: the offending element
// quoted, with what was expected.
func ParseSpec(spec string) ([]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		s := strings.ToLower(strings.TrimSpace(p))
		if s == "" {
			return nil, fmt.Errorf("middleware: bad spec element %q (want a stage name: %s)", p, knownStages)
		}
		out = append(out, s)
	}
	if err := validateStages(out); err != nil {
		return nil, err
	}
	return out, nil
}

// validateStages rejects unknown and duplicate stage names.
func validateStages(stages []string) error {
	var seen [4]bool
	idx := func(s string) int {
		switch s {
		case StageAuth:
			return 0
		case StageRateLimit:
			return 1
		case StageAdmission:
			return 2
		case StageAudit:
			return 3
		}
		return -1
	}
	for _, s := range stages {
		i := idx(s)
		if i < 0 {
			return fmt.Errorf("middleware: unknown stage %q (known: %s)", s, knownStages)
		}
		if seen[i] {
			return fmt.Errorf("middleware: duplicate stage %q", s)
		}
		seen[i] = true
	}
	return nil
}

// ValidateRate rejects a non-positive (or NaN) rate limit, the parse-time
// guard behind the -rate-limit flag.
func ValidateRate(perSec float64) error {
	if !(perSec > 0) {
		return fmt.Errorf("middleware: rate limit must be positive (got %v)", perSec)
	}
	return nil
}
