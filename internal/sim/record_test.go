package sim

import (
	"bytes"
	"testing"

	"matrix/internal/flight"
)

// recordTestConfig is the step-test surge and drain: the crowd forces
// splits, its departure reclaims, so the audit log sees grants and denials
// of both kinds.
func recordTestConfig(workers int) Config {
	cfg := stepTestConfig(3)
	cfg.SimWorkers = workers
	return cfg
}

// TestRecordingDeterministicAcrossWorkers pins the recorder's own
// determinism (that recording leaves the fingerprint alone is a row of
// equivalence_test.go): every export — CSV, JSON, timeline — is byte-identical between
// a serial run and an 8-worker run of the same seed.
func TestRecordingDeterministicAcrossWorkers(t *testing.T) {
	record := func(workers int) (csv, js, tl []byte) {
		s, err := New(recordTestConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		rec := flight.New()
		s.SetRecorder(rec)
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var c, j, l bytes.Buffer
		if err := rec.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteTimeline(&l); err != nil {
			t.Fatal(err)
		}
		return c.Bytes(), j.Bytes(), l.Bytes()
	}
	c1, j1, l1 := record(1)
	c8, j8, l8 := record(8)
	if !bytes.Equal(c1, c8) {
		t.Error("CSV recording diverges between SimWorkers=1 and SimWorkers=8")
	}
	if !bytes.Equal(j1, j8) {
		t.Error("JSON recording diverges between SimWorkers=1 and SimWorkers=8")
	}
	if !bytes.Equal(l1, l8) {
		t.Error("audit timeline diverges between SimWorkers=1 and SimWorkers=8")
	}
	// Vacuous determinism proves nothing: the run must have recorded real
	// series and real decisions.
	if !bytes.Contains(c1, []byte("imbalance/cov-pct")) || !bytes.Contains(c1, []byte("servers/active")) {
		t.Errorf("CSV missing expected columns:\n%.200s", c1)
	}
	if !bytes.Contains(l1, []byte("split")) {
		t.Errorf("audit timeline has no split decisions:\n%.400s", l1)
	}
}

// TestAuditExplainsTopologyEvents checks the audit log's completeness and
// content: every split/reclaim in Result.Events has a granted decision at
// the same time for the same server, carrying a correlation ID and the load
// inputs that justify it against the configured thresholds.
func TestAuditExplainsTopologyEvents(t *testing.T) {
	s, err := New(recordTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New()
	s.SetRecorder(rec)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Rows() == 0 {
		t.Fatal("recorder sampled no rows")
	}

	decs := rec.Decisions()
	inputsOf := func(d flight.Decision) map[string]float64 {
		m := make(map[string]float64, len(d.Inputs))
		for _, kv := range d.Inputs {
			m[kv.Key] = kv.Val
		}
		return m
	}
	splits, reclaims := 0, 0
	for _, ev := range res.Events {
		if ev.Kind != "split" && ev.Kind != "reclaim" {
			continue
		}
		found := false
		for _, d := range decs {
			if d.Kind != ev.Kind || !d.Granted || d.Time != ev.Time || d.Child != int64(ev.Server) {
				continue
			}
			found = true
			in := inputsOf(d)
			switch ev.Kind {
			case "split":
				splits++
				if d.Corr == 0 {
					t.Errorf("granted split of %v at t=%.1f has no correlation ID", ev.Server, ev.Time)
				}
				if in["clients"] < in["overload-clients"] && in["queue"] < in["overload-queue"] {
					t.Errorf("split at t=%.1f not explained by its inputs: %v", ev.Time, d.Inputs)
				}
			case "reclaim":
				reclaims++
				if d.Corr == 0 {
					t.Errorf("granted reclaim of %v at t=%.1f has no correlation ID", ev.Server, ev.Time)
				}
				if _, ok := in["child-clients"]; !ok {
					t.Errorf("reclaim at t=%.1f lacks the child's recorded load: %v", ev.Time, d.Inputs)
				}
			}
		}
		if !found {
			t.Errorf("%s of server %v at t=%.1f has no granted audit decision", ev.Kind, ev.Server, ev.Time)
		}
	}
	if splits == 0 {
		t.Error("run produced no audited splits")
	}
	if reclaims == 0 {
		t.Error("run produced no audited reclaims")
	}
	// Denials carry a reason; the cooldown/dwell machinery produces some in
	// any surge-drain run this tight.
	for _, d := range decs {
		if !d.Granted && d.Reason == "" {
			t.Errorf("denied %s decision at t=%.1f has no reason", d.Kind, d.Time)
		}
	}
}
