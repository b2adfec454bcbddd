package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"matrix/internal/experiments"
	"matrix/internal/policy"
	"matrix/internal/trace"
)

// TestTraceFlashcrowd is the tentpole acceptance test: `matrix-bench
// -trace out.json` (flashcrowd by default) must produce structurally
// valid Chrome trace JSON containing tick-phase slices and at least one
// cross-server packet span.
func TestTraceFlashcrowd(t *testing.T) {
	if testing.Short() {
		t.Skip("full flashcrowd run")
	}
	path := filepath.Join(t.TempDir(), "out.json")
	if err := run([]string{"-trace", path, "-sim-workers", "2"}); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateJSON(data); err != nil {
		t.Fatalf("trace not structurally valid: %v", err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			ID2  *struct {
				Global string `json:"global"`
			} `json:"id2"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	slices := map[string]bool{}
	spans := map[string]map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			slices[e.Name] = true
		case "b", "n", "e":
			if e.ID2 == nil {
				continue
			}
			m := spans[e.ID2.Global]
			if m == nil {
				m = map[string]bool{}
				spans[e.ID2.Global] = m
			}
			m[e.Name] = true
		}
	}
	for _, want := range []string{"tick", "phase-a", "phase-b", "server-process"} {
		if !slices[want] {
			t.Errorf("trace has no %q slice", want)
		}
	}
	cross := 0
	for _, names := range spans {
		if names["packet"] && names["peer-forward"] {
			cross++
		}
	}
	if cross == 0 {
		t.Errorf("no cross-server packet span in flashcrowd trace (%d spans)", len(spans))
	}
}

// TestRecordFlashcrowd covers the flight-recorder CLI path: `matrix-bench
// -record out/ -trace out.json` must write all three artifacts with their
// documented shapes and merge counter tracks into a still-valid Perfetto
// trace.
func TestRecordFlashcrowd(t *testing.T) {
	if testing.Short() {
		t.Skip("full flashcrowd run")
	}
	dir := t.TempDir()
	recDir := filepath.Join(dir, "rec")
	tracePath := filepath.Join(dir, "out.json")
	if err := run([]string{"-record", recDir, "-trace", tracePath, "-sim-workers", "2"}); err != nil {
		t.Fatalf("run -record: %v", err)
	}

	csvData, err := os.ReadFile(filepath.Join(recDir, "flight.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvData), "tick,time,") {
		t.Errorf("flight.csv header = %q, want tick,time,... prefix", firstLine(csvData))
	}
	if !strings.Contains(firstLine(csvData), "servers/active") {
		t.Errorf("flight.csv header %q missing servers/active column", firstLine(csvData))
	}

	jsonData, err := os.ReadFile(filepath.Join(recDir, "flight.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema    string                   `json:"schema"`
		Rows      int                      `json:"rows"`
		Decisions []map[string]interface{} `json:"decisions"`
	}
	if err := json.Unmarshal(jsonData, &doc); err != nil {
		t.Fatalf("flight.json: %v", err)
	}
	if doc.Schema != "matrix-flight/1" {
		t.Errorf("flight.json schema = %q", doc.Schema)
	}
	if doc.Rows == 0 || len(doc.Decisions) == 0 {
		t.Errorf("flight.json empty: rows=%d decisions=%d", doc.Rows, len(doc.Decisions))
	}

	audit, err := os.ReadFile(filepath.Join(recDir, "audit.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(audit), "# decision audit:") {
		t.Errorf("audit.txt header = %q", firstLine(audit))
	}
	if !strings.Contains(string(audit), "split") {
		t.Error("audit.txt records no split decision for flashcrowd")
	}

	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateJSON(traceData); err != nil {
		t.Fatalf("merged trace not structurally valid: %v", err)
	}
	var tdoc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &tdoc); err != nil {
		t.Fatal(err)
	}
	counters := map[string]bool{}
	for _, e := range tdoc.TraceEvents {
		if e.Ph == "C" {
			counters[e.Name] = true
		}
	}
	if !counters["servers/active"] || !counters["imbalance/cov-pct"] {
		t.Errorf("merged trace missing flight counter tracks (have %d counters)", len(counters))
	}
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestPolicyFlag table-tests the parse-time -policy validation: every
// registered name (and the empty default) is accepted, unknown names fail
// before any simulation starts and the error lists the valid names. The
// runs pair -policy with -list, which exits after printing the tables, so
// the accept cases stay milliseconds.
func TestPolicyFlag(t *testing.T) {
	type tc struct {
		name    string
		policy  string
		wantErr string
	}
	cases := []tc{
		{"empty means paper", "", ""},
		{"unknown name", "nope", "unknown policy"},
		{"near miss", "papers", "unknown policy"},
		{"case sensitive", "Paper", "unknown policy"},
	}
	for _, name := range policy.Names() {
		cases = append(cases, tc{"registered " + name, name, ""})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run([]string{"-list", "-policy", c.policy})
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("run -policy %q: %v", c.policy, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("run -policy %q: err = %v, want %q", c.policy, err, c.wantErr)
			}
			// The parse-time error names the valid choices, like the
			// netem/middleware spec parsers do.
			if !strings.Contains(err.Error(), "paper") {
				t.Errorf("error %v does not list the registered policies", err)
			}
		})
	}
}

// TestFlagValidation exercises the cheap error paths: bad scenario names
// and flag combinations must fail before any simulation runs.
func TestFlagValidation(t *testing.T) {
	if err := run([]string{"-trace", "/tmp/x.json", "-scenario", "nope"}); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("-trace with unknown scenario: %v", err)
	}
	if err := run([]string{"-trace", "/tmp/x.json", "-scenario", "flashcrowd,lossy"}); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Errorf("-trace with two scenarios: %v", err)
	}
	if err := run([]string{"-audit"}); err == nil || !strings.Contains(err.Error(), "-record") {
		t.Errorf("-audit without -record: %v", err)
	}
	if err := run([]string{"-record", "/tmp/rec", "-scenario", "nope"}); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("-record with unknown scenario: %v", err)
	}
	// -branch is gone (the sweep engine finds shared warmups itself): the
	// flag set must reject it rather than silently accept a no-op.
	if err := run([]string{"-branch", "-list"}); err == nil || !strings.Contains(err.Error(), "not defined: -branch") {
		t.Errorf("-branch: err = %v, want an unknown-flag error", err)
	}
	// An unknown -exp key lists the experiment table's keys, first unknown
	// key first.
	err := run([]string{"-exp", "asymptotic,nope,zzz"})
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "nope"`) {
		t.Fatalf("-exp with unknown keys: %v", err)
	}
	for _, key := range experiments.ExperimentKeys() {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("unknown -exp error %q does not list key %q", err, key)
		}
	}
}
