package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesDeclarations holds BENCHMARK.json equal to the tables
// this program prints from: workloads, end-to-end metrics with their
// bounds, per-layer metrics.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := m.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := m.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(m.PerLayer), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for i, d := range perLayer {
		if got := m.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	for _, d := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or used twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestWorkloadsAtToyScale runs every workload in-process at toy scale (8
// clients, 1 s, 50 sim ticks), untraced and traced, and checks that the
// emitted metric names are exactly the declared set, every value is
// finite, and failures do not exceed attempts. Validity gates are not
// enforced at this scale: the numbers mean nothing, the plumbing is what
// is under test.
func TestWorkloadsAtToyScale(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				o := runOpts{seed: 1, seconds: 1, inproc: true, lenient: true, scale: 8, outDir: t.TempDir()}
				res, err := runWorkload(w.name, o, traced)
				if err != nil {
					t.Fatal(err)
				}
				decl := endToEnd
				if traced {
					decl = perLayer
				}
				if len(res.metrics) != len(decl) {
					t.Errorf("emitted %d metrics, %d declared", len(res.metrics), len(decl))
				}
				for _, d := range decl {
					if _, ok := res.metrics[d.name]; !ok {
						t.Errorf("declared metric %s was not emitted", d.name)
					}
				}
				if !res.metrics.finite() {
					t.Errorf("a metric is not finite: %v", res.metrics)
				}
				if res.attempted < 1 || res.failed > res.attempted {
					t.Errorf("ops %d, failed %d", res.attempted, res.failed)
				}
				if err := res.print(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
