package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestNilTracerIsSafe exercises every method on the disabled (nil) tracer.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.SetClock(func() int64 { return 42 })
	if got := tr.Now(); got != 0 {
		t.Fatalf("nil Now() = %d, want 0", got)
	}
	tr.Slice(1, 2, "s", 0, 1)
	tr.SliceArg(1, 2, "s", 0, 1, "k", 3)
	tr.InstantArg(1, 2, "i", 0, "", 0)
	tr.InstantArg(1, 2, "i", 0, "k", 3)
	tr.AsyncBegin(1, "c", "a", 7, 0)
	tr.AsyncStep(1, "c", "a", 7, 1)
	tr.AsyncStepArg(1, "c", "a", 7, 1, "k", 3)
	tr.AsyncEnd(1, "c", "a", 7, 2)
	tr.Counter(1, "n", 0, 9)
	tr.NameProcess(1, "p")
	tr.NameThread(1, 2, "t")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatalf("nil tracer reported state: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if err := ValidateJSON(buf.Bytes()); err != nil {
		t.Fatalf("nil tracer JSON invalid: %v", err)
	}
}

// TestDisabledPathZeroAllocs pins the acceptance criterion: the disabled
// (nil-tracer) path is 0 allocs/op.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		start := tr.Now()
		tr.Slice(1, 0, "tick", start, tr.Now()-start)
		tr.AsyncBegin(1, "packet", "packet", 123, start)
		tr.AsyncStepArg(1, "packet", "peer-forward", 123, start, "peer", 4)
		tr.AsyncEnd(1, "packet", "packet", 123, start)
		tr.Counter(1, "queue", start, 7)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestEnabledPathZeroAllocs pins that emitting into the ring allocates
// nothing either: the hot path is an atomic add plus a struct store.
func TestEnabledPathZeroAllocs(t *testing.T) {
	tr := New(1 << 10)
	tr.SetClock(func() int64 { return 5 })
	allocs := testing.AllocsPerRun(1000, func() {
		start := tr.Now()
		tr.Slice(1, 0, "tick", start, 10)
		tr.AsyncBegin(1, "packet", "packet", 123, start)
		tr.AsyncStepArg(1, "packet", "peer-forward", 123, start, "peer", 4)
		tr.AsyncEnd(1, "packet", "packet", 123, start)
		tr.Counter(1, "queue", start, 7)
	})
	if allocs != 0 {
		t.Fatalf("enabled tracer path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestRingWrap checks capacity rounding, drop accounting, and that Events
// returns the newest window with metadata hoisted to the front.
func TestRingWrap(t *testing.T) {
	tr := New(100) // rounds up to 128
	tr.NameProcess(1, "engine")
	for i := 0; i < 200; i++ {
		tr.InstantArg(1, 0, "e", int64(i), "", 0)
	}
	if tr.Len() != 128 {
		t.Fatalf("Len = %d, want 128", tr.Len())
	}
	if tr.Dropped() != 201-128 {
		t.Fatalf("Dropped = %d, want %d", tr.Dropped(), 201-128)
	}
	evs := tr.Events()
	if len(evs) != 128 {
		t.Fatalf("Events len = %d, want 128", len(evs))
	}
	// The newest instant must be the final event, and metadata (if still in
	// the window) comes first. The NameProcess event was overwritten here,
	// so every event is an instant and the oldest surviving TS is 200-128+1.
	if last := evs[len(evs)-1]; last.TS != 199 {
		t.Fatalf("last event TS = %d, want 199", last.TS)
	}
	if first := evs[0]; first.TS != 199-127 {
		t.Fatalf("first event TS = %d, want %d", first.TS, 199-127)
	}
}

// TestMetadataSurvivesWrap: metadata hoisting only applies to events still
// in the ring; emit metadata and stay under capacity, it leads the export.
func TestMetadataSurvivesWrap(t *testing.T) {
	tr := New(128)
	tr.InstantArg(1, 0, "early", 1, "", 0)
	tr.NameProcess(1, "engine")
	tr.InstantArg(1, 0, "late", 2, "", 0)
	evs := tr.Events()
	if len(evs) != 3 || evs[0].Ph != PhaseMetadata {
		t.Fatalf("metadata not hoisted: %+v", evs)
	}
}

// TestWriteJSONShape decodes the export with encoding/json and checks the
// exact field layout Perfetto expects for each phase.
func TestWriteJSONShape(t *testing.T) {
	tr := New(1 << 8)
	tr.NameProcess(7, "server-7")
	tr.NameThread(7, 2, "worker-2")
	tr.SliceArg(7, 2, "phase-a", 100, 50, "server", 3)
	tr.InstantArg(7, 0, "mark \"x\"", 120, "", 0)
	tr.AsyncBegin(7, "packet", "packet", 0xdeadbeef, 100)
	tr.AsyncStepArg(7, "packet", "peer-forward", 0xdeadbeef, 110, "peer", 4)
	tr.AsyncEnd(7, "packet", "packet", 0xdeadbeef, 130)
	tr.Counter(7, "queue-len", 140, 17)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := ValidateJSON(buf.Bytes()); err != nil {
		t.Fatalf("export fails own validator: %v\n%s", err, buf.String())
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	if len(top.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8", len(top.TraceEvents))
	}
	byName := func(name, ph string) map[string]any {
		for _, e := range top.TraceEvents {
			if e["name"] == name && e["ph"] == ph {
				return e
			}
		}
		t.Fatalf("no event name=%q ph=%q", name, ph)
		return nil
	}
	slice := byName("phase-a", "X")
	if slice["dur"].(float64) != 50 || slice["ts"].(float64) != 100 {
		t.Fatalf("slice fields wrong: %v", slice)
	}
	if args := slice["args"].(map[string]any); args["server"].(float64) != 3 {
		t.Fatalf("slice args wrong: %v", args)
	}
	begin := byName("packet", "b")
	id2 := begin["id2"].(map[string]any)
	if id2["global"] != "0xdeadbeef" {
		t.Fatalf("async id wrong: %v", begin)
	}
	if begin["cat"] != "packet" {
		t.Fatalf("async cat wrong: %v", begin)
	}
	meta := byName("process_name", "M")
	if meta["args"].(map[string]any)["name"] != "server-7" {
		t.Fatalf("process metadata wrong: %v", meta)
	}
	ctr := byName("queue-len", "C")
	if ctr["args"].(map[string]any)["value"].(float64) != 17 {
		t.Fatalf("counter args wrong: %v", ctr)
	}
	// The quoted instant name must round-trip through escaping.
	byName(`mark "x"`, "i")
}

// TestValidateJSONRejects feeds the validator malformed documents.
func TestValidateJSONRejects(t *testing.T) {
	bad := []struct{ name, doc string }{
		{"not json", `{`},
		{"no traceEvents", `{"foo":1}`},
		{"unknown phase", `{"traceEvents":[{"name":"x","ph":"Z","ts":0,"pid":0,"tid":0}]}`},
		{"missing ts", `{"traceEvents":[{"name":"x","ph":"i","pid":0,"tid":0}]}`},
		{"missing name", `{"traceEvents":[{"ph":"i","ts":0,"pid":0,"tid":0}]}`},
		{"slice without dur", `{"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":0,"tid":0}]}`},
		{"async without id", `{"traceEvents":[{"name":"x","ph":"b","ts":0,"pid":0,"tid":0}]}`},
	}
	for _, tc := range bad {
		if err := ValidateJSON([]byte(tc.doc)); err == nil {
			t.Errorf("%s: validator accepted %s", tc.name, tc.doc)
		}
	}
	ok := `{"traceEvents":[{"name":"x","ph":"b","ts":0,"pid":0,"tid":0,"id":"0x1"}]}`
	if err := ValidateJSON([]byte(ok)); err != nil {
		t.Errorf("validator rejected plain-id async event: %v", err)
	}
}

// TestConcurrentEmit hammers the ring from many goroutines under the race
// detector: distinct atomic slots mean no data races and no lost counts.
func TestConcurrentEmit(t *testing.T) {
	// Stay under capacity: concurrent emitters may only share the ring
	// race-free while a wrap cannot reuse a slot between sync points (the
	// engine's per-tick worker barrier guarantees this in real use).
	tr := New(1 << 13)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.SliceArg(1, int32(w), "work", int64(i), 1, "worker", int64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := tr.pos.Load(); got != workers*per {
		t.Fatalf("emitted %d events, want %d", got, workers*per)
	}
}

// TestWriteText smoke-checks the plain-text dump.
func TestWriteText(t *testing.T) {
	tr := New(1 << 8)
	tr.NameProcess(1, "engine")
	tr.Slice(1, 0, "tick", 100, 42)
	tr.AsyncBegin(1, "packet", "packet", 9, 101)
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"tick", "dur=42us", "id=0x9", "process_name=engine", "3 events"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text dump missing %q:\n%s", want, out)
		}
	}
}

// TestServe dumps the ring over HTTP and validates both endpoints.
func TestServe(t *testing.T) {
	tr := New(1 << 8)
	tr.Slice(1, 0, "tick", 0, 10)
	addr, closer, err := tr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer closer.Close()
	resp, err := http.Get("http://" + addr + "/trace")
	if err != nil {
		t.Fatalf("GET /trace: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := ValidateJSON(body); err != nil {
		t.Fatalf("/trace body invalid: %v", err)
	}
	resp, err = http.Get("http://" + addr + "/trace.txt")
	if err != nil {
		t.Fatalf("GET /trace.txt: %v", err)
	}
	txt, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(txt), "tick") {
		t.Fatalf("/trace.txt missing event:\n%s", txt)
	}
}
