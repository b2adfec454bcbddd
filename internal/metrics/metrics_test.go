package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Error("zero value must start at 0")
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("negative Add must be ignored, got %d", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("Value = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(3.5)
	g.Set(-1.5)
	if got := g.Value(); got != -1.5 {
		t.Errorf("Value = %v, want -1.5", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram must report zeros")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Max() != 5 {
		t.Errorf("Max = %v", h.Max())
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want min", got)
	}
	if got := h.Quantile(1); got != 5 {
		t.Errorf("q1 = %v, want max", got)
	}
	if h.Summary() == "" {
		t.Error("Summary must be non-empty")
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Histogram
	h.Observe(5)
	h.Observe(1)
	if got := h.Quantile(1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	h.Observe(9) // must re-sort lazily
	if got := h.Quantile(1); got != 9 {
		t.Errorf("q1 after new sample = %v, want 9", got)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Reset()
	if h.Count() != 0 {
		t.Error("Reset must clear samples")
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		var h Histogram
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Observe(v)
		}
		if h.Count() == 0 {
			return true
		}
		// Quantiles must be monotone in q.
		qs := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
		prev := math.Inf(-1)
		for _, q := range qs {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantileNearestRank(t *testing.T) {
	var h Histogram
	rnd := rand.New(rand.NewSource(1))
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = rnd.Float64() * 1000
	}
	for _, v := range vals {
		h.Observe(v)
	}
	sort.Float64s(vals)
	if got := h.Quantile(0.95); got != vals[94] {
		t.Errorf("p95 = %v, want %v (nearest rank)", got, vals[94])
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("clients")
	if s.Name() != "clients" {
		t.Errorf("Name = %q", s.Name())
	}
	s.Append(0, 10)
	s.Append(1, 20)
	s.Append(2, 15)
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	times, values := s.Points()
	if len(times) != 3 || times[1] != 1 || values[1] != 20 {
		t.Errorf("Points = %v %v", times, values)
	}
	// Mutating the copies must not affect the series.
	values[0] = 999
	_, v2 := s.Points()
	if v2[0] != 10 {
		t.Error("Points must return copies")
	}
	if got := s.Max(); got != 20 {
		t.Errorf("Max = %v", got)
	}
}

func TestSeriesAt(t *testing.T) {
	s := NewSeries("x")
	s.Append(10, 1)
	s.Append(20, 2)
	tests := []struct {
		t, want float64
	}{
		{5, 0},  // before first point
		{10, 1}, // exact
		{15, 1}, // step-holds previous
		{20, 2},
		{99, 2},
	}
	for _, tt := range tests {
		if got := s.At(tt.t); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestRegistryReuse(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c1.Inc()
	if got := r.Counter("a").Value(); got != 1 {
		t.Error("Counter must return the same instance per name")
	}
	if r.Counter("b").Value() != 0 {
		t.Error("different name must be a fresh counter")
	}
	h := r.Histogram("h")
	h.Observe(1)
	if r.Histogram("h").Count() != 1 {
		t.Error("Histogram identity")
	}
	s := r.Series("s")
	s.Append(0, 1)
	if r.Series("s").Len() != 1 {
		t.Error("Series identity")
	}
}

func TestRegistrySeriesQueries(t *testing.T) {
	r := NewRegistry()
	r.Series("clients/server-2")
	r.Series("clients/server-1")
	r.Series("queue/server-1")
	names := r.SeriesNames()
	if len(names) != 3 || names[0] != "clients/server-1" {
		t.Errorf("SeriesNames = %v", names)
	}
	byPfx := r.SeriesByPrefix("clients/")
	if len(byPfx) != 2 {
		t.Fatalf("SeriesByPrefix = %d entries", len(byPfx))
	}
	if byPfx[0].Name() != "clients/server-1" || byPfx[1].Name() != "clients/server-2" {
		t.Errorf("prefix order: %q, %q", byPfx[0].Name(), byPfx[1].Name())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("shared").Inc()
				r.Histogram("lat").Observe(float64(j))
				r.Series("ts").Append(float64(j), 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 1600 {
		t.Errorf("shared counter = %d", got)
	}
	if got := r.Histogram("lat").Count(); got != 1600 {
		t.Errorf("histogram count = %d", got)
	}
}
