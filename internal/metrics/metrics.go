// Package metrics provides the measurement primitives behind every table
// and figure in the evaluation: counters, gauges, histograms with quantile
// estimation, and per-tick time series (the paper's Figure 2 plots client
// counts and queue lengths against time).
package metrics

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter, safe for concurrent use.
// Increments are a single atomic add — no lock traffic on hot paths.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (negative deltas are ignored: counters are
// monotone by contract).
func (c *Counter) Add(d int64) {
	if d < 0 {
		return
	}
	c.v.Add(d)
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value, safe for concurrent use: the float is
// stored as its IEEE-754 bits in an atomic word, so reads never block.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations and reports count/mean/quantiles. It
// stores raw samples (the experiment scales here are small enough that the
// exactness is worth more than a sketch's memory savings).
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.sorted = false
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range h.samples {
		s += v
	}
	return s / float64(len(h.samples))
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	m := math.Inf(-1)
	for _, v := range h.samples {
		if v > m {
			m = v
		}
	}
	return m
}

// Quantile returns the q-quantile (0<=q<=1) using nearest-rank on the sorted
// samples; 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[n-1]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return h.samples[idx]
}

// Samples returns a copy of the raw samples in their current in-memory
// order (insertion order, or sorted if a quantile has been computed). Used
// by the snapshot subsystem; restoring the copy with NewHistogramFromSamples
// reproduces the histogram exactly.
func (h *Histogram) Samples() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(h.samples))
	copy(out, h.samples)
	return out
}

// NewHistogramFromSamples rebuilds a histogram from a sample snapshot. The
// slice is copied.
func NewHistogramFromSamples(samples []float64) *Histogram {
	h := &Histogram{samples: make([]float64, len(samples))}
	copy(h.samples, samples)
	return h
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.samples = h.samples[:0]
	h.sorted = false
	h.mu.Unlock()
}

// Summary renders count/mean/p50/p95/p99/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

// Series is a named time series: (time, value) pairs appended in time order,
// exactly what the paper's Figure 2 graphs are made of.
type Series struct {
	mu     sync.Mutex
	name   string
	times  []float64
	values []float64
}

// NewSeries creates an empty series with a display name.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Append records the value at time t (seconds).
func (s *Series) Append(t, v float64) {
	s.mu.Lock()
	s.times = append(s.times, t)
	s.values = append(s.values, v)
	s.mu.Unlock()
}

// Len returns the number of points.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.times)
}

// Points returns copies of the time and value slices.
func (s *Series) Points() (times, values []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	times = make([]float64, len(s.times))
	values = make([]float64, len(s.values))
	copy(times, s.times)
	copy(values, s.values)
	return times, values
}

// At returns the value recorded at the largest time <= t (0 if none).
func (s *Series) At(t float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := sort.SearchFloat64s(s.times, t)
	if idx < len(s.times) && s.times[idx] == t {
		return s.values[idx]
	}
	if idx == 0 {
		return 0
	}
	return s.values[idx-1]
}

// Max returns the maximum value in the series (0 when empty).
func (s *Series) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := 0.0
	for _, v := range s.values {
		if v > m {
			m = v
		}
	}
	return m
}

// Registry groups counters, gauges, histograms and series under string
// names. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	series     map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		series:     make(map[string]*Series),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Series returns (creating if needed) the named series.
func (r *Registry) Series(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = NewSeries(name)
		r.series[name] = s
	}
	return s
}

// SeriesNames returns the sorted names of all series (useful for rendering
// per-server plots whose server set is dynamic).
func (r *Registry) SeriesNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.series))
	for n := range r.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// --- snapshot support ---
//
// RegistryState is a registry's serializable snapshot. Every collection is a
// name-sorted slice (never a map), so encoding a state twice produces
// byte-identical output — the property the snapshot subsystem's golden files
// pin.

// CounterState is one counter's snapshot.
type CounterState struct {
	Name  string
	Value int64
}

// GaugeState is one gauge's snapshot.
type GaugeState struct {
	Name  string
	Value float64
}

// HistogramState is one histogram's snapshot (samples in in-memory order).
type HistogramState struct {
	Name    string
	Samples []float64
}

// SeriesState is one time series' snapshot.
type SeriesState struct {
	Name   string
	Times  []float64
	Values []float64
}

// RegistryState is the whole registry's snapshot.
type RegistryState struct {
	Counters   []CounterState
	Gauges     []GaugeState
	Histograms []HistogramState
	Series     []SeriesState
}

// State snapshots every instrument in the registry, name-sorted.
func (r *Registry) State() RegistryState {
	r.mu.Lock()
	defer r.mu.Unlock()
	var st RegistryState
	for _, n := range slices.Sorted(maps.Keys(r.counters)) {
		st.Counters = append(st.Counters, CounterState{Name: n, Value: r.counters[n].Value()})
	}
	for _, n := range slices.Sorted(maps.Keys(r.gauges)) {
		st.Gauges = append(st.Gauges, GaugeState{Name: n, Value: r.gauges[n].Value()})
	}
	for _, n := range slices.Sorted(maps.Keys(r.histograms)) {
		st.Histograms = append(st.Histograms, HistogramState{Name: n, Samples: r.histograms[n].Samples()})
	}
	for _, n := range slices.Sorted(maps.Keys(r.series)) {
		times, values := r.series[n].Points()
		st.Series = append(st.Series, SeriesState{Name: n, Times: times, Values: values})
	}
	return st
}

// NewRegistryFromState rebuilds a registry from a snapshot. All slices are
// copied; the state stays usable for further restores.
func NewRegistryFromState(st RegistryState) *Registry {
	r := NewRegistry()
	for _, c := range st.Counters {
		r.counters[c.Name] = &Counter{}
		r.counters[c.Name].Add(c.Value)
	}
	for _, g := range st.Gauges {
		r.gauges[g.Name] = &Gauge{}
		r.gauges[g.Name].Set(g.Value)
	}
	for _, h := range st.Histograms {
		r.histograms[h.Name] = NewHistogramFromSamples(h.Samples)
	}
	for _, s := range st.Series {
		ns := NewSeries(s.Name)
		ns.times = make([]float64, len(s.Times))
		copy(ns.times, s.Times)
		ns.values = make([]float64, len(s.Values))
		copy(ns.values, s.Values)
		r.series[s.Name] = ns
	}
	return r
}

// SeriesByPrefix returns all series whose name starts with prefix, sorted.
func (r *Registry) SeriesByPrefix(prefix string) []*Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.series))
	for n := range r.series {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]*Series, len(names))
	for i, n := range names {
		out[i] = r.series[n]
	}
	return out
}
