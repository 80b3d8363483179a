// Package telemetry is the process-wide observability layer: a metrics
// registry (counters, gauges, histograms) plus an epoch-granularity flight
// recorder for controller decisions (flight.go).
//
// # Zero cost when disabled
//
// Telemetry is off by default and must cost nothing measurable on the
// simulator's hot paths. Every instrument operation starts with a single
// atomic load of the global enabled flag and returns immediately when it is
// false; no operation allocates, constructs an interface value, or takes a
// lock on the fast path. Instruments are registered once, at package init,
// as concrete pointers held in package-level variables — call sites never
// go through an interface. AllocsPerRun tests pin the zero-allocation
// contract in both states, and the benchjson regression gate keeps the
// disabled-path cost inside the sim/dvfs hot-loop tolerances.
//
// # Naming
//
// Metric names follow the Prometheus convention
// greengpu_<package>_<what>[_total] with base units (seconds, watts) in the
// name or help string. The full catalog, one row per registered metric,
// lives in docs/OBSERVABILITY.md; keep the two in sync.
//
// # Determinism
//
// Telemetry never influences simulation results: instruments are
// write-only from the simulator's point of view, and every emitter writes
// to stderr or a file, never stdout. Experiment output stays byte-identical
// with telemetry on or off (enforced by make golden).
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// enabled is the process-wide switch read by every instrument fast path.
var enabled atomic.Bool

// Enable turns instrument recording on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns instrument recording off process-wide. Recorded values are
// kept, not reset.
func Disable() { enabled.Store(false) }

// Enabled reports whether instruments currently record. Call sites may use
// it to skip work that only feeds telemetry (e.g. reading the wall clock
// before observing a duration).
func Enabled() bool { return enabled.Load() }

// Names of metrics referenced outside their owning package: the flight
// recorder stamps run-cache effectiveness into every epoch record, so the
// names must have one source of truth.
const (
	// MetricRunCacheHits counts simulation points served from memory.
	MetricRunCacheHits = "greengpu_runcache_hits_total"
	// MetricRunCacheMisses counts simulation points actually simulated.
	MetricRunCacheMisses = "greengpu_runcache_misses_total"
	// MetricSweepPoints counts points evaluated by the batch sweep engine,
	// experiment study points included.
	MetricSweepPoints = "greengpu_sweep_points_total"
	// MetricSweepFastPath counts sweep and study points served by the
	// closed-form batch evaluator.
	MetricSweepFastPath = "greengpu_sweep_fastpath_total"
	// MetricSweepFallback counts sweep and study points that fell back to
	// a full per-point simulation.
	MetricSweepFallback = "greengpu_sweep_fallback_total"
	// MetricSweepBatches counts sweep batches (Engine.Run calls).
	MetricSweepBatches = "greengpu_sweep_batches_total"
	// MetricPredictFits counts analytic cross-frequency model fits.
	MetricPredictFits = "greengpu_predict_fits_total"
	// MetricPredictPoints counts ladder points evaluated in closed form by
	// a fitted model.
	MetricPredictPoints = "greengpu_predict_points_total"
	// MetricPredictFullEvals counts full point evaluations requested by
	// predictor searches (anchors, verification, exhaustive fallback).
	MetricPredictFullEvals = "greengpu_predict_full_evals_total"
	// MetricPredictFallbacks counts predictor searches that fell back to
	// exhaustive evaluation on a degenerate fit.
	MetricPredictFallbacks = "greengpu_predict_fallbacks_total"
	// MetricFleetRuns counts fleet evaluations (fleet.Engine.Run calls).
	MetricFleetRuns = "greengpu_fleet_runs_total"
	// MetricFleetNodes counts fleet nodes attributed results (the node
	// level of the node→group→fleet hierarchy).
	MetricFleetNodes = "greengpu_fleet_nodes_total"
	// MetricFleetGroups counts distinct config groups actually simulated
	// (the group level of the node→group→fleet hierarchy).
	MetricFleetGroups = "greengpu_fleet_groups_total"
	// MetricFleetDedupSaved counts simulations avoided by fingerprint
	// dedup: nodes minus groups, summed over fleet runs.
	MetricFleetDedupSaved = "greengpu_fleet_dedup_saved_total"
)

// metric is the registry's view of an instrument.
type metric interface {
	// meta returns the immutable identity of the instrument.
	meta() (name, help, typ string)
	// snapshot captures the current value(s).
	snapshot() MetricSnapshot
}

// Registry holds a set of uniquely named instruments. The zero value is not
// usable; use NewRegistry. Most code uses the package-level Default
// registry through NewCounter/NewGauge/NewHistogram.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry. Tests use private registries to
// avoid name collisions with the package-level instruments.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// Default is the process-wide registry every package-level instrument
// registers into and every emitter snapshots from.
var Default = NewRegistry()

// register adds m, panicking on a duplicate name: two packages claiming one
// name is a programming error that must surface at init, not in a snapshot.
func (r *Registry) register(m metric) {
	name, _, _ := m.meta()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.metrics[name] = m
}

// Snapshot captures every registered instrument, sorted by name.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.RLock()
	ms := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.RUnlock()
	out := make([]MetricSnapshot, len(ms))
	for i, m := range ms {
		out[i] = m.snapshot()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CounterValue returns the current value of the named counter in this
// registry, or 0 when no such counter exists.
func (r *Registry) CounterValue(name string) uint64 {
	r.mu.RLock()
	m := r.metrics[name]
	r.mu.RUnlock()
	if c, ok := m.(*Counter); ok {
		return c.Value()
	}
	return 0
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// LE is the bucket's inclusive upper bound; math.Inf(1) for the last.
	LE float64 `json:"le"`
	// Count is the cumulative number of observations <= LE.
	Count uint64 `json:"count"`
}

// bucketJSON is Bucket's wire form: the bound travels as a string because
// JSON has no Inf literal and the overflow bucket's bound is +Inf.
type bucketJSON struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// MarshalJSON encodes the bound with the same formatting as the Prometheus
// text emitter ("+Inf" for the overflow bucket).
func (b Bucket) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketJSON{LE: formatLE(b.LE), Count: b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON, so snapshots round-trip.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var w bucketJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.LE == "+Inf" {
		b.LE = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(w.LE, 64)
		if err != nil {
			return fmt.Errorf("telemetry: bucket bound %q: %v", w.LE, err)
		}
		b.LE = v
	}
	b.Count = w.Count
	return nil
}

// MetricSnapshot is one instrument's state at snapshot time.
type MetricSnapshot struct {
	Name string `json:"name"`
	Type string `json:"type"` // "counter", "gauge", or "histogram"
	Help string `json:"help"`
	// Value carries the counter or gauge value (counters are exact to
	// 2^53, far beyond any simulation run).
	Value float64 `json:"value"`
	// Sum, Count and Buckets are populated for histograms only.
	Sum     float64  `json:"sum,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter registers a counter with the Default registry and returns it.
// It panics if the name is already taken.
func NewCounter(name, help string) *Counter {
	return NewCounterIn(Default, name, help)
}

// NewCounterIn registers a counter with an explicit registry.
func NewCounterIn(r *Registry, name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Add increments the counter by n. A no-op while telemetry is disabled.
func (c *Counter) Add(n uint64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. A no-op while telemetry is disabled.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) meta() (string, string, string) { return c.name, c.help, "counter" }

func (c *Counter) snapshot() MetricSnapshot {
	return MetricSnapshot{Name: c.name, Type: "counter", Help: c.help, Value: float64(c.v.Load())}
}

// Gauge is a value that can go up and down, stored as float64 bits. All
// methods are safe for concurrent use.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// NewGauge registers a gauge with the Default registry and returns it.
// It panics if the name is already taken.
func NewGauge(name, help string) *Gauge {
	return NewGaugeIn(Default, name, help)
}

// NewGaugeIn registers a gauge with an explicit registry.
func NewGaugeIn(r *Registry, name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Set stores v. A no-op while telemetry is disabled.
func (g *Gauge) Set(v float64) {
	if !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (negative deltas decrease it). A no-op
// while telemetry is disabled. The in-flight request gauges pair Add(1)
// with a deferred Add(-1).
func (g *Gauge) Add(delta float64) {
	if !enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the last value stored by Set or Add (0 before either).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) meta() (string, string, string) { return g.name, g.help, "gauge" }

func (g *Gauge) snapshot() MetricSnapshot {
	return MetricSnapshot{Name: g.name, Type: "gauge", Help: g.help, Value: g.Value()}
}

// Histogram counts observations into fixed buckets with inclusive upper
// bounds, Prometheus-style (an implicit +Inf bucket catches the rest). All
// methods are safe for concurrent use.
type Histogram struct {
	name, help string
	bounds     []float64 // strictly increasing upper bounds, +Inf excluded
	counts     []atomic.Uint64
	sumBits    atomic.Uint64
	count      atomic.Uint64
}

// NewHistogram registers a histogram with the Default registry and returns
// it. bounds must be strictly increasing and finite; it panics otherwise,
// or if the name is already taken.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return NewHistogramIn(Default, name, help, bounds)
}

// NewHistogramIn registers a histogram with an explicit registry.
func NewHistogramIn(r *Registry, name, help string, bounds []float64) *Histogram {
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("telemetry: histogram %q bound %v is not finite", name, b))
		}
		if i > 0 && bounds[i-1] >= b {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not strictly increasing at %d", name, i))
		}
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// ExpBuckets returns n bounds starting at start and growing by factor, the
// usual shape for duration histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one sample. A no-op while telemetry is disabled; NaN
// samples are dropped (they would poison the sum).
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v in one update: v's bucket and the
// count gain n, the sum gains v·n. A caller that tallies a run of
// observations locally records their mean this way, keeping the count and
// the sum those observations would give. A no-op while telemetry is
// disabled, for a NaN v, or for n == 0.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if !enabled.Load() || math.IsNaN(v) || n == 0 {
		return
	}
	// First bucket whose upper bound admits v; len(bounds) is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(n)
	h.count.Add(n)
	v *= float64(n)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) meta() (string, string, string) { return h.name, h.help, "histogram" }

func (h *Histogram) snapshot() MetricSnapshot {
	s := MetricSnapshot{Name: h.name, Type: "histogram", Help: h.help, Sum: h.Sum(), Count: h.count.Load()}
	cum := uint64(0)
	s.Buckets = make([]Bucket, len(h.counts))
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = Bucket{LE: le, Count: cum}
	}
	return s
}
