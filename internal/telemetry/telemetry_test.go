package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

// withTelemetry runs the test with instruments enabled and restores the
// disabled default afterwards, keeping the package-global switch from
// leaking between tests.
func withTelemetry(t *testing.T) {
	t.Helper()
	Enable()
	t.Cleanup(Disable)
}

func TestCounterDisabledIsNoop(t *testing.T) {
	c := NewCounterIn(NewRegistry(), "c_total", "help")
	Disable()
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 0 {
		t.Errorf("disabled counter recorded %d", got)
	}
}

func TestCounterEnabled(t *testing.T) {
	withTelemetry(t)
	c := NewCounterIn(NewRegistry(), "c_total", "help")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("Value = %d, want 42", got)
	}
	s := c.snapshot()
	if s.Type != "counter" || s.Value != 42 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestGauge(t *testing.T) {
	withTelemetry(t)
	g := NewGaugeIn(NewRegistry(), "g", "help")
	if g.Value() != 0 {
		t.Errorf("zero gauge = %v", g.Value())
	}
	g.Set(2.5)
	g.Set(-1.25)
	if got := g.Value(); got != -1.25 {
		t.Errorf("Value = %v, want -1.25", got)
	}
	Disable()
	g.Set(99)
	if got := g.Value(); got != -1.25 {
		t.Errorf("disabled Set changed value to %v", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	withTelemetry(t)
	h := NewHistogramIn(NewRegistry(), "h", "help", []float64{1, 10, 100})
	// Bounds are inclusive upper bounds: a sample equal to a bound lands in
	// that bound's bucket, one epsilon above spills into the next.
	for _, v := range []float64{0.5, 1, 1.5, 10, 100, 101, math.Inf(1)} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	s := h.snapshot()
	wantCum := []uint64{2, 4, 5, 7} // le=1, le=10, le=100, +Inf
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("%d buckets, want %d", len(s.Buckets), len(wantCum))
	}
	for i, want := range wantCum {
		if s.Buckets[i].Count != want {
			t.Errorf("bucket %d count = %d, want %d", i, s.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(s.Buckets[3].LE, 1) {
		t.Errorf("last bucket bound = %v, want +Inf", s.Buckets[3].LE)
	}
	if h.Count() != 7 {
		t.Errorf("Count = %d, want 7 (NaN dropped)", h.Count())
	}
	if !math.IsInf(h.Sum(), 1) {
		t.Errorf("Sum = %v, want +Inf", h.Sum())
	}
}

// TestHistogramObserveN: n samples recorded in one update land as n
// Observe calls of the same value would, in bucket, count and sum; n == 0
// and NaN record nothing, and a disabled histogram ignores the call.
func TestHistogramObserveN(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	one := NewHistogramIn(r, "one", "", []float64{1, 10})
	batch := NewHistogramIn(r, "batch", "", []float64{1, 10})
	for _, s := range []struct {
		v float64
		n uint64
	}{{0.5, 3}, {10, 1}, {2.5, 4}, {99, 2}, {7, 0}, {math.NaN(), 5}} {
		batch.ObserveN(s.v, s.n)
		for i := uint64(0); i < s.n; i++ {
			one.Observe(s.v)
		}
	}
	got, want := batch.snapshot(), one.snapshot()
	if got.Count != 10 || got.Count != want.Count || got.Sum != want.Sum {
		t.Errorf("ObserveN count %d sum %v, Observe count %d sum %v (want count 10)",
			got.Count, got.Sum, want.Count, want.Sum)
	}
	for i := range want.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			t.Errorf("bucket %d: ObserveN %+v, Observe %+v", i, got.Buckets[i], want.Buckets[i])
		}
	}
	Disable()
	batch.ObserveN(1, 3)
	if batch.Count() != 10 {
		t.Errorf("disabled ObserveN changed the count to %d", batch.Count())
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"decreasing": {10, 1},
		"duplicate":  {1, 1},
		"nan":        {math.NaN()},
		"inf":        {math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v bounds accepted", name)
				}
			}()
			NewHistogramIn(NewRegistry(), "h", "", bounds)
		}()
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ExpBuckets = %v, want %v", got, want)
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ExpBuckets(0, 2, 3) accepted")
		}
	}()
	ExpBuckets(0, 2, 3)
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	NewCounterIn(r, "dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate metric name accepted")
		}
	}()
	NewGaugeIn(r, "dup", "")
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	NewCounterIn(r, "zz_total", "")
	NewGaugeIn(r, "aa", "")
	s := r.Snapshot()
	if len(s) != 2 || s[0].Name != "aa" || s[1].Name != "zz_total" {
		t.Errorf("snapshot order = %+v", s)
	}
}

func TestCounterValue(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	c := NewCounterIn(r, "c_total", "")
	NewGaugeIn(r, "g", "")
	c.Add(7)
	if got := r.CounterValue("c_total"); got != 7 {
		t.Errorf("CounterValue = %d, want 7", got)
	}
	if got := r.CounterValue("missing"); got != 0 {
		t.Errorf("CounterValue(missing) = %d, want 0", got)
	}
	if got := r.CounterValue("g"); got != 0 {
		t.Errorf("CounterValue over a gauge = %d, want 0", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	c := NewCounterIn(r, "x_total", "counts things\nwith a newline and a \\")
	g := NewGaugeIn(r, "x_gauge", "a gauge")
	h := NewHistogramIn(r, "x_seconds", "durations", []float64{0.1, 1})
	c.Add(3)
	g.Set(1.5)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP x_total counts things\\nwith a newline and a \\\\\n",
		"# TYPE x_total counter\n",
		"x_total 3\n",
		"# TYPE x_gauge gauge\n",
		"x_gauge 1.5\n",
		"# TYPE x_seconds histogram\n",
		`x_seconds_bucket{le="0.1"} 1` + "\n",
		`x_seconds_bucket{le="1"} 1` + "\n",
		`x_seconds_bucket{le="+Inf"} 2` + "\n",
		"x_seconds_sum 5.05\n",
		"x_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	h := NewHistogramIn(r, "h_seconds", "durations", []float64{0.5})
	h.Observe(0.25)
	h.Observe(2)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snaps []MetricSnapshot
	if err := json.Unmarshal([]byte(b.String()), &snaps); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots, want 1", len(snaps))
	}
	got := snaps[0]
	if got.Name != "h_seconds" || got.Count != 2 || got.Sum != 2.25 {
		t.Errorf("round-tripped snapshot = %+v", got)
	}
	if len(got.Buckets) != 2 || got.Buckets[0].LE != 0.5 || !math.IsInf(got.Buckets[1].LE, 1) {
		t.Errorf("round-tripped buckets = %+v (+Inf bound must survive)", got.Buckets)
	}
}

// TestZeroAllocations pins the hot-path contract: no instrument operation
// allocates, whether telemetry is enabled or disabled.
func TestZeroAllocations(t *testing.T) {
	r := NewRegistry()
	c := NewCounterIn(r, "c_total", "")
	g := NewGaugeIn(r, "g", "")
	h := NewHistogramIn(r, "h", "", ExpBuckets(1e-6, 10, 6))
	fr := NewFlightRecorder(16)
	rec := EpochRecord{Workload: "w", Mode: "m", UCore: 0.5}

	ops := map[string]func(){
		"Counter.Add":           func() { c.Add(1) },
		"Gauge.Set":             func() { g.Set(1.5) },
		"Histogram.Observe":     func() { h.Observe(0.01) },
		"Histogram.ObserveN":    func() { h.ObserveN(0.01, 64) },
		"FlightRecorder.Record": func() { fr.Record(rec) },
	}
	for _, state := range []struct {
		name   string
		toggle func()
	}{
		{"disabled", Disable},
		{"enabled", Enable},
	} {
		state.toggle()
		for name, op := range ops {
			if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
				t.Errorf("%s while %s: %v allocs/op, want 0", name, state.name, allocs)
			}
		}
	}
	Disable()
}

// TestConcurrencyHammer drives every instrument, the flight recorder, the
// enable switch and the snapshotters from concurrent goroutines. Run under
// -race this is the data-race gate for the whole package.
func TestConcurrencyHammer(t *testing.T) {
	defer Disable()
	r := NewRegistry()
	c := NewCounterIn(r, "hammer_total", "")
	g := NewGaugeIn(r, "hammer_gauge", "")
	h := NewHistogramIn(r, "hammer_seconds", "", ExpBuckets(1e-6, 10, 6))
	fr := NewFlightRecorder(64)
	SetFlightRecorder(fr)
	defer SetFlightRecorder(nil)

	const writers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%7) * 1e-5)
				h.ObserveN(float64(i%5)*1e-4, uint64(i%3))
				if rec := Recorder(); rec != nil {
					rec.Record(EpochRecord{Workload: "hammer", Epoch: i, UCore: float64(w)})
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // toggler: instruments must tolerate mid-flight switches
		defer wg.Done()
		for i := 0; i < 500; i++ {
			Enable()
			Disable()
		}
	}()
	wg.Add(1)
	go func() { // reader: snapshots and emitters race against writers
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.Snapshot()
			fr.Snapshot()
			fr.Table(8)
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus: %v", err)
			}
		}
	}()
	wg.Wait()

	// Post-join invariants: the histogram's total equals its +Inf bucket,
	// and the ring never exceeds its bound.
	s := h.snapshot()
	if last := s.Buckets[len(s.Buckets)-1].Count; last != h.Count() {
		t.Errorf("+Inf bucket %d != Count %d", last, h.Count())
	}
	if c.Value() > writers*iters {
		t.Errorf("counter %d exceeds the %d operations issued", c.Value(), writers*iters)
	}
	if fr.Len() > fr.Cap() {
		t.Errorf("ring holds %d records with capacity %d", fr.Len(), fr.Cap())
	}
}
