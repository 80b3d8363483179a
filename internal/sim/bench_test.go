package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures the engine's raw schedule/fire rate —
// the floor cost of every simulated state transition.
func BenchmarkEventThroughput(b *testing.B) {
	e := New()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+time.Microsecond, fn)
		e.Step()
	}
}

// BenchmarkTicker measures a periodic controller's steady-state cost.
func BenchmarkTicker(b *testing.B) {
	e := New()
	e.Every(time.Second, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkCancel measures mid-heap cancellation, the hot path of DVFS
// re-timing in-flight kernel phases. One fill/cancel cycle before the
// timer starts populates the event pool's free list; steady state is then
// allocation-free (the refills inside the loop reuse recycled nodes).
func BenchmarkCancel(b *testing.B) {
	e := New()
	fn := func() {}
	evs := make([]Event, 0, 1024)
	fill := func() {
		for j := 0; j < 1024; j++ {
			evs = append(evs, e.Schedule(e.Now()+time.Duration(j+1)*time.Millisecond, fn))
		}
	}
	fill()
	for len(evs) > 0 {
		e.Cancel(evs[len(evs)-1])
		evs = evs[:len(evs)-1]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(evs) == 0 {
			fill()
		}
		e.Cancel(evs[len(evs)-1])
		evs = evs[:len(evs)-1]
	}
}

// TestCancelDoesNotAllocate pins the pooled cancel path at zero
// allocations: once the free list is warm, cancel and reschedule recycle
// nodes without touching the heap allocator.
func TestCancelDoesNotAllocate(t *testing.T) {
	e := New()
	fn := func() {}
	evs := make([]Event, 0, 1024)
	fill := func() {
		for j := 0; j < 1024; j++ {
			evs = append(evs, e.Schedule(e.Now()+time.Duration(j+1)*time.Millisecond, fn))
		}
	}
	drain := func() {
		for len(evs) > 0 {
			e.Cancel(evs[len(evs)-1])
			evs = evs[:len(evs)-1]
		}
	}
	fill()
	drain()
	if allocs := testing.AllocsPerRun(100, func() {
		fill()
		drain()
	}); allocs != 0 {
		t.Errorf("cancel path allocates %.1f times per fill/drain cycle, want 0", allocs)
	}
}

// BenchmarkScheduleCancelChurn measures the cancel-then-reschedule pattern
// the DVFS tier drives on every frequency change: the pending completion
// event is cancelled and a new one scheduled at the re-timed instant. With
// pooling this is a pure heap exercise, zero allocations.
func BenchmarkScheduleCancelChurn(b *testing.B) {
	e := New()
	fn := func() {}
	// A standing population of events keeps the heap realistically deep.
	for j := 0; j < 256; j++ {
		e.Schedule(e.Now()+time.Duration(j+1)*time.Second, fn)
	}
	ev := e.Schedule(e.Now()+time.Millisecond, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(ev)
		ev = e.Schedule(e.Now()+time.Duration(i%1000+1)*time.Millisecond, fn)
	}
}

// BenchmarkDeepHeap measures schedule/fire with a deep standing queue,
// where the 4-ary layout's shallower sift paths matter most.
func BenchmarkDeepHeap(b *testing.B) {
	e := New()
	fn := func() {}
	for j := 0; j < 4096; j++ {
		e.Schedule(e.Now()+time.Duration(j+1)*time.Hour, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+time.Microsecond, fn)
		e.Step()
	}
}
