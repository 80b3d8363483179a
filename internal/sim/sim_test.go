package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	if n := e.Run(); n != 3 {
		t.Fatalf("Run processed %d events, want 3", n)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order = %v, want [1 2 3]", got)
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var got []string
	at := 5 * time.Second
	for _, name := range []string{"first", "second", "third", "fourth"} {
		name := name
		e.Schedule(at, func() { got = append(got, name) })
	}
	e.Run()
	want := []string{"first", "second", "third", "fourth"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie-break order = %v, want %v", got, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.Schedule(500*time.Millisecond, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	e.Schedule(time.Second, nil)
}

func TestAfterNegativePanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative After")
		}
	}()
	e.After(-time.Second, func() {})
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	if !ev.Scheduled() {
		t.Fatal("event should be scheduled")
	}
	e.Cancel(ev)
	if ev.Scheduled() {
		t.Fatal("event should not be scheduled after cancel")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(Event{})
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var got []int
	evs := make([]Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.Schedule(time.Duration(i+1)*time.Second, func() { got = append(got, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	n := e.RunUntil(3 * time.Second)
	if n != 3 {
		t.Fatalf("RunUntil processed %d, want 3", n)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	// Advancing to a time with no events still moves the clock.
	e2 := New()
	e2.RunUntil(10 * time.Second)
	if e2.Now() != 10*time.Second {
		t.Errorf("empty RunUntil Now = %v", e2.Now())
	}
}

func TestRunUntilPastPanics(t *testing.T) {
	e := New()
	e.RunUntil(5 * time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for RunUntil in the past")
		}
	}()
	e.RunUntil(time.Second)
}

func TestStopInsideCallback(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	n := e.Run()
	if n != 2 || count != 2 {
		t.Fatalf("Run stopped after %d events (count %d), want 2", n, count)
	}
	// A subsequent Run resumes.
	n = e.Run()
	if n != 3 {
		t.Fatalf("resumed Run processed %d, want 3", n)
	}
}

func TestSchedulingFromCallback(t *testing.T) {
	e := New()
	var got []time.Duration
	e.Schedule(time.Second, func() {
		got = append(got, e.Now())
		e.After(2*time.Second, func() { got = append(got, e.Now()) })
	})
	e.Run()
	if len(got) != 2 || got[0] != time.Second || got[1] != 3*time.Second {
		t.Fatalf("got %v", got)
	}
}

func TestTicker(t *testing.T) {
	e := New()
	var ticks []time.Duration
	tk := e.Every(3*time.Second, func() {
		ticks = append(ticks, e.Now())
	})
	e.RunUntil(10 * time.Second)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3: %v", len(ticks), ticks)
	}
	for i, want := range []time.Duration{3 * time.Second, 6 * time.Second, 9 * time.Second} {
		if ticks[i] != want {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want)
		}
	}
	tk.Stop()
	before := len(ticks)
	e.RunUntil(30 * time.Second)
	if len(ticks) != before {
		t.Errorf("ticker fired after Stop")
	}
	if tk.Period() != 3*time.Second {
		t.Errorf("Period = %v", tk.Period())
	}
}

func TestTickerStopFromInsideTick(t *testing.T) {
	e := New()
	count := 0
	var tk *Ticker
	tk = e.Every(time.Second, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	e.RunUntil(10 * time.Second)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero period")
		}
	}()
	e.Every(0, func() {})
}

func TestEventAccessors(t *testing.T) {
	e := New()
	ev := e.Schedule(7*time.Second, func() {})
	if ev.Time() != 7*time.Second {
		t.Errorf("Time = %v", ev.Time())
	}
}

// Property: for any multiset of schedule times, events fire in sorted order
// and the clock is monotone non-decreasing.
func TestOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var fired []time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Millisecond
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		sorted := make([]time.Duration, len(delays))
		for i, d := range delays {
			sorted[i] = time.Duration(d) * time.Millisecond
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: RunUntil(t1) then RunUntil(t2>=t1) is equivalent to RunUntil(t2).
func TestRunUntilSplitProperty(t *testing.T) {
	f := func(delays []uint8, split uint8) bool {
		run := func(splitAt bool) []time.Duration {
			e := New()
			var fired []time.Duration
			for _, d := range delays {
				at := time.Duration(d) * time.Millisecond
				e.Schedule(at, func() { fired = append(fired, e.Now()) })
			}
			end := 300 * time.Millisecond
			if splitAt {
				e.RunUntil(time.Duration(split) * time.Millisecond)
				e.RunUntil(end)
			} else {
				e.RunUntil(end)
			}
			return fired
		}
		a, b := run(true), run(false)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The pooling contract: a handle to a fired event is stale, and stale
// handles are inert even after the engine reuses the node for a new event.
func TestStaleHandleAfterFire(t *testing.T) {
	e := New()
	first := e.Schedule(time.Second, func() {})
	e.Run()
	if first.Scheduled() {
		t.Fatal("fired event still reports Scheduled")
	}
	// The pool reuses first's node for the next event.
	fired := false
	second := e.Schedule(2*time.Second, func() { fired = true })
	if first.Scheduled() {
		t.Fatal("stale handle reports Scheduled after node reuse")
	}
	// Cancelling the stale handle must not kill the event that now owns
	// the node.
	e.Cancel(first)
	if !second.Scheduled() {
		t.Fatal("stale cancel killed an unrelated reused event")
	}
	e.Run()
	if !fired {
		t.Fatal("reused event never fired")
	}
	// Accessors on stale handles keep reporting scheduling-time values.
	if first.Time() != time.Second {
		t.Errorf("stale handle Time = %v", first.Time())
	}
}

// A cancelled event's node is recycled immediately; the cancelled handle
// must stay inert across reuse just like a fired one.
func TestStaleHandleAfterCancel(t *testing.T) {
	e := New()
	a := e.Schedule(time.Second, func() { t.Fatal("cancelled event fired") })
	e.Cancel(a)
	ok := false
	b := e.Schedule(time.Second, func() { ok = true })
	e.Cancel(a) // stale: must not cancel b
	if !b.Scheduled() {
		t.Fatal("stale double-cancel killed the reused event")
	}
	e.Run()
	if !ok {
		t.Fatal("event b never fired")
	}
}

// Steady-state Schedule/fire churn must not allocate: nodes come from the
// pool and handles are values.
func TestScheduleFireDoesNotAllocate(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the pool.
	e.Schedule(e.Now(), fn)
	e.Step()
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(e.Now()+time.Microsecond, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Step allocates %v objects per op, want 0", allocs)
	}
}

// Ticker ticks re-arm without allocating a closure or a node, also when
// they skip idle ticks.
func TestTickerTickDoesNotAllocate(t *testing.T) {
	e := New()
	e.Every(time.Second, func() {})
	e.Step() // warm: first pooled node enters circulation
	allocs := testing.AllocsPerRun(100, func() { e.Step() })
	if allocs != 0 {
		t.Errorf("ticker tick allocates %v objects per op, want 0", allocs)
	}

	// A skipping ticker beside a slower one: every other Step is a tick
	// that skips to the slower ticker's next firing.
	e = New()
	var tk *Ticker
	skipped := uint64(0)
	tk = e.Every(time.Second, func() { skipped += tk.SkipIdle() })
	e.Every(10*time.Second, func() {})
	e.Step()
	allocs = testing.AllocsPerRun(100, func() { e.Step() })
	if allocs != 0 {
		t.Errorf("skipping ticker tick allocates %v objects per op, want 0", allocs)
	}
	if skipped == 0 {
		t.Error("the skipping ticker never skipped")
	}
}

// TestSkipIdle pins where SkipIdle re-arms a ticker of period P that
// first fires at P beside one other event: one period on when the queue
// is empty or the event is within one period, otherwise the first
// boundary at or after the event, which fires first; a boundary past the
// int64 range pins to MaxTime.
func TestSkipIdle(t *testing.T) {
	const ms = time.Millisecond
	type firing struct {
		name string
		at   time.Duration
	}
	for _, c := range []struct {
		name    string
		period  time.Duration
		event   time.Duration // the other event's instant; negative for none
		skipped uint64
		second  time.Duration // the ticker's second firing
	}{
		{"empty queue", 10 * ms, -1, 0, 20 * ms},
		{"same instant", 10 * ms, 10 * ms, 0, 20 * ms},
		{"within one period", 10 * ms, 15 * ms, 0, 20 * ms},
		{"one period on", 10 * ms, 20 * ms, 0, 20 * ms},
		{"just past one period", 10 * ms, 20*ms + 1, 1, 30 * ms},
		{"before a boundary", 10 * ms, 50*ms - 1, 3, 50 * ms},
		{"on a boundary", 10 * ms, 50 * ms, 3, 50 * ms},
		{"beyond the last boundary", MaxTime / 3, MaxTime, 2, MaxTime},
		{"on the last boundary", MaxTime / 3, MaxTime / 3 * 3, 1, MaxTime / 3 * 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			var got []firing
			var skipped []uint64
			var tk *Ticker
			tk = e.Every(c.period, func() {
				got = append(got, firing{"tick", e.Now()})
				if len(skipped) == 0 {
					skipped = append(skipped, tk.SkipIdle())
				} else {
					tk.Stop()
				}
			})
			want := []firing{{"tick", c.period}, {"tick", c.second}}
			if c.event >= 0 {
				e.Schedule(c.event, func() { got = append(got, firing{"event", e.Now()}) })
				want = []firing{want[0], {"event", c.event}, want[1]}
			}
			e.Run()
			if len(skipped) != 1 || skipped[0] != c.skipped {
				t.Errorf("SkipIdle returned %v, want %d", skipped, c.skipped)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("fired %v, want %v", got, want)
			}
		})
	}
}

// TestSkipIdleBesideEveryTickTwin runs random schedules of one-shot events,
// some of which schedule a follow-up from their callback, once beside a
// ticker that calls SkipIdle on every tick and once beside a twin that
// never skips. The skipping run's firing log must be the twin's with some
// ticks deleted: every other event fires at the same instant and in the
// same order. And each tick after the first must land on the first period
// boundary at or after the event that fired next, or one period on when
// that event was within one period or there was none.
func TestSkipIdleBesideEveryTickTwin(t *testing.T) {
	type entry struct {
		id int // -1 for a tick
		at time.Duration
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		period := time.Duration(1+rng.Intn(8)) * time.Millisecond
		// Instants on a 1 ms grid, so many land on tick boundaries.
		instant := func(max time.Duration) time.Duration {
			return time.Duration(rng.Intn(int(max/time.Millisecond)+1)) * time.Millisecond
		}
		type shot struct{ at, follow time.Duration }
		shots := make([]shot, 1+rng.Intn(12))
		for i := range shots {
			shots[i] = shot{at: instant(60 * period), follow: -1}
			if rng.Intn(3) == 0 {
				shots[i].follow = instant(3 * period)
			}
		}
		horizon := 64 * period
		run := func(skip bool) []entry {
			e := New()
			var log []entry
			var tk *Ticker
			tk = e.Every(period, func() {
				log = append(log, entry{-1, e.Now()})
				if skip {
					tk.SkipIdle()
				}
			})
			for i, s := range shots {
				e.Schedule(s.at, func() {
					log = append(log, entry{i, e.Now()})
					if s.follow >= 0 {
						e.After(s.follow, func() {
							log = append(log, entry{len(shots) + i, e.Now()})
						})
					}
				})
			}
			e.RunUntil(horizon)
			return log
		}
		got, twin := run(true), run(false)

		k := 0
		for _, w := range twin {
			if k < len(got) && got[k] == w {
				k++
			} else if w.id >= 0 {
				t.Fatalf("seed %d: event %d at %v is missing or out of order beside the skipping ticker\n got %v\ntwin %v",
					seed, w.id, w.at, got, twin)
			}
		}
		if k != len(got) {
			t.Fatalf("seed %d: the skipping run fired %v, which its twin never did", seed, got[k:])
		}
		for i, g := range got {
			if g.id >= 0 {
				continue
			}
			if g.at%period != 0 {
				t.Fatalf("seed %d: tick at %v, off the %v grid", seed, g.at, period)
			}
			next := -1
			for j := i + 1; j < len(got); j++ {
				if got[j].id < 0 {
					next = j
					break
				}
			}
			if next < 0 {
				continue
			}
			want := g.at + period
			if next > i+1 { // an event fired before the next tick
				for want < got[i+1].at {
					want += period
				}
			}
			if got[next].at != want {
				t.Fatalf("seed %d: tick at %v followed by %v, want %v\n got %v", seed, g.at, got[next].at, want, got)
			}
		}
	}
}

func TestAfterSaturatesOnOverflow(t *testing.T) {
	e := New()
	e.RunUntil(time.Hour)
	ev := e.After(MaxTime, func() {})
	if ev.Time() != MaxTime {
		t.Errorf("overflowing After scheduled at %v, want MaxTime", ev.Time())
	}
}
