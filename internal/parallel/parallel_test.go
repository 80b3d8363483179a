package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"greengpu/internal/telemetry"
)

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, 100} {
		got, err := Map(context.Background(), items, func(i, v int) (int, error) {
			return v * v, nil
		}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), nil, func(i, v int) (int, error) {
		t.Fatal("fn called on empty input")
		return 0, nil
	}, 0)
	if err != nil || got != nil {
		t.Fatalf("empty map: got %v, %v", got, err)
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	// Several tasks fail; the returned error must always be the one from
	// the lowest failing index, not whichever failed first in time.
	items := make([]int, 64)
	for range [20]int{} {
		_, err := Map(context.Background(), items, func(i, _ int) (int, error) {
			switch i {
			case 5:
				time.Sleep(2 * time.Millisecond) // deliberately the slowest failure
				return 0, errors.New("error at 5")
			case 6, 40:
				return 0, fmt.Errorf("error at %d", i)
			}
			return i, nil
		}, 8)
		if err == nil || err.Error() != "error at 5" {
			t.Fatalf("got %v, want error at 5", err)
		}
	}
}

func TestMapCancelsAfterFailure(t *testing.T) {
	// Index 0 fails at once; every task claimed after that is above the
	// lowest failure and must be skipped, not run.
	var started atomic.Int64
	items := make([]int, 1000)
	_, err := Map(context.Background(), items, func(i, _ int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("boom")
		}
		time.Sleep(time.Millisecond)
		return 0, nil
	}, 4)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("got %v, want boom", err)
	}
	if n := started.Load(); n == 1000 {
		t.Error("no task was skipped after the failure")
	}
}

func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, []int{1, 2, 3}, func(i, v int) (int, error) {
		return v, ctx.Err()
	}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Sequential path too.
	_, err = Map(ctx, []int{1, 2, 3}, func(i, v int) (int, error) {
		return v, nil
	}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential: got %v, want context.Canceled", err)
	}
}

func TestMapBoundsWorkers(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	items := make([]int, 50)
	_, err := Map(context.Background(), items, func(i, _ int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	}, workers)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestTaskSeedStableAndDistinct(t *testing.T) {
	a := TaskSeed(42, 0)
	if a != TaskSeed(42, 0) {
		t.Error("TaskSeed not stable")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := TaskSeed(42, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if TaskSeed(42, 1) == TaskSeed(43, 1) {
		t.Error("base seed ignored")
	}
}

func TestUniformRangeAndMoments(t *testing.T) {
	const n = 100000
	var sum float64
	for k := uint64(0); k < n; k++ {
		u := Uniform(123, k)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform out of range: %v", u)
		}
		sum += u
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v far from 0.5", mean)
	}
	if Uniform(1, 0) == Uniform(2, 0) {
		t.Error("Uniform ignores seed")
	}
	if Uniform(1, 0) != Uniform(1, 0) {
		t.Error("Uniform not stable")
	}
}

// TestStreamIsSaltedUniform pins the stream to its definition: draw k of
// NewStream(base, salt) is Uniform(TaskSeed(base^salt, 0), k), the
// derivation every frozen fault-injection sequence depends on.
func TestStreamIsSaltedUniform(t *testing.T) {
	s := NewStream(2012, 0xd1ce0001)
	seed := TaskSeed(2012^0xd1ce0001, 0)
	for k := uint64(0); k < 8; k++ {
		if got, want := s.Next(), Uniform(seed, k); got != want {
			t.Fatalf("draw %d = %v, want %v", k, got, want)
		}
	}
}

func TestPickRangeAndDistribution(t *testing.T) {
	const n, choices = 60000, 7
	counts := make([]int, choices)
	for k := uint64(0); k < n; k++ {
		i := Pick(99, k, choices)
		if i < 0 || i >= choices {
			t.Fatalf("Pick out of range: %d", i)
		}
		counts[i]++
	}
	// Each choice should land near n/choices; a 15% band catches a biased
	// or collapsed mapping without flaking on a fixed seed.
	want := float64(n) / choices
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.15*want {
			t.Errorf("choice %d drawn %d times, want ~%.0f", i, c, want)
		}
	}
	if Pick(1, 0, 5) != Pick(1, 0, 5) {
		t.Error("Pick not stable")
	}
	if Pick(1, 0, 1) != 0 {
		t.Error("single-choice Pick must return 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("Pick(seed, k, 0) did not panic")
		}
	}()
	Pick(1, 0, 0)
}

// poolCounts reads the four pool metrics a test holds to its own count of
// the tasks it saw run, fail and be skipped.
type poolCounts struct{ executed, failed, skipped, observed uint64 }

func readPoolCounts() poolCounts {
	return poolCounts{metricTasks.Value(), metricTaskErrors.Value(), metricSkipped.Value(), metricTaskSeconds.Count()}
}

func (c poolCounts) sub(d poolCounts) poolCounts {
	return poolCounts{c.executed - d.executed, c.failed - d.failed, c.skipped - d.skipped, c.observed - d.observed}
}

func withTelemetry(t *testing.T) {
	t.Helper()
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
}

// TestMapTelemetryCounts holds the worker tallies to the tasks Map ran:
// at one and four workers, on success, on failures and on cancellation
// before and during the run, the metric deltas equal the tasks executed,
// the ones that failed, and the rest as skipped, and the task histogram
// counts every executed task once.
func TestMapTelemetryCounts(t *testing.T) {
	withTelemetry(t)
	const n = 1000
	items := make([]int, n)
	for _, workers := range []int{1, 4} {
		for _, tc := range []struct {
			name   string
			fail   func(i int) bool
			cancel int // index whose task cancels the context; -1 never, -2 before Map
		}{
			{"ok", func(int) bool { return false }, -1},
			{"failing", func(i int) bool { return i == 300 || i == 700 }, -1},
			{"canceled", func(int) bool { return false }, -2},
			{"canceled-midway", func(int) bool { return false }, 400},
		} {
			ctx, cancel := context.WithCancel(context.Background())
			if tc.cancel == -2 {
				cancel()
			}
			var ran, failed atomic.Uint64
			before := readPoolCounts()
			_, err := Map(ctx, items, func(i, _ int) (int, error) {
				ran.Add(1)
				if i == tc.cancel {
					cancel()
				}
				if tc.fail(i) {
					failed.Add(1)
					return 0, fmt.Errorf("task %d", i)
				}
				return i, nil
			}, workers)
			cancel()
			if (err == nil) != (tc.name == "ok") {
				t.Fatalf("workers=%d %s: err %v", workers, tc.name, err)
			}
			got := readPoolCounts().sub(before)
			want := poolCounts{ran.Load(), failed.Load(), n - ran.Load(), ran.Load()}
			if got != want {
				t.Errorf("workers=%d %s: metric deltas %+v, want %+v", workers, tc.name, got, want)
			}
		}
	}
}

// TestMapTelemetryAdvancesWhileRunning: a long Map publishes its tallies
// as it goes, not only when it returns. Each task in the first half of
// the input reads tasks_total; no worker can have exited while one of
// those runs, so only a periodic flush can have advanced it. With
// 2·workers·(flushEvery+2) tasks, some worker runs more than flushEvery of
// them in the first half, after its first flush.
func TestMapTelemetryAdvancesWhileRunning(t *testing.T) {
	withTelemetry(t)
	for _, workers := range []int{1, 4} {
		n := 2 * workers * (flushEvery + 2)
		var seen atomic.Bool
		before := metricTasks.Value()
		_, err := Map(context.Background(), make([]int, n), func(i, _ int) (int, error) {
			if i < n/2 && metricTasks.Value() > before {
				seen.Store(true)
			}
			return i, nil
		}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !seen.Load() {
			t.Errorf("workers=%d: tasks_total did not advance during the first %d of %d tasks", workers, n/2, n)
		}
		if got := metricTasks.Value() - before; got != uint64(n) {
			t.Errorf("workers=%d: tasks_total advanced by %d, want %d", workers, got, n)
		}
	}
}
