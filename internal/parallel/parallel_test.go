package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, 100} {
		got, err := Map(context.Background(), items, func(_ context.Context, i, v int) (int, error) {
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
	got, err := Map(context.Background(), nil, func(_ context.Context, i, v int) (int, error) {
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
		_, err := Map(context.Background(), items, func(_ context.Context, i, _ int) (int, error) {
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
	var started atomic.Int64
	items := make([]int, 1000)
	_, err := Map(context.Background(), items, func(ctx context.Context, i, _ int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("boom")
		}
		select {
		case <-ctx.Done():
		case <-time.After(50 * time.Millisecond):
		}
		return 0, nil
	}, 4)
	if err == nil {
		t.Fatal("want error")
	}
	if n := started.Load(); n == 1000 {
		t.Error("no task was skipped after the failure")
	}
}

func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, []int{1, 2, 3}, func(ctx context.Context, i, v int) (int, error) {
		return v, ctx.Err()
	}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Sequential path too.
	_, err = Map(ctx, []int{1, 2, 3}, func(ctx context.Context, i, v int) (int, error) {
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
	_, err := Map(context.Background(), items, func(_ context.Context, i, _ int) (int, error) {
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
