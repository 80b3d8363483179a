// Package parallel is the bounded worker-pool scheduler behind the
// experiment engine: it fans independent experiment points out over a
// fixed number of workers while keeping every observable result — output
// order, error selection, and random streams — identical to a sequential
// run.
//
// The determinism contract has three legs:
//
//   - Map returns results indexed by input position, so the output layout
//     never depends on completion order.
//   - Errors aggregate by input position, not by time: when several tasks
//     fail, the error of the lowest-indexed failing task is returned. After
//     a failure Map skips only tasks above the lowest failing index seen so
//     far, never one below it, so every task below the returned failure
//     has run and succeeded. Which tasks above it were skipped may vary
//     between runs, but the returned error never does.
//   - TaskSeed/Uniform/Stream (seed.go) derive independent random streams
//     from (base seed, task index) so no task reads another's stream,
//     regardless of scheduling.
//
// Tasks must not share mutable state; each should build whatever machinery
// it needs (a fresh simulation engine, a private policy instance) from
// plain-value inputs. See docs/MODEL.md for the fresh-machine contract the
// experiments layer relies on.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"greengpu/internal/telemetry"
)

// Package metrics (see docs/OBSERVABILITY.md). No-ops unless telemetry is
// enabled. Workers tally them locally and publish them once per run of
// flushEvery tasks (see tally), so the worker loop updates no shared
// metric per task, stays allocation-free, and reads the wall clock only
// when telemetry is on, once per run.
var (
	metricTasks = telemetry.NewCounter("greengpu_parallel_tasks_total",
		"Tasks executed by the worker pool (skipped tasks excluded).")
	metricTaskErrors = telemetry.NewCounter("greengpu_parallel_task_errors_total",
		"Tasks that returned an error.")
	metricSkipped = telemetry.NewCounter("greengpu_parallel_tasks_skipped_total",
		"Tasks skipped because a lower-indexed task failed or the context was done.")
	metricTaskSeconds = telemetry.NewHistogram("greengpu_parallel_task_seconds",
		"Wall-clock task duration in seconds, observed as the mean of each run of tasks a worker executed.",
		telemetry.ExpBuckets(100e-6, 4, 12)) // 100µs .. ~420s
)

// flushEvery is how many tasks a worker tallies before it publishes them.
// It bounds how far /metrics lags a running Map, and it amortizes the
// shared-counter updates and the clock read over closed-form sweep points
// of well under a microsecond each.
const flushEvery = 64

// tally is one worker's share of the pool metrics since its last flush:
// the tasks it executed, failed and skipped, and when the run began. start
// is the zero Time when telemetry was off at that moment; the run's
// duration is then skipped rather than fabricated.
type tally struct {
	executed, failed, skipped uint64
	start                     time.Time
}

// newTally begins a worker's first run.
func newTally() tally { return tally{start: now()} }

// add counts one claimed task, publishing the run when it is full.
func (t *tally) add(ran bool, err error) {
	if !ran {
		t.skipped++
	} else if t.executed++; err != nil {
		t.failed++
	}
	if t.executed+t.skipped == flushEvery {
		t.flush()
	}
}

// flush adds the run to the pool metrics and begins the next one. The
// histogram records the run's mean task time once, weighted by its
// executed tasks, so its count stays the executed tasks and its sum their
// busy time.
func (t *tally) flush() {
	if t.executed+t.skipped == 0 {
		return
	}
	metricTasks.Add(t.executed)
	metricTaskErrors.Add(t.failed)
	metricSkipped.Add(t.skipped)
	end := now()
	if t.executed > 0 && !t.start.IsZero() && !end.IsZero() {
		metricTaskSeconds.ObserveN(end.Sub(t.start).Seconds()/float64(t.executed), t.executed)
	}
	*t = tally{start: end}
}

// now reads the wall clock only when telemetry is on, so the disabled
// path never issues a clock read.
func now() time.Time {
	if !telemetry.Enabled() {
		return time.Time{}
	}
	return time.Now()
}

// closed reports, without blocking, whether done is closed. A nil done (a
// context that can never be canceled) is never closed.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Map runs fn over every item on a pool of at most workers goroutines and
// returns the results in input order. workers <= 0 selects one worker per
// available CPU (runtime.GOMAXPROCS); workers == 1 runs the tasks inline on
// the calling goroutine, in input order. On failure it returns the error
// of the lowest-indexed failing task: tasks above the lowest failure seen
// so far are skipped, tasks below it always run. Once ctx is done every
// task not yet started is skipped, and Map returns the lowest-indexed
// failure among the tasks that ran, or ctx.Err() if none failed. A nil or
// empty item slice returns (nil, ctx.Err()).
func Map[T, R any](ctx context.Context, items []T, fn func(index int, item T) (R, error), workers int) ([]R, error) {
	n := len(items)
	if n == 0 {
		return nil, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	results := make([]R, n)
	done := ctx.Done()
	if workers == 1 {
		// Inline sequential path: no goroutines, strict input order. The
		// tasks after a failure or a cancellation count as skipped.
		t := newTally()
		for i := range items {
			if closed(done) {
				t.skipped += uint64(n - i)
				t.flush()
				return nil, ctx.Err()
			}
			r, err := fn(i, items[i])
			t.add(true, err)
			if err != nil {
				t.skipped += uint64(n - i - 1)
				t.flush()
				return nil, err
			}
			results[i] = r
		}
		t.flush()
		return results, nil
	}

	errs := make([]error, n)
	var (
		next   atomic.Int64
		lowest atomic.Int64 // lowest failing index so far; n while none has failed
		wg     sync.WaitGroup
	)
	next.Store(-1)
	lowest.Store(int64(n))

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := newTally()
			for {
				i := int(next.Add(1))
				if i >= n {
					t.flush()
					return
				}
				if int64(i) > lowest.Load() || closed(done) {
					// Skipped: leave errs[i] nil so error selection
					// stays deterministic (only genuine task failures
					// participate).
					t.add(false, nil)
					continue
				}
				r, err := fn(i, items[i])
				t.add(true, err)
				if err != nil {
					errs[i] = err
					for low := lowest.Load(); int64(i) < low; low = lowest.Load() {
						if lowest.CompareAndSwap(low, int64(i)) {
							break
						}
					}
				} else {
					results[i] = r
				}
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
