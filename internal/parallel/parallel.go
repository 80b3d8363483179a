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
// enabled; the worker loop stays allocation-free either way, and the wall
// clock is only read when telemetry is on.
var (
	metricTasks = telemetry.NewCounter("greengpu_parallel_tasks_total",
		"Tasks executed by the worker pool (skipped tasks excluded).")
	metricTaskErrors = telemetry.NewCounter("greengpu_parallel_task_errors_total",
		"Tasks that returned an error.")
	metricSkipped = telemetry.NewCounter("greengpu_parallel_tasks_skipped_total",
		"Tasks skipped because a lower-indexed task failed or the context was done.")
	metricTaskSeconds = telemetry.NewHistogram("greengpu_parallel_task_seconds",
		"Wall-clock task duration in seconds.",
		telemetry.ExpBuckets(100e-6, 4, 12)) // 100µs .. ~420s
)

// observeTask records one executed task's outcome and duration. start is
// the zero Time when telemetry was off at task start; the duration is then
// skipped rather than fabricated.
func observeTask(start time.Time, err error) {
	if !telemetry.Enabled() {
		return
	}
	metricTasks.Inc()
	if err != nil {
		metricTaskErrors.Inc()
	}
	if !start.IsZero() {
		metricTaskSeconds.Observe(time.Since(start).Seconds())
	}
}

// taskStart reads the wall clock only when telemetry is on, so the disabled
// path never issues a clock syscall.
func taskStart() time.Time {
	if !telemetry.Enabled() {
		return time.Time{}
	}
	return time.Now()
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
	if workers == 1 {
		// Inline sequential path: no goroutines, strict input order.
		for i := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			start := taskStart()
			r, err := fn(i, items[i])
			observeTask(start, err)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
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
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if int64(i) > lowest.Load() || ctx.Err() != nil {
					// Skipped: leave errs[i] nil so error selection
					// stays deterministic (only genuine task failures
					// participate).
					metricSkipped.Inc()
					continue
				}
				start := taskStart()
				r, err := fn(i, items[i])
				observeTask(start, err)
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
