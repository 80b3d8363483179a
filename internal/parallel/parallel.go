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
//     fail, the error of the lowest-indexed failing task is returned, and
//     the shared context is cancelled after the first observed failure so
//     in-flight work can stop early. Which tasks were skipped may vary
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
		"Tasks skipped because the shared context was already cancelled.")
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
// of the lowest-indexed failing task; the context passed to fn is
// cancelled as soon as any task fails, and tasks not yet started are
// skipped. A nil or empty item slice returns (nil, ctx.Err()).
func Map[T, R any](ctx context.Context, items []T, fn func(ctx context.Context, index int, item T) (R, error), workers int) ([]R, error) {
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
			r, err := fn(ctx, i, items[i])
			observeTask(start, err)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(-1)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if cctx.Err() != nil {
					// Skipped: leave errs[i] nil so error selection
					// stays deterministic (only genuine task failures
					// participate).
					metricSkipped.Inc()
					continue
				}
				start := taskStart()
				r, err := fn(cctx, i, items[i])
				observeTask(start, err)
				if err != nil {
					errs[i] = err
					cancel()
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
