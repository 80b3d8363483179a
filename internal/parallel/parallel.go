// Package parallel is the bounded worker-pool scheduler behind the
// experiment engine: it fans independent experiment points out over a
// fixed number of workers while keeping every observable result — output
// order, error selection, and random streams — identical to a sequential
// run.
//
// The determinism contract has three legs:
//
//   - Map and Grid return results indexed by input position, so the output
//     layout never depends on completion order.
//   - Errors aggregate by input position, not by time: when several tasks
//     fail, the error of the lowest-indexed failing task is returned, and
//     the shared context is cancelled after the first observed failure so
//     in-flight work can stop early. Which tasks were skipped may vary
//     between runs, but the returned error never does.
//   - TaskSeed/TaskRand/Uniform (seed.go) derive independent random
//     streams from (base seed, task index) so no task reads another's
//     stream, regardless of scheduling.
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

// config carries the resolved scheduling options.
type config struct {
	workers    int
	onProgress func(done, total int)
}

// Option customizes a Map or Grid call.
type Option func(*config)

// Workers bounds the number of concurrent tasks. n <= 0 selects one worker
// per available CPU (runtime.GOMAXPROCS); n == 1 runs the tasks inline on
// the calling goroutine, in input order.
func Workers(n int) Option {
	return func(c *config) { c.workers = n }
}

// OnProgress registers a callback invoked after each task finishes (or is
// skipped due to cancellation), with the number of settled tasks and the
// total. Calls are serialized and done is strictly increasing, but the
// tasks they report on may complete in any order.
func OnProgress(fn func(done, total int)) Option {
	return func(c *config) { c.onProgress = fn }
}

func resolve(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.workers <= 0 {
		c.workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Map runs fn over every item on a bounded worker pool and returns the
// results in input order. On failure it returns the error of the
// lowest-indexed failing task; the context passed to fn is cancelled as
// soon as any task fails, and tasks not yet started are skipped. A nil or
// empty item slice returns (nil, ctx.Err()).
func Map[T, R any](ctx context.Context, items []T, fn func(ctx context.Context, index int, item T) (R, error), opts ...Option) ([]R, error) {
	n := len(items)
	if n == 0 {
		return nil, ctx.Err()
	}
	c := resolve(opts)
	if c.workers > n {
		c.workers = n
	}

	results := make([]R, n)
	errs := make([]error, n)

	if c.workers == 1 {
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
			if c.onProgress != nil {
				c.onProgress(i+1, n)
			}
		}
		return results, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		settled int
	)
	next.Store(-1)
	progress := func() {
		mu.Lock()
		settled++
		if c.onProgress != nil {
			// Called under the lock: that is what serializes the calls
			// and keeps done strictly increasing.
			c.onProgress(settled, n)
		}
		mu.Unlock()
	}

	for w := 0; w < c.workers; w++ {
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
					progress()
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
				progress()
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

// Grid runs fn over the cartesian product rows × cols and returns the
// results as a row-major matrix (result[i][j] corresponds to rows[i],
// cols[j]). Scheduling, error aggregation and options behave exactly as in
// Map over the flattened product.
func Grid[A, B, R any](ctx context.Context, rows []A, cols []B, fn func(ctx context.Context, i, j int, row A, col B) (R, error), opts ...Option) ([][]R, error) {
	nr, nc := len(rows), len(cols)
	if nr == 0 || nc == 0 {
		return nil, ctx.Err()
	}
	flat := make([]int, nr*nc)
	for i := range flat {
		flat[i] = i
	}
	out, err := Map(ctx, flat, func(ctx context.Context, k int, _ int) (R, error) {
		i, j := k/nc, k%nc
		return fn(ctx, i, j, rows[i], cols[j])
	}, opts...)
	if err != nil {
		return nil, err
	}
	m := make([][]R, nr)
	for i := 0; i < nr; i++ {
		m[i] = out[i*nc : (i+1)*nc : (i+1)*nc]
	}
	return m, nil
}
