package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The per-layer ledger. Each number names the layer it belongs to, from
// the client down to the simulation core:
//
//	client      client_wait_ms, client_read_ms         (benchmark spans)
//	HTTP        http_overhead_ms                        (client minus handler)
//	daemon      daemon_handler_ms, daemon_cpu_ms_per_req, daemon_peak_rss_mb
//	worker pool eval_task_ms                            (parallel task time)
//	sweep       points, fastpath_share
//	run cache   cache_hits, cache_misses, cache_hit_ratio
//	core, sim   core_runs_per_point, sim_events_per_point
//	reference   core_run_us  (greengpu.Run in-process, one point per call)
//
// Daemon-side numbers are deltas of greengpud's own /metrics counters and
// of its /proc accounting over the measured window, so they describe the
// same requests the client spans do.

// snap is the daemon's state at one instant.
type snap struct {
	metrics map[string]float64
	proc    procStats
}

func snapshot(d *daemon) (*snap, error) {
	m, err := d.scrape()
	if err != nil {
		return nil, err
	}
	p, err := d.proc()
	if err != nil {
		return nil, err
	}
	return &snap{metrics: m, proc: p}, nil
}

func ledger(out map[string]metric, tr *tracer, before, after *snap, orc *oracle, requests, failed int) error {
	var missing []string
	delta := func(name string) float64 {
		a, ok1 := after.metrics[name]
		b, ok2 := before.metrics[name]
		if !ok1 || !ok2 {
			missing = append(missing, name)
		}
		return a - b
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	wait, read := ratio(ms(tr.wait), float64(tr.n)), ratio(ms(tr.read), float64(tr.n))
	// The request histogram covers every endpoint. The `before` scrape
	// observes itself only after rendering, so it lands in the delta; the
	// scrape counter, bumped before rendering, counts exactly that one.
	// Its time stays in the sum: one scrape against a window of requests.
	served := delta("greengpu_daemon_request_seconds_count") - delta("greengpu_daemon_metrics_requests_total")
	handler := 1e3 * ratio(delta("greengpu_daemon_request_seconds_sum"), served)
	points := delta("greengpu_sweep_points_total")
	fast := delta("greengpu_sweep_fastpath_total")
	hits := delta("greengpu_runcache_hits_total") + delta("greengpu_runcache_disk_hits_total")
	misses := delta("greengpu_runcache_misses_total")

	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	put("client_wait_ms", "ms", wait)
	put("client_read_ms", "ms", read)
	put("daemon_handler_ms", "ms", handler)
	put("http_overhead_ms", "ms", wait+read-handler)
	put("daemon_cpu_ms_per_req", "ms", ms(after.proc.cpu-before.proc.cpu)/float64(requests))
	put("daemon_peak_rss_mb", "MB", after.proc.peakMB)
	put("eval_task_ms", "ms", 1e3*ratio(delta("greengpu_parallel_task_seconds_sum"), delta("greengpu_parallel_task_seconds_count")))
	put("points", "count", points)
	put("fastpath_share", "ratio", ratio(fast, fast+delta("greengpu_sweep_fallback_total")))
	put("cache_hits", "count", hits)
	put("cache_misses", "count", misses)
	put("cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	put("core_runs_per_point", "count", ratio(delta("greengpu_core_runs_total"), points))
	put("sim_events_per_point", "count", ratio(delta("greengpu_sim_events_total"), points))
	put("core_run_us", "us", ratio(float64(orc.spent)/float64(time.Microsecond), float64(orc.runs)))
	put("requests", "count", float64(requests))
	put("failed_requests", "count", float64(failed))
	if missing != nil {
		return fmt.Errorf("greengpud /metrics lacks %v", missing)
	}
	return nil
}

// maxTracedRequests caps the request spans a trace file keeps; the
// ledger's client means cover every request regardless.
const maxTracedRequests = 2000

// span is one traced interval. Request spans share their trace id; the
// session's own spans (setup, warmup, measure, verify) have trace 0.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer records spans in memory when on, and the client-side means the
// ledger reports. Spans are written out once, after the run.
type tracer struct {
	on      bool
	epoch   time.Time
	measure int

	mu         sync.Mutex
	spans      []span
	traced     int
	n          int
	wait, read time.Duration
}

func (t *tracer) us(at time.Time) int64 { return at.Sub(t.epoch).Microseconds() }

func (t *tracer) begin(parent int, name string) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartUS: t.us(time.Now())})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUS = t.us(time.Now())
}

// request records one measured request: sent at t0, response headers at
// t1, body read at t2, response checked at t3.
func (t *tracer) request(client, idx int, t0, t1, t2, t3 time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	t.wait += t1.Sub(t0)
	t.read += t2.Sub(t1)
	if t.traced == maxTracedRequests {
		return
	}
	t.traced++
	root := len(t.spans) + 1
	name := fmt.Sprintf("request c%d r%d", client, idx)
	t.spans = append(t.spans,
		span{ID: root, Parent: t.measure, Trace: t.traced, Name: name, StartUS: t.us(t0), EndUS: t.us(t3)},
		span{ID: root + 1, Parent: root, Trace: t.traced, Name: "wait", StartUS: t.us(t0), EndUS: t.us(t1)},
		span{ID: root + 2, Parent: root, Trace: t.traced, Name: "read", StartUS: t.us(t1), EndUS: t.us(t2)},
		span{ID: root + 3, Parent: root, Trace: t.traced, Name: "check", StartUS: t.us(t2), EndUS: t.us(t3)},
	)
}

// write stores the spans as dir/<workload>-seed<seed>.json.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), data, 0o644)
}
