// Command greengpud serves the GreenGPU simulation engines as a
// long-lived HTTP/JSON service (see docs/SERVICE.md for the full API
// reference and curl quickstarts).
//
// Usage:
//
//	greengpud                          # serve on 127.0.0.1:7979
//	greengpud -addr :8080              # all interfaces, port 8080
//	greengpud -jobs 8                  # bound each request's fan-out
//	greengpud -cache-dir .cache        # persist points across restarts
//	greengpud -state-dir .state        # journal async jobs; recover on restart
//	greengpud -flight-recorder 256     # enable GET /v1/flightrecorder
//
// Endpoints: POST /v1/simulate, POST /v1/sweep, POST /v1/fleet (the
// sweep.ParseSpec / fleet.ParseSpec mini-languages, sync or async),
// GET /v1/jobs, GET /v1/results/{id}, GET /v1/flightrecorder,
// GET /v1/stats, GET /metrics (live Prometheus registry), GET /healthz.
//
// With -state-dir, accepted async jobs are journaled (fsynced before the
// 202 is returned); after a crash the next start re-executes every job
// that had no terminal record, and deterministic replay — ideally through
// a warm -cache-dir — makes the recovered results byte-identical to an
// uninterrupted run (enforced by `make daemon-crash-smoke`).
//
// Telemetry is always enabled — a live /metrics endpoint is the point of
// running a daemon — and all logging goes to stderr. On SIGINT/SIGTERM
// the daemon drains in-flight requests and async jobs (bounded by
// -drain-timeout), flushes the cache counters, optionally writes a final
// metrics snapshot (-metrics FILE), and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"greengpu/internal/daemon"
	"greengpu/internal/experiments"
	"greengpu/internal/runcache"
	"greengpu/internal/telemetry"
)

// options holds every command-line flag, bound by registerFlags so tests
// can parse argument lists without touching flag.CommandLine.
type options struct {
	addr          string
	jobs          int
	noCache       bool
	cacheDir      string
	cacheMaxBytes int64
	stateDir      string
	maxInflight   int
	maxBodyBytes  int64
	flightRec     int
	drainTimeout  time.Duration
	metrics       string
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7979", "listen address (host:port; :port binds all interfaces)")
	fs.IntVar(&o.jobs, "jobs", 0, "concurrent points per request (0 = one worker per CPU, 1 = sequential)")
	fs.BoolVar(&o.noCache, "no-cache", false, "disable the shared run cache (repeat points re-simulate)")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "persist cached simulation points under this directory (empty = in-memory only)")
	fs.Int64Var(&o.cacheMaxBytes, "cache-max-bytes", 0, "cap the -cache-dir gob layer at this many bytes, evicting oldest entries first (0 = unbounded)")
	fs.StringVar(&o.stateDir, "state-dir", "", "journal async jobs under this directory and recover pending ones on restart (empty = jobs die with the process)")
	fs.IntVar(&o.maxInflight, "max-inflight", 0, "concurrently admitted evaluations (simulate points, sweeps, fleets) before shedding with 503 (0 = default 64)")
	fs.Int64Var(&o.maxBodyBytes, "max-body-bytes", 0, "request body size limit in bytes (0 = default 1 MiB)")
	fs.IntVar(&o.flightRec, "flight-recorder", 0, "record the last K DVFS epochs and enable GET /v1/flightrecorder (0 = off)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 0, "graceful-shutdown drain bound (0 = 30s default)")
	fs.StringVar(&o.metrics, "metrics", "", "write a final Prometheus snapshot to this file at exit (- = stderr)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "greengpud:", err)
		os.Exit(1)
	}
}

// run builds the server from the default testbed environment, announces
// the listen address on stderr ("listening on http://..."), and serves
// until ctx is canceled, then drains and flushes. Factored out of main
// so tests can drive the full lifecycle — including SIGTERM — in
// process.
func run(ctx context.Context, o *options, stderr io.Writer) error {
	// Cache flags that would do nothing are errors, not silent no-ops.
	if o.noCache && (o.cacheDir != "" || o.cacheMaxBytes != 0) {
		return fmt.Errorf("-no-cache cannot be combined with -cache-dir or -cache-max-bytes")
	}
	if o.cacheMaxBytes != 0 && o.cacheDir == "" {
		return fmt.Errorf("-cache-max-bytes requires -cache-dir")
	}
	env, err := experiments.NewEnv()
	if err != nil {
		return err
	}
	env.Jobs = o.jobs
	if !o.noCache {
		if env.Cache, err = runcache.New(runcache.Options{Dir: o.cacheDir, MaxDiskBytes: o.cacheMaxBytes}); err != nil {
			return err
		}
	}
	if o.flightRec < 0 {
		return fmt.Errorf("-flight-recorder %d: retention must be non-negative", o.flightRec)
	}
	if o.flightRec > 0 {
		telemetry.SetFlightRecorder(telemetry.NewFlightRecorder(o.flightRec))
		defer telemetry.SetFlightRecorder(nil)
	}

	// The daemon's reason to exist is live observability: enable the
	// registry for the process lifetime (restored for in-process tests).
	wasEnabled := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !wasEnabled {
			telemetry.Disable()
		}
	}()

	srv, err := daemon.New(daemon.Config{
		Engine:       &env.Engine,
		MaxInflight:  o.maxInflight,
		MaxBodyBytes: o.maxBodyBytes,
		StateDir:     o.stateDir,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if n := srv.RecoveredJobs(); n > 0 {
		fmt.Fprintf(stderr, "greengpud: recovered %d pending job(s) from %s\n", n, o.stateDir)
	}
	fmt.Fprintf(stderr, "greengpud: listening on http://%s\n", ln.Addr())
	serveErr := srv.Serve(ctx, ln, o.drainTimeout, stderr)
	if o.metrics != "" {
		if err := emitMetrics(o.metrics, stderr); err != nil && serveErr == nil {
			serveErr = err
		}
	}
	return serveErr
}

// emitMetrics writes the final Prometheus snapshot to path ("-" =
// stderr), the same emitter /metrics serves live.
func emitMetrics(path string, stderr io.Writer) error {
	if path == "-" {
		return telemetry.Default.WritePrometheus(stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.Default.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
