// Command experiments regenerates every table and figure of the GreenGPU
// evaluation on the simulated testbed, printing text tables and optionally
// writing CSV files.
//
// Usage:
//
//	experiments                     # run everything, one worker per CPU
//	experiments -run fig6           # one experiment
//	experiments -out results        # also write results/<id>*.csv
//	experiments -jobs 1             # force sequential execution
//
// Experiment ids: fig1, fig2, fig5, fig6, fig7, fig8, table2, sweep,
// sweetspot, predict, ablations, extensions, resilience, fleet, all.
//
// Ad-hoc batch sweeps bypass the predefined studies: -sweep takes a
// key=value spec (see internal/sweep.ParseSpec) and evaluates the whole
// batch through the massive-sweep engine — shared level tables, the
// closed-form fast path for baseline ladder points, and the run cache —
// emitting one sweep_points table. Output is byte-identical to evaluating
// each point alone, at any -jobs value:
//
//	experiments -sweep 'workloads=kmeans core=all mem=all iters=4'
//	experiments -sweep 'draws=100 seed=2012 mode=holistic' -out results
//
// -predict takes the same ladder spec but finds each workload's sweet
// spot analytically (see internal/predict and docs/PERF.md "Prediction"):
// a cross-frequency model fitted from a few anchor evaluations ranks the
// ladder in closed form and only the top candidates are verified,
// emitting one predict_spots table instead of the full cross product.
// The model is fitted from the four ladder corners plus the center and
// ranks points by energy; -predict-topm sets the verification budget
// (negative trusts the model unverified):
//
//	experiments -predict 'workloads=kmeans core=all mem=all iters=4'
//	experiments -predict 'workloads=all' -predict-topm 12
//
// -fleet simulates a whole fleet of heterogeneous nodes at once (see
// internal/fleet and docs/PERF.md "Fleet"): each node draws its device
// class, workload, DVFS mode and fault intensity statelessly from the
// fleet seed, nodes are deduplicated by configuration fingerprint, every
// distinct group simulates exactly once through the sweep fast path and
// run cache, and the results fan back out into per-node aggregates that
// are byte-identical to simulating each node alone. Dedup economics —
// group count, nodes collapsed per group, cache hit/miss deltas — print
// to stderr, never stdout:
//
//	experiments -fleet 'nodes=100000 faults=0,1,2'
//	experiments -fleet 'nodes=10000 classes=8800gtx modes=baseline,holistic' -out results
//
// Every experiment point runs on a fresh simulated machine with
// deterministic seeding, so the output is byte-identical for every -jobs
// value; the flag only trades wall-clock time for cores.
//
// Repeated simulation points are memoized through a content-addressed run
// cache (see internal/runcache): shared points like the best-performance
// baseline simulate once and replay everywhere else, with concurrent
// requests single-flighted onto one computation. The cache never changes
// output — results are deterministic and returned as private copies — so
// stdout and CSVs are byte-identical with the cache on or off. Cache
// effectiveness counters print to stderr at exit.
//
//	experiments -no-cache           # disable memoization entirely
//	experiments -cache-dir .cache   # persist points across runs (gob files
//	                                # under a schema-versioned subdirectory)
//	experiments -cache-dir .cache -cache-max-bytes 67108864
//	                                # bound the disk layer at 64 MiB,
//	                                # evicting oldest entries first
//	experiments -bench-cache BENCH_experiments.json
//	                                # time the suite no-cache/cold/warm and
//	                                # write the measurements as JSON
//
// The telemetry flags (see docs/OBSERVABILITY.md) turn on the
// internal/telemetry layer for the run and emit its state at exit. All
// telemetry output goes to stderr or files, never stdout, so experiment
// tables stay byte-identical with telemetry on or off:
//
//	experiments -metrics -              # Prometheus text format to stderr
//	experiments -metrics metrics.prom  # ... or to a file
//	experiments -metrics-json m.json   # JSON snapshot of every instrument
//	experiments -flight-recorder 64    # record the last 64 DVFS epochs
//	experiments -flight-recorder 64 -flight-recorder-out flight.json
//
// With -flight-recorder, a run that ends in an error additionally dumps the
// retained epochs as an aligned table to stderr — the controller's last K
// decisions before things went wrong.
//
// Chaos mode (see docs/ROBUSTNESS.md) injects the moderate all-classes
// fault plan into every run that does not sweep its own, exercising the
// hardened recovery paths across the whole suite. Output is still
// byte-identical for every -jobs value — fault sequences are pure
// functions of each point's plan — but differs from a fault-free run:
//
//	experiments -faults default     # what `make chaos` runs at -jobs 1 and 8
//
// The -cpuprofile and -memprofile flags write pprof profiles covering the
// full run, for inspecting the simulator's hot paths (see docs/PERF.md):
//
//	experiments -run fig1 -cpuprofile cpu.out
//	go tool pprof cpu.out
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"greengpu/internal/experiments"
	"greengpu/internal/faultinject"
	"greengpu/internal/fleet"
	"greengpu/internal/predict"
	"greengpu/internal/runcache"
	"greengpu/internal/sweep"
	"greengpu/internal/telemetry"
	"greengpu/internal/trace"
)

// options holds every command-line flag. Keeping them in one struct bound
// by registerFlags lets tests parse argument lists without touching the
// process-global flag.CommandLine.
type options struct {
	run           string
	sweep         string
	predict       string
	fleet         string
	predictTopM   int
	out           string
	markdown      bool
	jobs          int
	cpuprofile    string
	memprofile    string
	noCache       bool
	cacheDir      string
	cacheMaxBytes int64
	benchCache    string
	faults        string
	metrics       string
	metricsJSON   string
	flightRec     int
	flightOut     string
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.run, "run", "all", "comma-separated experiment ids (fig1 fig2 fig5 fig6 fig7 fig8 table2 sweep sweetspot predict ablations extensions resilience fleet all)")
	fs.StringVar(&o.sweep, "sweep", "", "run an ad-hoc batch sweep instead of -run: whitespace-separated key=value spec (see internal/sweep.ParseSpec), e.g. 'workloads=kmeans core=all mem=all iters=4'")
	fs.StringVar(&o.predict, "predict", "", "find sweet spots analytically instead of -run: a -sweep style ladder spec evaluated with the O(anchors) search (see internal/predict)")
	fs.StringVar(&o.fleet, "fleet", "", "simulate a dedup-compressed node fleet instead of -run: whitespace-separated key=value spec (see internal/fleet.ParseSpec), e.g. 'nodes=100000 faults=0,1,2'")
	fs.IntVar(&o.predictTopM, "predict-topm", 0, "model-ranked candidates -predict verifies by full evaluation (0 = default, negative = trust the model unverified)")
	fs.StringVar(&o.out, "out", "", "directory for CSV output (empty = none)")
	fs.BoolVar(&o.markdown, "markdown", false, "render tables as GitHub markdown instead of aligned text")
	fs.IntVar(&o.jobs, "jobs", 0, "concurrent experiment points (0 = one per CPU, 1 = sequential)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	fs.BoolVar(&o.noCache, "no-cache", false, "disable the run cache (memoization of repeated simulation points)")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "persist cached simulation points under this directory (empty = in-memory only)")
	fs.Int64Var(&o.cacheMaxBytes, "cache-max-bytes", 0, "cap the -cache-dir gob layer at this many bytes, evicting oldest entries first (0 = unbounded)")
	fs.StringVar(&o.benchCache, "bench-cache", "", "instead of printing tables, time the suite no-cache/cold/warm and write the JSON measurements to this file")
	fs.StringVar(&o.faults, "faults", "off", "chaos mode: inject the default fault plan into every run that doesn't sweep its own (off, default)")
	fs.StringVar(&o.metrics, "metrics", "", "enable telemetry and write a Prometheus text-format snapshot to this file at exit (- = stderr)")
	fs.StringVar(&o.metricsJSON, "metrics-json", "", "enable telemetry and write a JSON metrics snapshot to this file at exit (- = stderr)")
	fs.IntVar(&o.flightRec, "flight-recorder", 0, "enable telemetry and record the last K DVFS epochs; dumped to stderr as a table if the run fails")
	fs.StringVar(&o.flightOut, "flight-recorder-out", "", "write the flight-recorder records as JSON to this file at exit (- = stderr); requires -flight-recorder")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the selected experiments. It returns rather than exits on
// error so that profile files are always flushed and closed. Cache
// statistics go to stderr, never stdout: stdout carries only the
// deterministic tables, while single-flight wait counts depend on worker
// scheduling.
func run(o *options, stdout, stderr io.Writer) (err error) {
	// Cache flags that would do nothing are errors, not silent no-ops.
	if o.noCache && (o.cacheDir != "" || o.cacheMaxBytes != 0) {
		return fmt.Errorf("-no-cache cannot be combined with -cache-dir or -cache-max-bytes")
	}
	if o.cacheMaxBytes != 0 && o.cacheDir == "" {
		return fmt.Errorf("-cache-max-bytes requires -cache-dir")
	}
	finishTelemetry, err := setupTelemetry(o, stderr)
	if err != nil {
		return err
	}
	defer func() {
		if terr := finishTelemetry(err); terr != nil && err == nil {
			err = terr
		}
	}()
	if o.benchCache != "" {
		return benchCacheSuite(o, stderr)
	}
	stopProfiles, err := startProfiles(o.cpuprofile, o.memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()

	env, err := experiments.NewEnv()
	if err != nil {
		return err
	}
	env.Jobs = o.jobs
	if err := applyFaultsFlag(o, env); err != nil {
		return err
	}
	if !o.noCache {
		cache, err := runcache.New(runcache.Options{Dir: o.cacheDir, MaxDiskBytes: o.cacheMaxBytes})
		if err != nil {
			return err
		}
		env.Cache = cache
	}
	r := &runner{env: env, outDir: o.out, markdown: o.markdown, stdout: stdout}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
	}

	adhoc := 0
	for _, s := range []string{o.sweep, o.predict, o.fleet} {
		if s != "" {
			adhoc++
		}
	}
	if adhoc > 1 {
		return fmt.Errorf("-sweep, -predict and -fleet are mutually exclusive")
	}
	if adhoc == 1 {
		var err error
		switch {
		case o.sweep != "":
			err = runSweep(o.sweep, env, r)
		case o.predict != "":
			err = runPredict(o, env, r)
		default:
			err = runFleet(o.fleet, env, r, stderr)
		}
		if err != nil {
			return err
		}
		if env.Cache != nil {
			fmt.Fprintln(stderr, env.Cache.Stats())
		}
		return nil
	}

	ids := strings.Split(o.run, ",")
	if o.run == "all" {
		ids = allIDs
	}
	for _, id := range ids {
		if err := r.runOne(strings.TrimSpace(id)); err != nil {
			return err
		}
	}
	if env.Cache != nil {
		fmt.Fprintln(stderr, env.Cache.Stats())
	}
	return nil
}

// setupTelemetry enables the telemetry layer and installs a flight recorder
// according to the -metrics, -metrics-json and -flight-recorder flags. The
// returned finish function emits the requested snapshots, dumps the flight
// recorder to stderr when the run failed, and restores the process-global
// telemetry state — important because tests invoke run repeatedly in one
// process. With no telemetry flag set both functions are no-ops.
func setupTelemetry(o *options, stderr io.Writer) (finish func(runErr error) error, err error) {
	if o.metrics == "" && o.metricsJSON == "" && o.flightRec == 0 {
		if o.flightOut != "" {
			return nil, fmt.Errorf("-flight-recorder-out requires -flight-recorder K")
		}
		return func(error) error { return nil }, nil
	}
	if o.flightRec < 0 {
		return nil, fmt.Errorf("-flight-recorder %d: retention must be positive", o.flightRec)
	}
	if o.flightOut != "" && o.flightRec == 0 {
		return nil, fmt.Errorf("-flight-recorder-out requires -flight-recorder K")
	}
	var rec *telemetry.FlightRecorder
	if o.flightRec > 0 {
		rec = telemetry.NewFlightRecorder(o.flightRec)
		telemetry.SetFlightRecorder(rec)
	}
	wasEnabled := telemetry.Enabled()
	telemetry.Enable()

	return func(runErr error) error {
		if !wasEnabled {
			telemetry.Disable()
		}
		var first error
		if rec != nil {
			telemetry.SetFlightRecorder(nil)
			if runErr != nil {
				fmt.Fprintln(stderr, "experiments: run failed, dumping flight recorder:")
				if err := rec.Table(0).WriteText(stderr); err != nil {
					first = err
				}
			}
			if o.flightOut != "" {
				if err := emitTo(o.flightOut, stderr, rec.WriteJSON); err != nil && first == nil {
					first = err
				}
			}
		}
		if o.metrics != "" {
			if err := emitTo(o.metrics, stderr, telemetry.Default.WritePrometheus); err != nil && first == nil {
				first = err
			}
		}
		if o.metricsJSON != "" {
			if err := emitTo(o.metricsJSON, stderr, telemetry.Default.WriteJSON); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// runSweep parses the -sweep spec and evaluates it on the environment's
// engine, emitting one "sweep_points" table. Ad-hoc sweeps thus share the
// predefined studies' worker pool, run cache and chaos plan.
func runSweep(specText string, env *experiments.Env, r *runner) error {
	spec, err := sweep.ParseSpec(specText)
	if err != nil {
		return err
	}
	eng := &env.Engine
	results, err := eng.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	return r.emit("sweep_points", sweep.Table(eng, results))
}

// runPredict parses the -predict ladder spec and finds each selected
// workload's sweet spot through the analytic O(anchors) search instead of
// the full cross product, emitting one "predict_spots" table. It runs on
// the environment's engine, like -sweep.
func runPredict(o *options, env *experiments.Env, r *runner) error {
	spec, err := sweep.ParseSpec(o.predict)
	if err != nil {
		return err
	}
	eng := &env.Engine
	spots, err := eng.PredictSweetSpots(spec, predict.Options{TopM: o.predictTopM})
	if err != nil {
		return err
	}
	return r.emit("predict_spots", sweep.SpotsTable(eng, spots))
}

// runFleet parses the -fleet spec and evaluates the fleet through the
// dedup-compressed engine, emitting the per-group and summary tables. The
// engine shares the environment's worker pool, run cache and chaos plan.
// Dedup economics go to stderr, never stdout: stdout carries only the
// deterministic tables, identical at any -jobs value and with the cache
// on or off.
func runFleet(specText string, env *experiments.Env, r *runner, stderr io.Writer) error {
	spec, err := fleet.ParseSpec(specText)
	if err != nil {
		return err
	}
	eng := &fleet.Engine{Jobs: env.Jobs, Cache: env.Cache, FaultPlan: env.FaultPlan}
	var before runcache.Stats
	if env.Cache != nil {
		before = env.Cache.Stats()
	}
	res, err := eng.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	if err := r.emit("fleet", fleet.GroupsTable(res), fleet.SummaryTable(res)); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "fleet: %d nodes collapsed into %d distinct groups (dedup ratio %.2f)\n",
		res.Agg.Nodes, len(res.Groups), res.DedupRatio())
	for i := range res.Groups {
		g := &res.Groups[i]
		if g.Count == 0 {
			continue // deadline reference, not a node-backed group
		}
		fmt.Fprintf(stderr, "fleet group %s/%s/%v/faults=%d: %d nodes -> 1 simulation\n",
			g.Class, g.Workload, g.Mode, g.FaultLevel, g.Count)
	}
	if env.Cache != nil {
		fmt.Fprintln(stderr, "fleet cache delta:", env.Cache.Stats().Sub(before))
	}
	return nil
}

// chaosSeed seeds the -faults default ambient plan. Fixed, so chaos runs
// reproduce across processes and machines — `make chaos` relies on it to
// diff -jobs 1 against -jobs 8.
const chaosSeed = 2012

// applyFaultsFlag installs the -faults chaos plan on the environment.
func applyFaultsFlag(o *options, env *experiments.Env) error {
	switch o.faults {
	case "", "off":
		return nil
	case "default":
		plan := faultinject.Default(chaosSeed)
		env.FaultPlan = &plan
		return nil
	default:
		return fmt.Errorf("-faults %q: must be off or default", o.faults)
	}
}

// emitTo runs emit against stderr when path is "-", or against a freshly
// created file otherwise. Telemetry output never goes to stdout: stdout
// carries only the deterministic experiment tables.
func emitTo(path string, stderr io.Writer, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchRun is one timed pass over the suite in the -bench-cache report.
type benchRun struct {
	// Name identifies the pass: "no-cache", "cold" (empty cache),
	// or "warm" (cache pre-populated by the cold pass).
	Name     string  `json:"name"`
	Millis   float64 `json:"wall_ms"`
	Hits     uint64  `json:"cache_hits,omitempty"`
	DiskHits uint64  `json:"cache_disk_hits,omitempty"`
	Misses   uint64  `json:"cache_misses,omitempty"`
	Waits    uint64  `json:"single_flight_waits,omitempty"`
}

// benchCacheSuite times the selected suite three ways — without a cache,
// with a cold cache, and again against the now-warm cache — and writes the
// measurements as JSON. Tables are rendered to io.Discard: the point is to
// time the simulations, not terminal IO.
func benchCacheSuite(o *options, stderr io.Writer) error {
	ids := strings.Split(o.run, ",")
	if o.run == "all" {
		ids = allIDs
	}
	pass := func(env *experiments.Env) (time.Duration, error) {
		r := &runner{env: env, stdout: io.Discard}
		start := time.Now()
		for _, id := range ids {
			if err := r.runOne(strings.TrimSpace(id)); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	env, err := experiments.NewEnv()
	if err != nil {
		return err
	}
	env.Jobs = o.jobs
	if err := applyFaultsFlag(o, env); err != nil {
		return err
	}

	var runs []benchRun
	record := func(name string, d time.Duration, s runcache.Stats) {
		br := benchRun{
			Name:   name,
			Millis: float64(d.Microseconds()) / 1e3,
			Hits:   s.Hits, DiskHits: s.DiskHits, Misses: s.Misses, Waits: s.Waits,
		}
		runs = append(runs, br)
		fmt.Fprintf(stderr, "bench-cache %-8s %10.3f ms   %d hits (%d disk), %d misses, %d waits\n",
			name, br.Millis, s.Hits, s.DiskHits, s.Misses, s.Waits)
	}

	d, err := pass(env)
	if err != nil {
		return err
	}
	record("no-cache", d, runcache.Stats{})

	cache, err := runcache.New(runcache.Options{Dir: o.cacheDir, MaxDiskBytes: o.cacheMaxBytes})
	if err != nil {
		return err
	}
	env.Cache = cache
	cold, err := pass(env)
	if err != nil {
		return err
	}
	coldStats := cache.Stats()
	record("cold", cold, coldStats)

	warm, err := pass(env)
	if err != nil {
		return err
	}
	// The counters are cumulative; subtract the cold pass's share so the
	// warm row reports one pass on its own.
	record("warm", warm, cache.Stats().Sub(coldStats))

	report := struct {
		Suite string     `json:"suite"`
		Jobs  int        `json:"jobs"`
		Runs  []benchRun `json:"runs"`
	}{Suite: o.run, Jobs: o.jobs, Runs: runs}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.benchCache, append(buf, '\n'), 0o644)
}

// startProfiles begins CPU profiling and/or arranges a heap profile,
// according to the (possibly empty) file names. The returned stop function
// must be called exactly once; it flushes and closes whatever was started.
func startProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		var first error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				first = err
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				if first == nil {
					first = err
				}
				return first
			}
			runtime.GC() // report live objects, not garbage awaiting collection
			if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
				first = err
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// allIDs is the "all" suite, in the order the paper presents it; the
// post-paper studies (ablations, extensions, resilience) follow.
var allIDs = []string{"table2", "fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "sweep", "sweetspot", "predict", "ablations", "extensions", "resilience", "fleet"}

// handlers routes experiment ids to their runners. Keeping the dispatch
// table explicit (rather than a switch) lets tests verify the id set
// without executing every experiment.
var handlers = map[string]func(*runner) error{
	"fig1": func(r *runner) error {
		res, err := r.env.Fig1()
		if err != nil {
			return err
		}
		return r.emit("fig1", res.Table())
	},
	"fig2": func(r *runner) error {
		res, err := r.env.Fig2()
		if err != nil {
			return err
		}
		return r.emit("fig2", res.Table())
	},
	"fig5": func(r *runner) error {
		res, err := r.env.Fig5()
		if err != nil {
			return err
		}
		if err := r.emit("fig5", res.Table(), res.PowerTable()); err != nil {
			return err
		}
		fmt.Fprintln(r.stdout, res.Sparklines())
		return nil
	},
	"fig6": func(r *runner) error {
		res, err := r.env.Fig6()
		if err != nil {
			return err
		}
		return r.emit("fig6", res.Table())
	},
	"fig7": func(r *runner) error {
		var tables []*trace.Table
		for _, name := range []string{"kmeans", "hotspot"} {
			res, err := r.env.Fig7(name)
			if err != nil {
				return err
			}
			tables = append(tables, res.Table())
		}
		return r.emit("fig7", tables...)
	},
	"fig8": func(r *runner) error {
		var tables []*trace.Table
		for _, name := range []string{"hotspot", "kmeans"} {
			res, err := r.env.Fig8(name)
			if err != nil {
				return err
			}
			tables = append(tables, res.Table())
		}
		return r.emit("fig8", tables...)
	},
	"table2": func(r *runner) error {
		res, err := r.env.Table2()
		if err != nil {
			return err
		}
		return r.emit("table2", res.Table())
	},
	"sweep": func(r *runner) error {
		res, err := r.env.StaticSweep("kmeans", "hotspot")
		if err != nil {
			return err
		}
		return r.emit("sweep", res.Table())
	},
	"sweetspot": func(r *runner) error {
		rows, err := r.env.SweetSpot()
		if err != nil {
			return err
		}
		// Emitted as sweep_sweetspot.csv: the file names the study family,
		// the id stays short for -run.
		return r.emit("sweep_sweetspot", experiments.SweetSpotTable(rows))
	},
	"predict": func(r *runner) error {
		rows, err := r.env.PredictValidation()
		if err != nil {
			return err
		}
		return r.emit("predict_validation", experiments.PredictValidationTable(rows))
	},
	"ablations": func(r *runner) error {
		tables, err := r.env.AblationTables("kmeans")
		if err != nil {
			return err
		}
		return r.emit("ablations", tables...)
	},
	"extensions": func(r *runner) error {
		var tables []*trace.Table
		drows, err := r.env.DividerComparison("kmeans", "hotspot")
		if err != nil {
			return err
		}
		tables = append(tables, experiments.DividerComparisonTable(drows))
		arows, err := r.env.AsyncValidation("kmeans", "lud", "PF")
		if err != nil {
			return err
		}
		tables = append(tables, experiments.AsyncValidationTable(arows))
		frows, err := r.env.ActuatorFaults("kmeans")
		if err != nil {
			return err
		}
		tables = append(tables, experiments.ActuatorFaultsTable("kmeans", frows))
		prows, err := r.env.Portability()
		if err != nil {
			return err
		}
		tables = append(tables, experiments.PortabilityTable(prows))
		xrows, err := r.env.Fixed8Comparison()
		if err != nil {
			return err
		}
		tables = append(tables, experiments.Fixed8ComparisonTable(xrows))
		crows, err := r.env.CPUCapability("kmeans", "hotspot")
		if err != nil {
			return err
		}
		tables = append(tables, experiments.CPUCapabilityTable(crows))
		srows, err := r.env.SMComparison()
		if err != nil {
			return err
		}
		tables = append(tables, experiments.SMComparisonTable(srows))
		return r.emit("extensions", tables...)
	},
	"fleet": func(r *runner) error {
		rows, err := r.env.FleetStudy()
		if err != nil {
			return err
		}
		// Emitted as fleet_study.csv — the CSV `make golden` diffs across
		// -jobs values.
		return r.emit("fleet_study", experiments.FleetStudyTable(rows))
	},
	"resilience": func(r *runner) error {
		rows, err := r.env.FaultResilience("kmeans", "hotspot")
		if err != nil {
			return err
		}
		// Emitted as fault_resilience.csv: the file names the study, the
		// id stays short for -run.
		return r.emit("fault_resilience", experiments.FaultResilienceTable(rows))
	},
}

type runner struct {
	env      *experiments.Env
	outDir   string
	markdown bool
	stdout   io.Writer
}

func (r *runner) emit(id string, tables ...*trace.Table) error {
	for i, t := range tables {
		render := t.WriteText
		if r.markdown {
			render = t.WriteMarkdown
		}
		if err := render(r.stdout); err != nil {
			return err
		}
		fmt.Fprintln(r.stdout)
		if r.outDir != "" {
			name := id
			if len(tables) > 1 {
				name = fmt.Sprintf("%s_%d", id, i+1)
			}
			f, err := os.Create(filepath.Join(r.outDir, name+".csv"))
			if err != nil {
				return err
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *runner) runOne(id string) error {
	h, ok := handlers[id]
	if !ok {
		return fmt.Errorf("unknown experiment %q", id)
	}
	return h(r)
}
