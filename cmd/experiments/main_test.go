package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"greengpu/internal/experiments"
	"greengpu/internal/telemetry"
	"greengpu/internal/trace"
)

// testEnv is built once: calibration is deterministic and the environment
// is immutable, so all runner tests can share it.
var (
	testEnvOnce sync.Once
	testEnv     *experiments.Env
)

func env(t *testing.T) *experiments.Env {
	t.Helper()
	testEnvOnce.Do(func() {
		e, err := experiments.NewEnv()
		if err != nil {
			t.Fatalf("NewEnv: %v", err)
		}
		testEnv = e
	})
	return testEnv
}

func TestRegisterFlagsRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	o := registerFlags(fs)
	args := []string{
		"-run", "fig1,fig2",
		"-sweep", "workloads=kmeans",
		"-fleet", "nodes=100",
		"-predict-strategy", "adaptive",
		"-predict-topm", "12",
		"-out", "res",
		"-markdown",
		"-jobs", "3",
		"-cpuprofile", "cpu.out",
		"-memprofile", "mem.out",
		"-no-cache",
		"-cache-dir", ".cache",
		"-cache-max-bytes", "1048576",
		"-bench-cache", "bench.json",
		"-faults", "default",
		"-metrics", "m.prom",
		"-metrics-json", "m.json",
		"-flight-recorder", "64",
		"-flight-recorder-out", "flight.json",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := options{run: "fig1,fig2", sweep: "workloads=kmeans",
		fleet:           "nodes=100",
		predictStrategy: "adaptive", predictTopM: 12,
		out: "res", markdown: true, jobs: 3,
		cpuprofile: "cpu.out", memprofile: "mem.out",
		noCache: true, cacheDir: ".cache", cacheMaxBytes: 1048576, benchCache: "bench.json",
		faults: "default", metrics: "m.prom", metricsJSON: "m.json",
		flightRec: 64, flightOut: "flight.json"}
	if *o != want {
		t.Errorf("parsed options = %+v, want %+v", *o, want)
	}
}

func TestRegisterFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	o := registerFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := options{run: "all", faults: "off", predictStrategy: "corners"}
	if *o != want {
		t.Errorf("default options = %+v, want %+v", *o, want)
	}
	// Every option field must be reachable from the command line.
	for _, name := range []string{"run", "sweep", "predict", "fleet", "predict-strategy", "predict-topm", "out", "markdown", "jobs", "cpuprofile", "memprofile", "no-cache", "cache-dir", "cache-max-bytes", "bench-cache", "faults", "metrics", "metrics-json", "flight-recorder", "flight-recorder-out"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestStartProfilesWritesFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatalf("startProfiles: %v", err)
	}
	// Do a little work so the CPU profile has something to record.
	sink := 0
	for i := 0; i < 1e6; i++ {
		sink += i
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, name := range []string{cpu, mem} {
		fi, err := os.Stat(name)
		if err != nil {
			t.Errorf("profile %s not written: %v", name, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", name)
		}
	}
}

func TestStartProfilesNoop(t *testing.T) {
	stop, err := startProfiles("", "")
	if err != nil {
		t.Fatalf("startProfiles: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

func TestRunOneUnknownID(t *testing.T) {
	r := &runner{env: env(t), stdout: &bytes.Buffer{}}
	err := r.runOne("nope")
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	if !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("error %q does not name the bad id", err)
	}
}

func TestAllIDsAreRouted(t *testing.T) {
	// Every id the "all" suite dispatches must have a handler, and every
	// handler must be reachable from the suite — no dead or missing ids.
	if len(allIDs) != len(handlers) {
		t.Errorf("allIDs has %d ids, handlers has %d", len(allIDs), len(handlers))
	}
	seen := map[string]bool{}
	for _, id := range allIDs {
		if seen[id] {
			t.Errorf("duplicate id %q in allIDs", id)
		}
		seen[id] = true
		if _, ok := handlers[id]; !ok {
			t.Errorf("id %q in allIDs has no handler", id)
		}
	}
	for id := range handlers {
		if !seen[id] {
			t.Errorf("handler %q unreachable from the all suite", id)
		}
	}
}

func TestRunOneTable2WritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	r := &runner{env: env(t), outDir: dir, stdout: &out}
	if err := r.runOne("table2"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "kmeans") {
		t.Error("stdout table missing workload rows")
	}
	csv, err := os.ReadFile(filepath.Join(dir, "table2.csv"))
	if err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	if !strings.Contains(string(csv), "kmeans") {
		t.Error("CSV missing workload rows")
	}
}

func TestRunOneRespectsJobs(t *testing.T) {
	// The runner must work for any worker count and produce identical
	// output (the engine's determinism guarantee, exercised end-to-end
	// through the dispatch path).
	render := func(jobs int) string {
		e := *env(t)
		e.Jobs = jobs
		var out bytes.Buffer
		r := &runner{env: &e, stdout: &out}
		if err := r.runOne("table2"); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if seq, par := render(1), render(8); seq != par {
		t.Error("table2 output differs between -jobs 1 and -jobs 8")
	}
}

func TestEmitNumbersMultipleTables(t *testing.T) {
	dir := t.TempDir()
	r := &runner{outDir: dir, stdout: &bytes.Buffer{}}
	t1 := trace.NewTable("one", "a")
	t1.AddRow("1")
	t2 := trace.NewTable("two", "b")
	t2.AddRow("2")
	if err := r.emit("x", t1, t2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"x_1.csv", "x_2.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
	// A single table keeps the bare id.
	if err := r.emit("y", t1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "y.csv")); err != nil {
		t.Errorf("missing y.csv: %v", err)
	}
}

// suiteOutput runs the full experiment suite through the real run()
// entrypoint and returns stdout plus every CSV, keyed by file name.
func suiteOutput(t *testing.T, jobs int, noCache bool, cacheDir string) (string, map[string]string) {
	t.Helper()
	outDir := t.TempDir()
	var stdout bytes.Buffer
	o := &options{run: "all", out: outDir, jobs: jobs, noCache: noCache, cacheDir: cacheDir}
	if err := run(o, &stdout, io.Discard); err != nil {
		t.Fatalf("run(jobs=%d noCache=%v dir=%q): %v", jobs, noCache, cacheDir, err)
	}
	csvs := map[string]string{}
	entries, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(outDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		csvs[e.Name()] = string(data)
	}
	return stdout.String(), csvs
}

// TestSuiteDeterminismAcrossCacheModes is the acceptance matrix: the full
// suite's stdout and CSVs must be byte-identical for -jobs 1 vs -jobs 8,
// cache on vs off, and cold vs warm disk cache. The cache must be an
// invisible accelerator — any divergence means a cached result leaked
// state or a fingerprint conflated two configurations.
func TestSuiteDeterminismAcrossCacheModes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite six times")
	}
	diskDir := t.TempDir()
	baseOut, baseCSV := suiteOutput(t, 1, true, "") // sequential, no cache
	combos := []struct {
		name     string
		jobs     int
		noCache  bool
		cacheDir string
	}{
		{"jobs8 no cache", 8, true, ""},
		{"jobs1 memory cache", 1, false, ""},
		{"jobs8 memory cache", 8, false, ""},
		{"jobs8 disk cache cold", 8, false, diskDir},
		{"jobs8 disk cache warm", 8, false, diskDir}, // reuses diskDir populated above
	}
	for _, c := range combos {
		gotOut, gotCSV := suiteOutput(t, c.jobs, c.noCache, c.cacheDir)
		if gotOut != baseOut {
			t.Errorf("%s: stdout differs from sequential no-cache run", c.name)
		}
		if len(gotCSV) != len(baseCSV) {
			t.Errorf("%s: %d CSVs, want %d", c.name, len(gotCSV), len(baseCSV))
		}
		for name, want := range baseCSV {
			if gotCSV[name] != want {
				t.Errorf("%s: %s differs from sequential no-cache run", c.name, name)
			}
		}
	}
}

// TestTelemetryAcceptance runs a real experiment with every telemetry flag
// set and checks the whole contract at once: stdout stays byte-identical to
// a plain run, the Prometheus snapshot is well-formed and covers the
// headline counters, the JSON snapshot parses, the flight recorder retains
// bounded records, and the process-global telemetry state is restored.
func TestTelemetryAcceptance(t *testing.T) {
	plain := func() string {
		var out bytes.Buffer
		if err := run(&options{run: "fig6"}, &out, io.Discard); err != nil {
			t.Fatalf("plain run: %v", err)
		}
		return out.String()
	}()

	dir := t.TempDir()
	o := &options{
		run:         "fig6",
		metrics:     filepath.Join(dir, "m.prom"),
		metricsJSON: filepath.Join(dir, "m.json"),
		flightRec:   32,
		flightOut:   filepath.Join(dir, "flight.json"),
	}
	var out, errOut bytes.Buffer
	if err := run(o, &out, &errOut); err != nil {
		t.Fatalf("telemetry run: %v", err)
	}
	if out.String() != plain {
		t.Error("stdout differs between plain and telemetry-enabled runs")
	}
	if telemetry.Enabled() {
		t.Error("telemetry left enabled after run")
	}
	if telemetry.Recorder() != nil {
		t.Error("flight recorder left installed after run")
	}

	prom, err := os.ReadFile(o.metrics)
	if err != nil {
		t.Fatalf("Prometheus snapshot not written: %v", err)
	}
	for _, name := range []string{
		"greengpu_runcache_hits_total",
		"greengpu_runcache_misses_total",
		"greengpu_runcache_single_flight_waits_total",
		"greengpu_parallel_tasks_total",
		"greengpu_parallel_task_errors_total",
		"greengpu_dvfs_steps_total",
	} {
		if !regexp.MustCompile(`(?m)^` + name + ` \d+$`).Match(prom) {
			t.Errorf("Prometheus snapshot missing sample line for %s", name)
		}
		if !bytes.Contains(prom, []byte("# TYPE "+name+" counter")) {
			t.Errorf("Prometheus snapshot missing TYPE line for %s", name)
		}
	}
	// Every non-comment line must be a well-formed sample.
	sample := regexp.MustCompile(`^[a-z_]+(\{le="[^"]+"\})? -?[0-9+.eInf-]+$`)
	for _, line := range strings.Split(strings.TrimRight(string(prom), "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed Prometheus sample line %q", line)
		}
	}

	var snaps []telemetry.MetricSnapshot
	data, err := os.ReadFile(o.metricsJSON)
	if err != nil {
		t.Fatalf("JSON snapshot not written: %v", err)
	}
	if err := json.Unmarshal(data, &snaps); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v", err)
	}
	if len(snaps) == 0 {
		t.Error("JSON snapshot is empty")
	}

	var recs []telemetry.EpochRecord
	data, err = os.ReadFile(o.flightOut)
	if err != nil {
		t.Fatalf("flight-recorder dump not written: %v", err)
	}
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatalf("flight-recorder dump does not parse: %v", err)
	}
	if len(recs) == 0 || len(recs) > o.flightRec {
		t.Errorf("flight recorder retained %d records, want 1..%d", len(recs), o.flightRec)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Errorf("flight records not consecutive at %d: seq %d after %d", i, recs[i].Seq, recs[i-1].Seq)
		}
	}
}

// TestTelemetryFailureDumpsFlightRecorder checks the anomaly path: a run
// that fails with a flight recorder installed renders the retained epochs
// to stderr.
func TestTelemetryFailureDumpsFlightRecorder(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(&options{run: "fig6,bogus", flightRec: 8}, &out, &errOut)
	if err == nil {
		t.Fatal("bogus experiment id accepted")
	}
	if !strings.Contains(errOut.String(), "dumping flight recorder") {
		t.Error("failed run did not announce the flight-recorder dump")
	}
	if !strings.Contains(errOut.String(), "u_core") {
		t.Error("flight-recorder table missing from stderr")
	}
	if telemetry.Enabled() || telemetry.Recorder() != nil {
		t.Error("telemetry state not restored after failed run")
	}
}

func TestTelemetryFlagValidation(t *testing.T) {
	cases := []options{
		{run: "fig6", flightOut: "f.json"}, // out without recorder
		{run: "fig6", flightRec: -1},       // negative retention
	}
	for _, o := range cases {
		if err := run(&o, io.Discard, io.Discard); err == nil {
			t.Errorf("options %+v accepted, want error", o)
		}
	}
}

func TestEmitMarkdown(t *testing.T) {
	var out bytes.Buffer
	r := &runner{markdown: true, stdout: &out}
	tb := trace.NewTable("title", "col")
	tb.AddRow("v")
	if err := r.emit("z", tb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "|") {
		t.Error("markdown rendering produced no table pipes")
	}
}

// sweepOutput runs an ad-hoc -sweep through the real run() entrypoint.
func sweepOutput(t *testing.T, spec string, jobs int, noCache bool) string {
	t.Helper()
	var stdout bytes.Buffer
	o := &options{run: "all", sweep: spec, jobs: jobs, noCache: noCache, faults: "off"}
	if err := run(o, &stdout, io.Discard); err != nil {
		t.Fatalf("run(-sweep %q jobs=%d): %v", spec, jobs, err)
	}
	return stdout.String()
}

// TestSweepFlagDeterminism pins the -sweep contract end-to-end: the paper's
// full 6×6 kmeans ladder renders byte-identically at -jobs 1 vs -jobs 8 and
// with the cache on vs off.
func TestSweepFlagDeterminism(t *testing.T) {
	const spec = "workloads=kmeans core=all mem=all iters=4"
	base := sweepOutput(t, spec, 1, true)
	if !strings.Contains(base, "kmeans") {
		t.Fatal("sweep output missing workload rows")
	}
	for _, c := range []struct {
		jobs    int
		noCache bool
	}{{8, true}, {1, false}, {8, false}} {
		if got := sweepOutput(t, spec, c.jobs, c.noCache); got != base {
			t.Errorf("-sweep output diverges at jobs=%d noCache=%v", c.jobs, c.noCache)
		}
	}
}

func TestSweepFlagBadSpec(t *testing.T) {
	o := &options{run: "all", sweep: "core=bogus", faults: "off", noCache: true}
	if err := run(o, io.Discard, io.Discard); err == nil {
		t.Error("bad -sweep spec accepted")
	}
}

// fleetOutput runs an ad-hoc -fleet through the real run() entrypoint,
// returning stdout and stderr separately.
func fleetOutput(t *testing.T, spec string, jobs int, noCache bool) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o := &options{run: "all", fleet: spec, jobs: jobs, noCache: noCache, faults: "off"}
	if err := run(o, &stdout, &stderr); err != nil {
		t.Fatalf("run(-fleet %q jobs=%d): %v", spec, jobs, err)
	}
	return stdout.String(), stderr.String()
}

// TestFleetFlagDeterminism pins the -fleet contract end-to-end: stdout is
// byte-identical at -jobs 1 vs -jobs 8 and with the cache on vs off, while
// the dedup economics land on stderr only — emitting them must never
// perturb the deterministic tables.
func TestFleetFlagDeterminism(t *testing.T) {
	const spec = "nodes=2000 workloads=kmeans,lud modes=baseline,holistic faults=0,2"
	base, baseErr := fleetOutput(t, spec, 1, true)
	if !strings.Contains(base, "kmeans") || !strings.Contains(base, "Fleet summary") {
		t.Fatal("fleet output missing group or summary tables")
	}
	if !strings.Contains(baseErr, "distinct groups") {
		t.Error("fleet stderr missing the dedup summary line")
	}
	if !strings.Contains(baseErr, "-> 1 simulation") {
		t.Error("fleet stderr missing per-group collapse lines")
	}
	if strings.Contains(base, "distinct groups") || strings.Contains(base, "-> 1 simulation") {
		t.Error("dedup economics leaked onto stdout")
	}
	for _, c := range []struct {
		jobs    int
		noCache bool
	}{{8, true}, {1, false}, {8, false}} {
		got, gotErr := fleetOutput(t, spec, c.jobs, c.noCache)
		if got != base {
			t.Errorf("-fleet stdout diverges at jobs=%d noCache=%v", c.jobs, c.noCache)
		}
		if !c.noCache && !strings.Contains(gotErr, "fleet cache delta") {
			t.Errorf("cached fleet run (jobs=%d) missing the cache delta line", c.jobs)
		}
	}
}

func TestFleetFlagBadSpec(t *testing.T) {
	o := &options{run: "all", fleet: "nodes=0", faults: "off", noCache: true}
	if err := run(o, io.Discard, io.Discard); err == nil {
		t.Error("bad -fleet spec accepted")
	}
}

func TestAdhocFlagsMutuallyExclusive(t *testing.T) {
	for _, o := range []options{
		{run: "all", sweep: "workloads=kmeans", fleet: "nodes=10", noCache: true, faults: "off"},
		{run: "all", predict: "workloads=kmeans", fleet: "nodes=10", noCache: true, faults: "off"},
		{run: "all", sweep: "workloads=kmeans", predict: "workloads=kmeans", noCache: true, faults: "off"},
	} {
		if err := run(&o, io.Discard, io.Discard); err == nil {
			t.Errorf("options %+v accepted, want mutual-exclusion error", o)
		}
	}
}

// TestFleetStudyCSVDeterminism is `make golden`'s fleet matrix in miniature:
// results/fleet_study.csv must be byte-identical across worker counts and
// cache modes, cold and warm.
func TestFleetStudyCSVDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 100k-node fleet study five times")
	}
	study := func(jobs int, noCache bool, cacheDir string) string {
		outDir := t.TempDir()
		o := &options{run: "fleet", out: outDir, jobs: jobs, noCache: noCache, cacheDir: cacheDir, faults: "off"}
		if err := run(o, io.Discard, io.Discard); err != nil {
			t.Fatalf("run(-run fleet jobs=%d): %v", jobs, err)
		}
		data, err := os.ReadFile(filepath.Join(outDir, "fleet_study.csv"))
		if err != nil {
			t.Fatalf("fleet_study.csv not written: %v", err)
		}
		return string(data)
	}
	diskDir := t.TempDir()
	base := study(1, true, "")
	for _, c := range []struct {
		name     string
		jobs     int
		noCache  bool
		cacheDir string
	}{
		{"jobs8 no cache", 8, true, ""},
		{"jobs8 memory cache", 8, false, ""},
		{"jobs8 disk cache cold", 8, false, diskDir},
		{"jobs8 disk cache warm", 8, false, diskDir},
	} {
		if got := study(c.jobs, c.noCache, c.cacheDir); got != base {
			t.Errorf("%s: fleet_study.csv differs from sequential no-cache run", c.name)
		}
	}
	if !strings.Contains(base, "100000") {
		t.Error("fleet_study.csv missing the 100k-node rows")
	}
}
